"""Exact scalar helpers: the one exact ingress of the kernels, the zeros of
the zero-skipping kernels, deterministic randomness, and rational points on
the unit circle.

``int_scaled`` is where rational data enters every exact kernel
(``linalg.Op``, ``kernel_basis``, ``MultiPoly`` and ``poly.evaluate``,
``ProductTable`` and ``inner``): it clears the denominators of a sequence in
one place and raises ``TypeError`` for anything but an ``int`` or a
``Fraction`` (a ``bool``, or a float whose binary expansion would pass for
an exact rational).

The verifiers compare exactly, so there is no comparison mode here (the
CLI's ``--mode float`` computes its own residuals in ``suite_nom_float``).
Angles are realized as rational points on the unit circle via the Pythagorean
parametrization c = (1-t^2)/(1+t^2), s = 2t/(1+t^2), which keeps every
downstream identity exactly checkable.

The seeded draws are counter-based splitmix64 (``DeterministicRng``).
``random_rationals`` makes many draws in one loop, each from two counters,
and reads each value from a per-bound table of interned ``Fraction``s
(filled on first draw), so a draw builds and reduces no ``Fraction``;
``random_rational`` is its single draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

RATIONAL_ZERO = Fraction(0)
EXACT_TYPES = frozenset({int, Fraction})


def int_scaled(values) -> tuple[int, list[int]]:
    """(den, ints) with ``values[k] == ints[k] / den`` and den the lcm of the
    denominators.  ``values`` is a sequence (it is read more than once) whose
    entries are exactly ints or Fractions; anything else, a ``bool`` too,
    raises ``TypeError``."""
    kinds = set(map(type, values))
    if not kinds <= EXACT_TYPES:
        bad = next(type(v).__name__ for v in values if type(v) not in EXACT_TYPES)
        raise TypeError(f"exact kernels take int or Fraction entries, not {bad}")
    if Fraction not in kinds:
        return 1, list(values)
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in pairs])
    if den == 1:
        return 1, [n for n, _ in pairs]
    return den, [n * (den // d) for n, d in pairs]


@cache
def _multipoly_type() -> type:
    """``poly.MultiPoly``, imported on first use: poly imports this module."""
    from .poly import MultiPoly

    return MultiPoly


def sum_zero(*vectors):
    """The zero that a dense sum of products of these coordinates comes to.

    ``Fraction(0)`` when every coordinate is a Fraction or an int (and at
    least one is a Fraction, or there are none), and the int ``0`` when all
    are ints.  Otherwise it is the sum of one zero per other coordinate
    type: ``MultiPoly.zero`` with the coordinates' ``nvars`` for a
    ``MultiPoly``, and ``c - c``, which is ``0.0``, for a float.
    """
    kinds = set()
    for v in vectors:
        kinds.update(map(type, v))
    if kinds <= EXACT_TYPES:
        return 0 if kinds == {int} else RATIONAL_ZERO
    MultiPoly = _multipoly_type()
    zero = None
    for kind in kinds - EXACT_TYPES:
        c = next(c for v in vectors for c in v if type(c) is kind)
        z = MultiPoly.zero(c.nvars) if kind is MultiPoly else c - c
        zero = z if zero is None else zero + z
    return zero


def fill_zero(slots: list, zero) -> list:
    """Finish the output of a zero-skipping kernel: each slot that received no
    nonzero product (None) becomes ``zero``, and every other slot is widened to
    ``zero``'s type, so the kernel returns what the dense loop returned."""
    kind = type(zero)
    return [zero if v is None else v if type(v) is kind else zero + v for v in slots]


def pythagorean_unit(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point (c, s) on the unit circle with c^2 + s^2 = 1 exactly.

    t = 0 gives (1, 0); t = 1 gives (0, 1); t = 1/2 gives (3/5, 4/5).
    """
    t = Fraction(t)
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _splitmix64(seed: int, n: int) -> int:
    """Output number n of the splitmix64 stream of ``seed``."""
    z = (seed + (n + 1) * _GAMMA) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


@dataclass
class DeterministicRng:
    """Counter-based splittable generator: output depends only on (seed, counter).

    Advancing the counter is the only mutation; ``fork`` derives an
    independent stream.
    """

    seed: int
    counter: int = 0

    def next_u64(self) -> int:
        v = _splitmix64(self.seed, self.counter)
        self.counter += 1
        return v

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def fork(self, tag: int) -> "DeterministicRng":
        """Independent stream derived from (seed, tag)."""
        return DeterministicRng(_splitmix64(self.seed, tag ^ 0xD6E8FEB86659FD93), 0)


class _RationalTable(dict):
    """The values ``random_rationals`` draws at one bound b, interned: key
    i * b + j holds ``Fraction(i - b, j + 1)`` for 0 <= i <= 2b, 0 <= j < b.
    An entry is built on its first draw, so the table never holds more than
    the (2b+1)·b possible values, nor more than were drawn."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound

    def __missing__(self, key: int) -> Fraction:
        i, j = divmod(key, self.bound)
        value = self[key] = Fraction(i - self.bound, j + 1)
        return value


_RATIONAL_TABLES: dict[int, _RationalTable] = {}


def random_rationals(rng: DeterministicRng, bound: int, count: int) -> list[Fraction]:
    """``count`` successive random rationals with |numerator|, denominator
    <= bound (so |r| <= bound).  Each is drawn from two counters of ``rng``,
    as ``Fraction(rng.next_int(-bound, bound), rng.next_int(1, bound))``, and
    read from the bound's table of interned values instead of being built
    and reduced."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    table = _RATIONAL_TABLES.get(bound)
    if table is None:
        table = _RATIONAL_TABLES.setdefault(bound, _RationalTable(bound))
    seed, start, span = rng.seed, rng.counter, 2 * bound + 1
    rng.counter = start + 2 * count
    return [
        table[_splitmix64(seed, n) % span * bound + _splitmix64(seed, n + 1) % bound]
        for n in range(start, start + 2 * count, 2)
    ]


def random_rational(rng: DeterministicRng, bound: int) -> Fraction:
    """One draw of ``random_rationals``."""
    return random_rationals(rng, bound, 1)[0]
