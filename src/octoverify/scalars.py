"""Exact scalar helpers: the one exact ingress of the kernels, the zeros of
the zero-skipping kernels, the batched scalar of the sampled checks,
deterministic randomness, and rational points on the unit circle.

``int_scaled`` is where rational data enters every exact kernel
(``linalg.Op``, ``kernel_basis``, ``MultiPoly``, ``ProductTable`` and
``inner``, ``stack_vectors``): it clears the denominators of a sequence in
one place and raises ``TypeError`` for anything but an ``int`` or a
``Fraction`` (a ``bool``, or a float whose binary expansion would pass for
an exact rational).

The verifiers compare exactly, so there is no comparison mode here (the
CLI's ``--mode float`` computes its own residuals in ``suite_nom_float``).
Angles are realized as rational points on the unit circle via the Pythagorean
parametrization c = (1-t^2)/(1+t^2), s = 2t/(1+t^2), which keeps every
downstream identity exactly checkable.

``SampleBatch`` is one exact scalar that holds a coordinate of many seeded
draws at once (``report.sampled`` stacks each slot with ``stack_vectors``),
so a residual runs the unchanged generic paths of the kernels once per batch
of draws instead of once per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def sum_zero(*vectors):
    """The zero that a dense sum of products of these coordinates comes to.

    ``Fraction(0)`` when every coordinate is a Fraction or an int (and at
    least one is a Fraction).  Otherwise it is the sum of one ``c - c`` per
    coordinate type, which is a zero ``MultiPoly`` with the coordinates'
    ``nvars`` when any coordinate is one, a zero ``SampleBatch`` (over the
    batch's ``dens``) when any is one, ``0.0`` when any is a float, and the
    int ``0`` when all are ints.
    """
    kinds = set()
    for v in vectors:
        kinds.update(map(type, v))
    if Fraction in kinds and kinds <= {Fraction, int}:
        return RATIONAL_ZERO
    zero = None
    for kind in kinds:
        c = next(c for v in vectors for c in v if type(c) is kind)
        zero = c - c if zero is None else zero + (c - c)
    return RATIONAL_ZERO if zero is None else zero


def fill_zero(slots: list, zero) -> list:
    """Finish the output of a zero-skipping kernel: each slot that received no
    nonzero product (None) becomes ``zero``, and every other slot is widened to
    ``zero``'s type, so the kernel returns what the dense loop returned."""
    kind = type(zero)
    return [zero if v is None else v if type(v) is kind else zero + v for v in slots]


class SampleBatch:
    """One exact scalar per sample of a batch of draws: sample i holds
    ``nums[i] / dens[i]``, int numerators over per-sample int denominators,
    left unreduced.  It is a commutative ring element under ``+ - *`` with
    another batch of the same samples or with an int or ``Fraction`` (on
    either side), so the kernels' generic paths evaluate a residual for every
    sample of the batch in one pass.

    A sum of two batches over equal ``dens`` adds the numerators only; every
    product inside one kernel call shares its ``dens`` (``stack_vectors``
    gives all coordinates of a slot one ``dens``), so that is the common
    case.  Truth is "some sample is nonzero", so a zero-skipping kernel skips
    only a coordinate that is zero in every sample.  There is no single
    value to compare or hash: ``==``, ordering and ``hash`` raise
    ``TypeError``, so code that branches on a value fails loudly.  Batches
    are never modified; results may share ``nums`` or ``dens`` lists."""

    __slots__ = ("nums", "dens")

    def __init__(self, nums: list, dens: list):
        self.nums = nums
        self.dens = dens

    def values(self) -> list[Fraction]:
        """The reduced value of each sample."""
        return [Fraction(n, d) for n, d in zip(self.nums, self.dens)]

    def __bool__(self) -> bool:
        return any(self.nums)

    def __neg__(self) -> "SampleBatch":
        return SampleBatch([-n for n in self.nums], self.dens)

    def __add__(self, other):
        nums, dens = self.nums, self.dens
        if type(other) is SampleBatch:
            if other.dens is dens or other.dens == dens:
                return SampleBatch([a + b for a, b in zip(nums, other.nums)], dens)
            return SampleBatch(
                [a * e + b * d for a, d, b, e in zip(nums, dens, other.nums, other.dens)],
                [d * e for d, e in zip(dens, other.dens)],
            )
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if q == 1:
                return SampleBatch([a + p * d for a, d in zip(nums, dens)], dens)
            return SampleBatch([a * q + p * d for a, d in zip(nums, dens)], [d * q for d in dens])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is SampleBatch or isinstance(other, (int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if type(other) is SampleBatch:
            return SampleBatch(
                [a * b for a, b in zip(self.nums, other.nums)], [d * e for d, e in zip(self.dens, other.dens)]
            )
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            nums = self.nums if p == 1 else [a * p for a in self.nums]
            return SampleBatch(nums, self.dens if q == 1 else [d * q for d in self.dens])
        return NotImplemented

    __rmul__ = __mul__

    def _no_single_value(self, other):
        raise TypeError("a SampleBatch holds one value per sample: it cannot be compared")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_single_value
    __hash__ = None


def stack_vectors(vectors) -> tuple:
    """One slot of a batch of draws as ``SampleBatch`` coordinates:
    ``vectors[i]`` is sample i's rational coordinate tuple, and coordinate k
    of the result holds coordinate k of every sample.  Each sample's vector
    is lifted to the lcm of its own denominators by ``int_scaled``, so all
    coordinates share one ``dens``."""
    scaled = [int_scaled(v) for v in vectors]
    dens = [d for d, _ in scaled]
    return tuple(SampleBatch(list(col), dens) for col in zip(*(ints for _, ints in scaled)))


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


@dataclass
class DeterministicRng:
    """Counter-based splittable generator: output depends only on (seed, counter).

    Advancing the counter is the only mutation; ``fork`` derives an
    independent stream.
    """

    seed: int
    counter: int = 0

    def _mix(self, n: int) -> int:
        z = (self.seed + (n + 1) * _GAMMA) & _MASK64
        z ^= z >> 30
        z = (z * _MIX1) & _MASK64
        z ^= z >> 27
        z = (z * _MIX2) & _MASK64
        z ^= z >> 31
        return z

    def next_u64(self) -> int:
        v = self._mix(self.counter)
        self.counter += 1
        return v

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def fork(self, tag: int) -> "DeterministicRng":
        """Independent stream derived from (seed, tag)."""
        return DeterministicRng(self._mix(tag ^ 0xD6E8FEB86659FD93), 0)


def random_rational(rng: DeterministicRng, bound: int) -> Fraction:
    """Random rational with |numerator|, denominator <= bound (so |r| <= bound)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    num = rng.next_int(-bound, bound)
    den = rng.next_int(1, bound)
    return Fraction(num, den)


def random_unit_rational_vector(rng: DeterministicRng, n: int) -> list[Fraction]:
    """Exact unit vector in Q^n built from a random Pythagorean rotation chain."""
    v = [Fraction(0)] * n
    v[rng.next_int(0, n - 1)] = Fraction(1)
    for _ in range(2 * n):
        i = rng.next_int(0, n - 1)
        j = rng.next_int(0, n - 1)
        if i == j:
            continue
        c, s = pythagorean_unit(random_rational(rng, 4))
        vi, vj = v[i], v[j]
        v[i], v[j] = c * vi - s * vj, s * vi + c * vj
    return v
