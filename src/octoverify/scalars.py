"""Exact scalar helpers: the one exact ingress of the kernels, the zeros of
the zero-skipping kernels, and rational points on the unit circle.

``int_scaled`` is where rational data enters every exact kernel
(``linalg.Op``, ``kernel_basis``, ``MultiPoly`` and ``MultiPoly.eval``,
``ProductTable`` and ``inner``): it clears the denominators of a sequence in
one place and raises ``TypeError`` for anything but an ``int`` or a
``Fraction`` (a ``bool``, or a float whose binary expansion would pass for
an exact rational).

The verifiers compare exactly, so there is no comparison mode here (the
CLI's ``--mode float`` computes its own residuals in ``suite_nom_float``).
Angles are realized as rational points on the unit circle via the Pythagorean
parametrization c = (1-t^2)/(1+t^2), s = 2t/(1+t^2), which keeps every
downstream identity exactly checkable.

There is no random generator here: exact mode proves every identity and
reads no seed (float mode's norm check draws its points from the standard
library's ``random.Random``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

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
