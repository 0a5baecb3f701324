"""Quaternion and octonion arithmetic via the Cayley-Dickson doubling.

The octonion product is the Cayley-Dickson extension of the quaternions:

    (a, b)(c, d) = (ac - conj(d) b,  da + b conj(c))

with the basis fixed as (e_0,...,e_7) = (1, i, j, k, eps, i eps, j eps, k eps),
so the quaternions are the sub-span of coordinates 0..3.  All structure
constants are 0 or +-1; they are cached once in a signed 8x8 table and the
general product is the table-driven bilinear extension, which works over any
commutative coefficient ring (Fraction, float, or polynomial coordinates).

``cayley_dickson_multiply`` keeps the recursive definition around as an
independent oracle for the table.

The multiplication matrices (``left_mult_matrix``, ``right_mult_matrix``) and
the generators J_a, J'_a built from them are ``linalg.Op``s, so they take
rational coordinates only.  ``symbolic_octets`` gives polynomial-coordinate
slots for the symbolic proofs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import Op
from .poly import MultiPoly
from .scalars import fill_zero, sum_zero

Coord = Sequence


def _quaternion_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _quaternion_conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def cayley_dickson_multiply(x, y):
    """Octonion product straight from the doubling rule (reference oracle)."""
    a, b = tuple(x[:4]), tuple(x[4:])
    c, d = tuple(y[:4]), tuple(y[4:])
    z1 = tuple(p - q for p, q in zip(_quaternion_mul(a, c), _quaternion_mul(_quaternion_conj(d), b)))
    z2 = tuple(p + q for p, q in zip(_quaternion_mul(d, a), _quaternion_mul(b, _quaternion_conj(c))))
    return z1 + z2


def _build_tables():
    sign = [[0] * 8 for _ in range(8)]
    index = [[0] * 8 for _ in range(8)]
    for i in range(8):
        ei = tuple(Fraction(int(i == t)) for t in range(8))
        for j in range(8):
            ej = tuple(Fraction(int(j == t)) for t in range(8))
            p = cayley_dickson_multiply(ei, ej)
            nz = [(k, c) for k, c in enumerate(p) if c != 0]
            assert len(nz) == 1 and abs(nz[0][1]) == 1
            index[i][j] = nz[0][0]
            sign[i][j] = 1 if nz[0][1] > 0 else -1
    return sign, index


MULT_SIGN, MULT_INDEX = _build_tables()


def basis(i: int, dim: int = 8) -> tuple:
    return tuple(Fraction(int(j == i)) for j in range(dim))


def zero(dim: int = 8) -> tuple:
    return tuple(Fraction(0) for _ in range(dim))


def multiply(x, y):
    """Table-driven bilinear product; dim-4 inputs stay in the quaternion sub-span.

    Which loop runs follows from the coordinate types, through
    ``scalars.sum_zero``, the zero the full double loop would have summed to:

    - rational inputs (Fractions and ints, at least one Fraction; the zero is
      ``Fraction(0)``): each vector is scaled to the lcm of its denominators,
      the products are summed in ints, and every slot comes back as a
      ``Fraction`` over the product of the two lcms, ``Fraction(0)`` where
      the products cancel or none was made;
    - anything else (a polynomial or float coordinate, or ints only): the
      generic loop over the coordinates themselves.  A slot that receives no
      nonzero product holds that zero (a zero ``MultiPoly`` with the inputs'
      ``nvars`` when any coordinate is a polynomial, ``0.0`` for floats, int
      ``0`` for ints), and every other slot is widened to its type, so mixed
      Fraction/MultiPoly inputs give a MultiPoly in every slot.

    Both loops multiply only pairs of nonzero coordinates.
    """
    dim = len(x)
    if len(y) != dim:
        raise ValueError("dimension mismatch")
    zero = sum_zero(x, y)
    if type(zero) is Fraction:
        return _rational_multiply(x, y, zero)
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    out = [None] * dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row_s = MULT_SIGN[i]
        row_k = MULT_INDEX[i]
        for j, yj in ys:
            term = xi * yj
            k = row_k[j]
            v = out[k]
            if row_s[j] > 0:
                out[k] = term if v is None else v + term
            else:
                out[k] = -term if v is None else v - term
    return tuple(fill_zero(out, zero))


def _rational_multiply(x, y, zero: Fraction) -> tuple:
    """``multiply`` on rational coordinates, summed in int numerators; slots
    that come to 0 share ``zero``."""
    dx = lcm(*[c.denominator for c in x])
    dy = lcm(*[c.denominator for c in y])
    ys = [(j, c.numerator * (dy // c.denominator)) for j, c in enumerate(y) if c]
    out = [0] * len(x)
    for i, c in enumerate(x):
        if not c:
            continue
        xi = c.numerator * (dx // c.denominator)
        row_s = MULT_SIGN[i]
        row_k = MULT_INDEX[i]
        for j, yj in ys:
            if row_s[j] > 0:
                out[row_k[j]] += xi * yj
            else:
                out[row_k[j]] -= xi * yj
    d = dx * dy
    return tuple(Fraction(v, d) if v else zero for v in out)


def conjugate(x):
    return (x[0],) + tuple(-c for c in x[1:])


def imaginary_part(x):
    zero_like = x[0] - x[0]
    return (zero_like,) + tuple(x[1:])


def inner(x, y):
    """Coordinate dot product; equals (x conj(y) + y conj(x))/2 for octonions.

    Like ``multiply``, it multiplies only pairs of nonzero coordinates and
    returns the zero (or the type) the full sum would have had.  On rational
    inputs (the zero is ``Fraction(0)``) the pairs are summed in ints over
    the lcm denominators of their two sides, giving one ``Fraction``, or the
    shared zero when the sum is 0; polynomial, float and all-int inputs run
    the generic loop.
    """
    zero = sum_zero(x, y)
    pairs = [(a, b) for a, b in zip(x, y) if a and b]
    if type(zero) is Fraction:
        if not pairs:
            return zero
        if len(pairs) == 1:  # one side a basis vector, say: a plain product
            a, b = pairs[0]
            v = a * b
            return v if type(v) is Fraction else Fraction(v)
        dx = lcm(*[a.denominator for a, _ in pairs])
        dy = lcm(*[b.denominator for _, b in pairs])
        s = sum(a.numerator * (dx // a.denominator) * b.numerator * (dy // b.denominator) for a, b in pairs)
        return Fraction(s, dx * dy) if s else zero
    acc = None
    for a, b in pairs:
        term = a * b
        acc = term if acc is None else acc + term
    return fill_zero([acc], zero)[0]


def norm_sq(x):
    return inner(x, x)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def neg(x):
    return tuple(-a for a in x)


def scale(s, x):
    return tuple(s * a for a in x)


def left_mult_matrix(u) -> Op:
    """Matrix of z -> u z on coordinate columns (column b = coords of u e_b)."""
    dim = len(u)
    return Op.of([multiply(u, basis(b, dim)) for b in range(dim)]).T


def right_mult_matrix(u) -> Op:
    """Matrix of z -> z u."""
    dim = len(u)
    return Op.of([multiply(basis(b, dim), u) for b in range(dim)]).T


def j_generators(dim: int = 8) -> list:
    """Left-multiplication generators J_i(z) = e_i z, i = 1..dim-1."""
    return [left_mult_matrix(basis(i, dim)) for i in range(1, dim)]


def j_prime_generators(dim: int = 8) -> list:
    """Right-multiplication generators J'_i(z) = z e_i."""
    return [right_mult_matrix(basis(i, dim)) for i in range(1, dim)]


def symbolic_octets(dim: int, names: str) -> tuple:
    """Tuple of symbolic elements, one per letter, over consecutive variables
    of one shared ring: a lowercase letter is purely imaginary (dim - 1
    variables, slot 0 the zero polynomial), an uppercase letter is a full
    element (dim variables)."""
    counts = [(dim - 1) if ch.islower() else dim for ch in names]
    nv = sum(counts)
    zero = MultiPoly.zero(nv)
    out = []
    off = 0
    for ch, c in zip(names, counts):
        coords = [MultiPoly.variable(nv, off + i) for i in range(c)]
        out.append(tuple([zero] + coords if ch.islower() else coords))
        off += c
    return tuple(out)
