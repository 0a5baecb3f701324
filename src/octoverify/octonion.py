"""Quaternion and octonion arithmetic via the Cayley-Dickson doubling.

The octonion product is the Cayley-Dickson extension of the quaternions:

    (a, b)(c, d) = (ac - conj(d) b,  da + b conj(c))

with the basis fixed as (e_0,...,e_7) = (1, i, j, k, eps, i eps, j eps, k eps),
so the quaternions are the sub-span of coordinates 0..3.

``ProductTable`` holds the products e_a e_b of some bilinear multiplication
on all basis pairs and is its one sparse kernel: it extends the table
bilinearly over polynomial, rational, int and float coordinates, reading
only pairs of nonzero coordinates.  Polynomial coordinates are summed slot
by slot by ``poly.weighted_products``, in one pass per product.  Fraction,
int and float coordinates run one accumulation loop, which rational inputs
enter as int numerators: ``scalars.int_scaled`` clears their denominators,
as it does for a table's dense entries.  ``inner`` takes the same two
routes.  The octonion product is the table
``PRODUCT_TABLES[dim]``, built at import for dims 4 and 8 from
``cayley_dickson_multiply`` on the int basis vectors ``int_basis(dim)``
(entries 0 and +-1); every normalized multiplication x o y is another such
table (``circ.Nom.table``).  ``cayley_dickson_multiply`` keeps the recursive
definition around as an independent oracle for the table, which the
algebra suite runs on those same int vectors.

The multiplication matrices (``left_mult_matrix``, ``right_mult_matrix``) and
the generators J_a, J'_a (the table's ``ops``) are ``linalg.Op``s, so they
take rational coordinates only.  ``symbolic_octets``
gives the polynomial-coordinate slots that every identity is stated in and
proved in (``report.proved``).
``norm_defect`` and ``exchange_defects`` state the identities every
orthogonal multiplication satisfies, once, for any product ``mul``: the
octonion product and every x o y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import Sequence

from .linalg import Op
from .poly import MultiPoly, weighted_products
from .scalars import fill_zero, int_scaled, sum_zero

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


def basis(i: int, dim: int = 8) -> tuple:
    return tuple(Fraction(int(j == i)) for j in range(dim))


def zero(dim: int = 8) -> tuple:
    return tuple(Fraction(0) for _ in range(dim))


@dataclass
class ProductTable:
    """Table of basis products e_a e_b with its bilinear extension.

    One kernel serves the octonion product (``PRODUCT_TABLES``) and every
    normalized multiplication (``circ.Nom.table``).  Its one form,
    ``sparse``, is one common denominator D and, for each (a, b), the
    nonzero coordinates of e_a e_b as ``(k, w)`` pairs with int w = D *
    value, canonical as in ``linalg.Op``, so ``==`` compares values."""

    sparse: tuple  # (D, rows)

    @staticmethod
    def of(entries, den: int = 1) -> "ProductTable":
        """The table of e_a e_b = entries[a][b] / den, from int or Fraction
        coordinates (``int_scaled``)."""
        d, ints = int_scaled([c for row in entries for v in row for c in v])
        den *= d
        g = gcd(den, *ints)
        it = iter(ints)
        rows = [[tuple((k, w // g) for k, w in enumerate(islice(it, len(v))) if w) for v in row] for row in entries]
        return ProductTable((den // g, rows))

    @property
    def dim(self) -> int:
        return len(self.sparse[1])

    def product(self, x, y, zero) -> tuple:
        """sum_ab x_a y_b (e_a e_b), with the slot types of the dense sum;
        ``zero`` is the zero that sum comes to (``scalars.sum_zero`` of the
        table's and the inputs' coordinates).

        Only pairs of nonzero coordinates are read.  With polynomial
        coordinates (``zero`` is a ``MultiPoly``) each slot is the triples
        (w, a, b) of its pairs, summed by ``poly.weighted_products`` over
        D in one pass.  Rational, int and float coordinates run one loop
        that sums w * (x_a y_b) per slot.  Rational inputs (``zero`` is a
        ``Fraction``) enter it as ``int_scaled`` numerators over one
        denominator d, and each slot comes out as one ``Fraction`` over
        d * d * D, or the shared ``zero``.  An int or float slot is divided
        by D once and widened to ``zero``'s type by ``scalars.fill_zero``."""
        dim = self.dim
        if len(x) != dim or len(y) != dim:
            raise ValueError("dimension mismatch")
        den, rows = self.sparse
        if type(zero) is MultiPoly:
            xs = [a for a, c in enumerate(x) if c]
            ys = [b for b, c in enumerate(y) if c]
            slots = [[] for _ in range(dim)]
            for i, a in enumerate(xs):
                row = rows[a]
                for j, b in enumerate(ys):
                    for k, w in row[b]:
                        slots[k].append((w, i, j))
            return tuple(weighted_products(zero.nvars, [x[a] for a in xs], [y[b] for b in ys], slots, den))
        rational = type(zero) is Fraction
        if rational:
            d, ints = int_scaled([*x, *y])
            x, y = ints[:dim], ints[dim:]
            den *= d * d
        xs = [(a, c) for a, c in enumerate(x) if c]
        ys = [(b, c) for b, c in enumerate(y) if c]
        out = [None] * dim
        for a, xa in xs:
            row = rows[a]
            for b, yb in ys:
                p = xa * yb
                for k, w in row[b]:
                    v = out[k]
                    if v is None:
                        out[k] = p if w == 1 else -p if w == -1 else p * w
                    elif w == 1:
                        out[k] = v + p
                    elif w == -1:
                        out[k] = v - p
                    else:
                        out[k] = v + p * w
        if rational:
            return tuple([Fraction(v, den) if v else zero for v in out])
        if den != 1:
            scale = Fraction(1, den)
            out = [None if v is None else v * scale for v in out]
        return tuple(fill_zero(out, zero))

    @cached_property
    def ops(self) -> tuple:
        """(L, R): L_a(x) = e_a x and R_a(x) = x e_a for a = 1..dim-1, as
        ``Op``s built once from ``sparse`` (column b is e_a e_b, e_b e_a)."""
        den, rows = self.sparse
        dim = self.dim
        left, right = ([[{} for _ in range(dim)] for _ in range(dim)] for _ in "LR")
        for a, row in enumerate(rows):
            for b, pairs in enumerate(row):
                for k, w in pairs:
                    left[a][k][b] = right[b][k][a] = w
        return tuple(tuple(Op._adopt(den, m, dim) for m in side[1:]) for side in (left, right))


def int_basis(dim: int) -> list:
    """e_0..e_{dim-1} as int octonions (padded to 8 coordinates; the
    quaternions are the sub-span of coordinates 0..3): the vectors that
    ``PRODUCT_TABLES`` is built from."""
    return [tuple(int(j == i) for j in range(8)) for i in range(dim)]


def _basis_product_table(dim: int) -> ProductTable:
    """e_a e_b from the doubling rule on ``int_basis(dim)``."""
    e = int_basis(dim)
    return ProductTable.of([[cayley_dickson_multiply(a, b)[:dim] for b in e] for a in e])


PRODUCT_TABLES = {dim: _basis_product_table(dim) for dim in (4, 8)}


def _table(dim: int) -> ProductTable:
    table = PRODUCT_TABLES.get(dim)
    if table is None:
        raise ValueError(f"no product table in dimension {dim}; use 4 or 8")
    return table


def multiply(x, y):
    """The product xy, through the dimension's ``ProductTable``; dim-4 inputs
    stay in the quaternion sub-span.  The slot types follow from the
    coordinates through ``scalars.sum_zero``: rational inputs give a
    ``Fraction`` in every slot, mixed Fraction/MultiPoly inputs a MultiPoly,
    floats floats and all-int inputs ints."""
    return _table(len(x)).product(x, y, sum_zero(x, y))


def conjugate(x):
    return (x[0],) + tuple(-c for c in x[1:])


def imaginary_part(x):
    zero_like = x[0] - x[0]
    return (zero_like,) + tuple(x[1:])


def inner(x, y):
    """Coordinate dot product; equals (x conj(y) + y conj(x))/2 for octonions.

    Like ``multiply``, it reads only the pairs of nonzero coordinates and
    returns the zero (or the type) the full sum would have had.  Polynomial
    coordinates are summed by ``poly.weighted_products`` in one pass.
    Rational inputs (the zero is ``Fraction(0)``) enter one loop as the int
    numerators of ``int_scaled`` and come out as one ``Fraction``, or the
    shared zero; int and float coordinates run the same loop as they are.
    """
    zero = sum_zero(x, y)
    pairs = [(a, b) for a, b in zip(x, y, strict=True) if a and b]
    if not pairs:
        return zero
    if type(zero) is MultiPoly:
        return weighted_products(zero.nvars, *zip(*pairs), [[(1, i, i) for i in range(len(pairs))]])[0]
    rational = type(zero) is Fraction
    if rational:
        den, ints = int_scaled([c for pair in pairs for c in pair])
        pairs = zip(ints[::2], ints[1::2])
    acc = None
    for a, b in pairs:
        term = a * b
        acc = term if acc is None else acc + term
    if rational:
        return Fraction(acc, den * den) if acc else zero
    return fill_zero([acc], zero)[0]


def norm_sq(x):
    return inner(x, x)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y, strict=True))


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
    return list(_table(dim).ops[0])


def j_prime_generators(dim: int = 8) -> list:
    """Right-multiplication generators J'_i(z) = z e_i."""
    return list(_table(dim).ops[1])


def symbolic_octets(dim: int, names: str) -> tuple:
    """Tuple of symbolic elements, one per letter, over consecutive variables
    of one shared ring: a lowercase letter is purely imaginary (slot 0 is the
    zero polynomial, then dim - 1 variables), an uppercase letter is a full
    element (dim variables)."""
    nv = sum(dim - ch.islower() for ch in names)
    zero, var = MultiPoly.zero(nv), iter(range(nv))
    return tuple(
        tuple(([zero] if ch.islower() else []) + [MultiPoly.variable(nv, next(var)) for _ in range(dim - ch.islower())])
        for ch in names
    )


def norm_defect(mul, x, y):
    """|mul(x, y)|^2 - |x|^2 |y|^2, zero for an orthogonal multiplication."""
    return norm_sq(mul(x, y)) - norm_sq(x) * norm_sq(y)


def exchange_defects(mul, x, y, z) -> tuple:
    """The values that vanish when ``mul`` satisfies the exchange identities

        <xy, z> = <y, conj(x) z>,   <xy, z> = <x, z conj(y)>,
        x(conj(y) z) + y(conj(x) z) = 2<x, y> z = (zx) conj(y) + (zy) conj(x)

    (the vector identities contribute one value per coordinate)."""
    cx, cy = conjugate(x), conjugate(y)
    xy_z = inner(mul(x, y), z)
    twice = scale(2 * inner(x, y), z)
    return (
        xy_z - inner(y, mul(cx, z)),
        xy_z - inner(x, mul(z, cy)),
        *sub(add(mul(x, mul(cy, z)), mul(y, mul(cx, z))), twice),
        *sub(add(mul(mul(z, x), cy), mul(mul(z, y), cx)), twice),
    )
