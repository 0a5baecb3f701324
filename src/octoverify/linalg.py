"""Small exact linear algebra over the rationals (matrices up to 32x32).

One matrix type, ``Op``: a rational matrix stored as sparse ``{col: int}``
rows over one positive denominator ``den``.  It is the only matrix type that
crosses a module boundary: the octonion generators J_a, J'_a, the
o-operators U_a, R_a, the mirror blocks A#_a, the FKM/OT operators and the
Condition A blocks are built as ``Op``s once, and every verifier takes
``Op``s only.  The form is canonical, as in
``MultiPoly``: ``gcd(den, *entries) == 1``, no stored zeros, and ``den == 1``
for the zero matrix, so ``==`` compares the structure.  Products run over the
nonzero entries only (the FKM/OT operators hold 32-40 nonzeros out of 1024)
and reduce their result once, with one gcd; no ``Fraction`` is built on the
way.  ``apply`` hands a vector back as ``Fraction`` slots, with the shared
``scalars.RATIONAL_ZERO`` where a sum is zero.

``Op.blocks`` assembles a block matrix from ``Op`` blocks, the way the
FKM/OT operators are built from the octonion and o-multiplication operators.

Ingress has one rule, ``scalars.int_scaled``'s: ``Op.of`` is the one way in
for dense data (it passes an ``Op`` through and converts dense rows of
``int`` and ``Fraction`` entries), and ``apply`` and ``kernel_basis`` take
the same entries, each cleared of denominators by ``int_scaled``, which
raises TypeError for anything else.  ``kernel_basis`` is one sparse integer
elimination.

Nothing here is random: the orthogonal change of basis that the clifford
suite conjugates J by is one fixed ``Op``, ``cli.change_of_basis``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import RATIONAL_ZERO, int_scaled


class Op:
    """Rational matrix: ``rows[i]`` maps column -> nonzero int numerator over
    ``den``; ``ncols`` columns.  Immutable by convention."""

    __slots__ = ("den", "rows", "ncols")

    @staticmethod
    def _wrap(den: int, rows: list, ncols: int) -> "Op":
        """Wrap rows that are already canonical, without copying them."""
        op = object.__new__(Op)
        op.den, op.rows, op.ncols = den, rows, ncols
        return op

    @staticmethod
    def _adopt(den: int, rows: list, ncols: int) -> "Op":
        """Wrap zero-free int rows over ``den`` > 0, reduced to the canonical form."""
        if den != 1:
            g = gcd(den, *(x for row in rows for x in row.values()))
            if g != 1:
                rows = [{c: x // g for c, x in row.items()} for row in rows]
                den //= g
        return Op._wrap(den, rows, ncols)

    @staticmethod
    def of(rows) -> "Op":
        """An ``Op`` unchanged, or dense rows of int/Fraction entries converted.
        Already canonical over the lcm of the reduced denominators: each prime
        power dividing it divides some denominator in full, and the numerator
        scaled with that one is not a multiple of the prime."""
        if isinstance(rows, Op):
            return rows
        rows = [list(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("rows of unequal length")
        den, flat = int_scaled([x for row in rows for x in row])
        out = [{c: x for c, x in enumerate(flat[i * ncols : (i + 1) * ncols]) if x} for i in range(len(rows))]
        return Op._wrap(den, out, ncols)

    @staticmethod
    def identity(n: int) -> "Op":
        return Op._wrap(1, [{i: 1} for i in range(n)], n)

    @staticmethod
    def blocks(grid) -> "Op":
        """The block matrix with the ``Op`` ``grid[i][j]`` in block (i, j) and
        ``None`` for a zero block; each block row and block column needs one
        ``Op`` to fix its size.  Canonical over the lcm of the blocks'
        denominators, as in ``of``.  A ragged grid raises ``ValueError``."""
        if any(len(brow) != len(grid[0]) for brow in grid):
            raise ValueError("block rows differ in length")
        heights = [next(len(b.rows) for b in brow if b is not None) for brow in grid]
        widths = [next(brow[j].ncols for brow in grid if brow[j] is not None) for j in range(len(grid[0]))]
        offsets = [sum(widths[:j]) for j in range(len(widths))]
        den = lcm(*(b.den for brow in grid for b in brow if b is not None))
        rows: list[dict] = []
        for brow, h in zip(grid, heights):
            out: list[dict] = [{} for _ in range(h)]
            for b, w, off in zip(brow, widths, offsets):
                if b is None:
                    continue
                if len(b.rows) != h or b.ncols != w:
                    raise ValueError("blocks do not line up")
                f = den // b.den
                for row, src in zip(out, b.rows):
                    row.update({off + c: x * f for c, x in src.items()})
            rows += out
        return Op._wrap(den, rows, sum(widths))

    @property
    def T(self) -> "Op":
        out: list[dict] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for c, x in row.items():
                out[c][i] = x
        return Op._wrap(self.den, out, len(self.rows))

    def int_product(self, other: "Op") -> list:
        """The rows of self @ other: unreduced int numerators (zeros kept)
        over ``self.den * other.den``."""
        if self.ncols != len(other.rows):
            raise ValueError("matrix shapes do not chain")
        b = other.rows
        out = []
        for row in self.rows:
            acc: dict = {}
            for j, x in row.items():
                for c, y in b[j].items():
                    acc[c] = acc.get(c, 0) + x * y
            out.append(acc)
        return out

    def __matmul__(self, other):
        if not isinstance(other, Op):
            return NotImplemented
        out = [{c: v for c, v in acc.items() if v} for acc in self.int_product(other)]
        return Op._adopt(self.den * other.den, out, other.ncols)

    def _merge(self, other, sign: int):
        if not isinstance(other, Op):
            return NotImplemented
        if len(self.rows) != len(other.rows) or self.ncols != other.ncols:
            raise ValueError("matrix shapes differ")
        # both numerators over lcm(den_a, den_b)
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        out = []
        for ra, rb in zip(self.rows, other.rows):
            row = {c: x * fa for c, x in ra.items()}
            for c, y in rb.items():
                v = row.get(c, 0) + fb * y
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
            out.append(row)
        return Op._adopt(self.den * fa, out, self.ncols)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self) -> "Op":
        return Op._wrap(self.den, [{c: -x for c, x in row.items()} for row in self.rows], self.ncols)

    def __mul__(self, k):
        """Scalar multiple; ``k`` an int or a Fraction."""
        if type(k) is int:
            num, kden = k, 1
        elif type(k) is Fraction:
            num, kden = k.numerator, k.denominator
        else:
            return NotImplemented
        if not num:
            return Op._wrap(1, [{} for _ in self.rows], self.ncols)
        return Op._adopt(self.den * kden, [{c: x * num for c, x in row.items()} for row in self.rows], self.ncols)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Op):
            return NotImplemented
        return self.den == other.den and self.ncols == other.ncols and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Op(den={self.den}, rows={self.rows}, ncols={self.ncols})"

    def apply(self, v) -> list:
        """The vector A v, a Fraction in every slot (``RATIONAL_ZERO`` where
        the sum is zero); the entries of v must be ints or Fractions."""
        if len(v) != self.ncols:
            raise ValueError("vector length differs from the column count")
        vden, vn = int_scaled(v)
        den = self.den * vden
        out = []
        for row in self.rows:
            s = 0
            for c, x in row.items():
                s += x * vn[c]
            out.append(Fraction(s, den) if s else RATIONAL_ZERO)
        return out

    def max_abs(self) -> Fraction:
        """The largest |entry|, Fraction(0) for the zero matrix."""
        return Fraction(max((abs(x) for row in self.rows for x in row.values()), default=0), self.den)

    def scalar(self) -> Fraction | None:
        """lambda when the matrix is lambda Id (0 for the square zero matrix), else None."""
        n = len(self.rows)
        if n != self.ncols:
            return None
        lam = self.rows[0].get(0, 0) if n else 0
        if any(row != ({i: lam} if lam else {}) for i, row in enumerate(self.rows)):
            return None
        return Fraction(lam, self.den)


def _int_row(row) -> dict[int, int]:
    """The nonzeros of a dense or {col: value} row scaled to ints, as
    {col: int} divided by their gcd."""
    items = list(row.items() if isinstance(row, dict) else enumerate(row))
    _, ints = int_scaled([x for _, x in items])
    return _normalized({c: x for (c, _), x in zip(items, ints) if x})


def _normalized(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], col: int, pivot: dict[int, int]) -> dict[int, int]:
    """The multiple of row - multiple of pivot whose entry at col is zero
    (both entries there nonzero), divided by its gcd."""
    p, q = pivot[col], row[col]
    g = gcd(p, q)
    p, q = p // g, q // g
    out = {c: p * x for c, x in row.items()}
    for c, y in pivot.items():
        x = out.get(c, 0) - q * y
        if x:
            out[c] = x
        else:
            del out[c]
    return _normalized(out)


def kernel_basis(rows, ncols: int) -> list[list[Fraction]]:
    """Exact kernel basis of a rational matrix, one vector per free column
    (in column order): 1 at the free column, -r[free]/r[pivot] at each pivot.

    One sparse integer reduced-row-echelon elimination: each row, dense or a
    {col: value} mapping with int/Fraction entries (anything else raises
    TypeError), becomes a gcd-normalized {col: int} row at ingress.  Every
    new pivot is back-substituted into the earlier ones, so the pivot rows
    are the reduced row-echelon form, which is unique: the basis depends on
    the row space only, not on the order or scale of the rows."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = _int_row(r)
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, c, pivots[c])
        if not row:
            continue
        lead = min(row)
        for c, pr in pivots.items():
            if lead in pr:
                pivots[c] = _eliminate(pr, lead, row)
        pivots[lead] = row
    basis = {c: [Fraction(0)] * ncols for c in range(ncols) if c not in pivots}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for pc, pr in pivots.items():
        lead = pr[pc]
        for c, x in pr.items():
            if c != pc:
                basis[c][pc] = Fraction(-x, lead)
    return list(basis.values())
