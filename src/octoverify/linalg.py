"""Small exact linear algebra over Fraction (matrices up to 32x32).

Matrices are plain lists of rows.  The products ``mat_mul``, ``mat_vec`` and
``int_mat_mul`` multiply only nonzero entries: the FKM/OT operators hold
32-40 nonzeros out of 1024.  An output entry that receives no nonzero product
holds the zero the dense sum would have come to (``scalars.sum_zero``):
``Fraction(0)`` for rational matrices, never the int ``0``, and a zero
``MultiPoly`` when a vector has polynomial coordinates; ``int_mat_mul``
returns the int ``0``.

The verifiers run on ints: ``to_int_scaled`` scales a rational matrix by the
lcm of its denominators once (``to_int_scaled_shared`` one list of matrices
by a shared one), and every product then runs through ``int_mat_mul``.
``kernel_basis`` is one sparse integer elimination.  Both accept int and
Fraction entries only and raise TypeError on anything else.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import DeterministicRng, fill_zero, pythagorean_unit, random_rational, sum_zero

Matrix = list


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def _sparse_mat_mul(a: Matrix, b: Matrix, zero) -> Matrix:
    """Row-by-row product over the nonzero entries of a and b, finished by
    ``fill_zero`` with ``zero``."""
    ncols = len(b[0]) if b else 0
    b_rows = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [None] * ncols
        for j, x in enumerate(row):
            if not x:
                continue
            for c, y in b_rows[j]:
                t = x * y
                v = acc[c]
                acc[c] = t if v is None else v + t
        out.append(fill_zero(acc, zero))
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return _sparse_mat_mul(a, b, sum_zero(*a, *b))


def mat_vec(a: Matrix, v: list) -> list:
    v_nz = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in a:
        acc = None
        for j, y in v_nz:
            x = row[j]
            if x:
                t = x * y
                acc = t if acc is None else acc + t
        out.append(acc)
    return fill_zero(out, sum_zero(*a, v))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s, a: Matrix) -> Matrix:
    return [[s * x for x in row] for row in a]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def max_abs(a: Matrix):
    return max((abs(x) for row in a for x in row), default=Fraction(0))


# The int route: verify_symmetric_system, verify_skew_rep, condition_a_check,
# star_blocks_identity_check and the intertwiner system scale their rational
# matrices once and run every product (or the elimination) in ints.  On the
# 32x32 FKM/OT operators a verify_symmetric_system call takes ~0.03 s this way
# and ~0.2-0.25 s through Fraction mat_mul (2-vCPU Xeon); ints pass through
# to_int_scaled untouched and a Fraction costs one division of the lcm.
def to_int_scaled(a: Matrix) -> tuple[int, list[list[int]]]:
    """(den, M) with a == M/den, M integer and den the lcm of the entries'
    denominators.  Entries must be int or Fraction: anything else (a float
    above all, whose binary expansion would pass for an exact rational)
    raises TypeError."""
    den = 1
    for row in a:
        for x in row:
            if type(x) is not int:
                _check_exact(x)
                if x.denominator != 1:
                    den = lcm(den, x.denominator)
    return den, [[x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row] for row in a]


def to_int_scaled_shared(mats: list) -> tuple[int, list[list[list[int]]]]:
    """(den, [M_k]) with mats[k] == M_k/den for one den shared by all: the
    ``to_int_scaled`` of the stacked rows, split back into the matrices."""
    den, rows = to_int_scaled([row for m in mats for row in m])
    out, at = [], 0
    for m in mats:
        out.append(rows[at : at + len(m)])
        at += len(m)
    return den, out


def _check_exact(x) -> None:
    if type(x) is not Fraction and type(x) is not int:
        raise TypeError(f"exact kernels take int or Fraction entries, not {type(x).__name__}")


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return _sparse_mat_mul(a, b, 0)


def anticommutator_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    ab = int_mat_mul(a, b)
    ba = int_mat_mul(b, a)
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def _int_row(row) -> dict[int, int]:
    """The nonzeros of to_int_scaled of a dense or {col: value} row, as
    {col: int} divided by their gcd."""
    items = list(row.items() if isinstance(row, dict) else enumerate(row))
    _, (ints,) = to_int_scaled([[x for _, x in items]])
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


def random_rational_orthogonal(rng: DeterministicRng, n: int, steps: int | None = None) -> Matrix:
    """Exact orthogonal matrix: product of Pythagorean Givens rotations."""
    m = identity(n)
    for _ in range(steps if steps is not None else 2 * n):
        i = rng.next_int(0, n - 1)
        j = rng.next_int(0, n - 1)
        if i == j:
            continue
        c, s = pythagorean_unit(random_rational(rng, 3))
        for row in m:
            ri, rj = row[i], row[j]
            row[i], row[j] = c * ri - s * rj, s * ri + c * rj
    return m
