"""Small exact linear algebra over Fraction (matrices up to 32x32).

Matrices are plain lists of rows.  The products ``mat_mul``, ``mat_vec`` and
``int_mat_mul`` multiply only nonzero entries: the FKM/OT operators hold
32-40 nonzeros out of 1024.  An output entry that receives no nonzero product
holds the zero the dense sum would have come to (``scalars.sum_zero``):
``Fraction(0)`` for rational matrices, never the int ``0``, and a zero
``MultiPoly`` when a vector has polynomial coordinates; ``int_mat_mul``
returns the int ``0``.

Hot verification loops get an integer fast path: a rational matrix is scaled
by the lcm of its denominators once and all products run in plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


# Kept beside mat_mul: on the 32x32 FKM/OT operators verify_symmetric_system
# takes ~0.05 s per call through it and ~0.2-0.25 s through Fraction mat_mul
# (2-vCPU Xeon).
def to_int_scaled(a: Matrix) -> tuple[int, list[list[int]]]:
    """(den, M) with a == M/den and M integer."""
    den = 1
    for row in a:
        for x in row:
            f = Fraction(x)
            den = den * f.denominator // gcd(den, f.denominator)
    out = [[int(Fraction(x) * den) for x in row] for row in a]
    return den, out


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return _sparse_mat_mul(a, b, 0)


def anticommutator_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    ab = int_mat_mul(a, b)
    ba = int_mat_mul(b, a)
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def _row_normalize(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact kernel basis via integer Gaussian elimination; deterministic
    (free variables in column order, each basis vector from row-echelon form)."""
    imat: list[list[int]] = []
    for r in rows:
        den = 1
        for x in r:
            f = Fraction(x)
            den = den * f.denominator // gcd(den, f.denominator)
        ir = [int(Fraction(x) * den) for x in r]
        if any(ir):
            imat.append(_row_normalize(ir))
    piv_cols: list[int] = []
    piv_rows: list[list[int]] = []
    for row in imat:
        row = row[:]
        for pc, pr in zip(piv_cols, piv_rows):
            if row[pc]:
                f, lead = row[pc], pr[pc]
                row = [lead * x - f * y for x, y in zip(row, pr)]
                row = _row_normalize(row)
        lead_col = next((c for c in range(ncols) if row[c]), None)
        if lead_col is None:
            continue
        # back-substitute into existing pivots to keep reduced form
        for idx, (pc, pr) in enumerate(zip(piv_cols, piv_rows)):
            if pr[lead_col]:
                f, lead = pr[lead_col], row[lead_col]
                newr = [lead * x - f * y for x, y in zip(pr, row)]
                piv_rows[idx] = _row_normalize(newr)
        piv_cols.append(lead_col)
        piv_rows.append(row)
    order = sorted(range(len(piv_cols)), key=lambda i: piv_cols[i])
    piv_cols = [piv_cols[i] for i in order]
    piv_rows = [piv_rows[i] for i in order]
    free_cols = [c for c in range(ncols) if c not in piv_cols]
    out = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, pr in zip(piv_cols, piv_rows):
            v[pc] = Fraction(-pr[fc], pr[pc])
        out.append(v)
    return out


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
