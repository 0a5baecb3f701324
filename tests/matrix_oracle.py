"""Naive dense ``Fraction`` matrices: the triple-loop oracle that the tests
hold ``linalg.Op`` and the matrix verifiers to, ``table_entries``, the dense
values of a product table, and ``signed_pairs``, its signed-permutation
form.  Nothing here skips a zero or
scales to ints."""

from fractions import Fraction


def dense(op) -> list:
    """The entries of an ``Op`` as dense Fraction rows."""
    return [[Fraction(row.get(c, 0), op.den) for c in range(op.ncols)] for row in op.rows]


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int | None = None) -> list:
    return [[Fraction(0)] * (n if m is None else m) for _ in range(n)]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def mul(a: list, b: list) -> list:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a: list, v: list) -> list:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(s, a: list) -> list:
    return [[s * x for x in row] for row in a]


def neg(a: list) -> list:
    return [[-x for x in row] for row in a]


def max_abs(a: list) -> Fraction:
    return max((abs(Fraction(x)) for row in a for x in row), default=Fraction(0))


def table_entries(table) -> list:
    """entries[a][b]: the coordinates of e_a e_b in a ``ProductTable``, as
    Fractions."""
    den, rows = table.sparse
    out = []
    for row in rows:
        out.append([])
        for pairs in row:
            v = [Fraction(0)] * len(rows)
            for k, w in pairs:
                v[k] = Fraction(w, den)
            out[-1].append(tuple(v))
    return out


def signed_pairs(table) -> list | None:
    """The (sign, index) form of a ``ProductTable`` whose every entry e_a e_b
    is a signed basis vector, else None."""
    out = []
    for row in table_entries(table):
        orow = []
        for v in row:
            nz = [(k, c) for k, c in enumerate(v) if c != 0]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                return None
            orow.append((1 if nz[0][1] > 0 else -1, nz[0][0]))
        out.append(orow)
    return out
