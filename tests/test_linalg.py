import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import matrix_oracle as naive
from conftest import Draws
from octoverify import linalg as la
from octoverify import octonion as on
from octoverify.circ import Nom, Side, left_ops
from octoverify.clifford import _kernel_of_intertwiner_system, verify_skew_rep
from octoverify.linalg import Op
from octoverify.scalars import RATIONAL_ZERO


def test_kernel_basis_known():
    # x + y + z = 0 over 3 vars: kernel dim 2
    rows = [[Fraction(1), Fraction(1), Fraction(1)]]
    ker = la.kernel_basis(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0
    # full-rank system: trivial kernel
    rows = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert la.kernel_basis(rows, 2) == []


def test_kernel_members_annihilate():
    rng = Draws(21)
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(3)]
    ker = la.kernel_basis(rows, 6)
    assert len(ker) >= 3
    for v in ker:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_random_rational_orthogonal():
    # the A-system conjugates that the clifford tests draw
    rng = Draws(33)
    for n in (4, 8):
        m = rng.orthogonal(n)
        assert m @ m.T == Op.identity(n)


def test_int_scaling_round_trip():
    m = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(0), Fraction(5, 6)]]
    op = Op.of(m)
    assert op.den == 6 and op.rows == [{0: 3, 1: -2}, {1: 5}]
    assert naive.dense(op) == m
    a = Op.of([[1, 2], [3, 4]])
    assert (a @ a).den == 1 and (a @ a).rows == [{0: 7, 1: 10}, {0: 15, 1: 22}]


def test_mat_helpers():
    a = Op.identity(3)
    assert a.apply([Fraction(1), Fraction(2), Fraction(3)]) == [1, 2, 3]
    assert a - a == Op.of(naive.zeros(3))
    assert (Fraction(-7) * a).max_abs() == 7
    assert (Fraction(-7) * a).scalar() == -7 and Op.of([[1, 1], [0, 1]]).scalar() is None


# ---------------------------------------------------------------------------
# exact ingress: floats are refused, not expanded into binary fractions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.5, 0.0, True, "1"])
def test_exact_kernels_refuse_non_rational_entries(bad):
    with pytest.raises(TypeError):
        Op.of([[Fraction(1), bad]])
    with pytest.raises(TypeError):
        Op.identity(2).apply([Fraction(1), bad])
    with pytest.raises(TypeError):
        Op.identity(2) * bad
    with pytest.raises(TypeError):
        la.kernel_basis([[Fraction(1), bad]], 2)
    with pytest.raises(TypeError):
        la.kernel_basis([{1: bad}], 2)


def test_skew_rep_of_a_float_multiplication_raises():
    # used to report an "exact" residual of 8197162715609251/2^106 after
    # expanding the binary floats of cos 0.8 and sin 0.8
    alpha = (math.cos(0.8), 0.0, 0.0, 0.0, math.sin(0.8), 0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        verify_skew_rep(left_ops(Nom(Side.LEFT, alpha)))


# ---------------------------------------------------------------------------
# kernel_basis against sympy's nullspace (same normalization: 1 at each free
# column, the negated reduced row-echelon entries at the pivots)
# ---------------------------------------------------------------------------


# zero is drawn more often than any other value, so rows come out sparse and
# kernels nontrivial
entries = st.one_of(st.just(0), st.just(0), st.integers(-4, 4), st.fractions(min_value=-5, max_value=5, max_denominator=6))


def matrices():
    return st.integers(1, 7).flatmap(
        lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=0, max_size=7).map(
            lambda rows: (rows, ncols)
        )
    )


def _sympy_nullspace(rows, ncols):
    sympy = pytest.importorskip("sympy")
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, r)] for r in rows])
    return [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_matches_sympy_nullspace(m):
    rows, ncols = m
    want = _sympy_nullspace(rows, ncols)
    assert la.kernel_basis(rows, ncols) == want
    dict_rows = [{c: x for c, x in enumerate(r) if x} for r in rows]
    assert la.kernel_basis(dict_rows, ncols) == want


def test_kernel_basis_ignores_row_order_and_scale():
    rng = Draws(5)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(9)] for _ in range(5)]
    ker = la.kernel_basis(rows, 9)
    scaled = [[Fraction(-7, 3) * x for x in r] for r in reversed(rows)]
    assert la.kernel_basis(scaled + rows[:2], 9) == ker


# ---------------------------------------------------------------------------
# the sparse int intertwiner system against its dense Fraction construction
# ---------------------------------------------------------------------------


def _dense_intertwiner_rows(rep1, rep2):
    """The rows of O A - B O = 0 as dense Fraction rows (the construction the
    sparse int rows replaced)."""
    n = rep1[0].ncols
    rows = []
    for A, B in zip(map(naive.dense, rep1), map(naive.dense, rep2)):
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += A[k][j]
                    row[k * n + j] -= B[i][k]
                rows.append(row)
    return rows


def _intertwiner_pairs(n):
    j = on.j_generators(n)
    jp = on.j_prime_generators(n)
    # the normalize_a_system witness of a seeded A-system o J_a
    o = Draws(17).orthogonal(n)
    a_sys = [o @ m for m in j]
    q0 = a_sys[-1].T
    witness = [a @ q0 for a in a_sys[:-1]]
    jjm = [m @ j[-1] for m in j[:-1]]
    return {"j/j": (j, j), "j/j'": (j, jp), "witness": (jjm, witness)}


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("case", ["j/j", "j/j'", "witness"])
def test_intertwiner_kernel_matches_dense_construction(n, case):
    rep1, rep2 = _intertwiner_pairs(n)[case]
    got = _kernel_of_intertwiner_system(rep1, rep2)
    assert got == la.kernel_basis(_dense_intertwiner_rows(rep1, rep2), n * n)
    # the commutant of the irreducible pair: right quaternion multiplications
    # (dimension 4) for n = 4, the scalars for n = 8; nothing for J vs J'
    assert len(got) == (0 if case == "j/j'" else 4 if n == 4 else 1)


# ---------------------------------------------------------------------------
# Op against the naive triple-loop Fraction oracle
# ---------------------------------------------------------------------------


def _canonical(op):
    """Assert the canonical form: int entries, no stored zeros, columns in
    range, gcd(den, *entries) == 1 and den == 1 for the zero matrix."""
    entries = [x for row in op.rows for x in row.values()]
    assert op.den > 0 and all(type(x) is int and x for x in entries)
    assert all(0 <= c < op.ncols for row in op.rows for c in row)
    assert math.gcd(op.den, *entries) == 1
    return op


def dense_matrices(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


dims = st.integers(1, 5)
same_shape_pairs = st.tuples(dims, dims).flatmap(lambda s: st.tuples(dense_matrices(*s), dense_matrices(*s)))
chained_pairs = st.tuples(dims, dims, dims).flatmap(lambda s: st.tuples(dense_matrices(s[0], s[1]), dense_matrices(s[1], s[2])))
scalars_ = st.one_of(st.just(0), st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=9))
OPS = settings(max_examples=80, deadline=None)


@OPS
@given(chained_pairs)
def test_op_matmul_matches_naive(ab):
    a, b = ab
    got = _canonical(Op.of(a) @ Op.of(b))
    assert naive.dense(got) == naive.mul(a, b)


@OPS
@given(same_shape_pairs)
def test_op_add_sub_neg_transpose_match_naive(ab):
    a, b = ab
    x, y = _canonical(Op.of(a)), _canonical(Op.of(b))
    assert naive.dense(x) == [[Fraction(v) for v in row] for row in a]
    assert naive.dense(_canonical(x + y)) == naive.add(a, b)
    assert naive.dense(_canonical(x - y)) == naive.sub(a, b)
    assert naive.dense(_canonical(-x)) == naive.neg(a)
    assert naive.dense(_canonical(x.T)) == naive.transpose(a)
    assert x.T.T == x


@OPS
@given(st.tuples(dims, dims).flatmap(lambda s: dense_matrices(*s)), scalars_)
def test_op_scalar_multiple_and_max_abs_match_naive(a, k):
    x = Op.of(a)
    assert naive.dense(_canonical(k * x)) == naive.scale(k, a) == naive.dense(_canonical(x * k))
    assert x.max_abs() == naive.max_abs(a) and type(x.max_abs()) is Fraction


@OPS
@given(st.tuples(dims, dims).flatmap(lambda s: st.tuples(dense_matrices(*s), st.lists(entries, min_size=s[1], max_size=s[1]))))
def test_op_apply_matches_naive_with_fraction_slots(av):
    a, v = av
    got = Op.of(a).apply(v)
    assert got == naive.mat_vec(a, v)
    assert all(type(c) is Fraction for c in got)
    assert all(c is RATIONAL_ZERO for c in got if not c)


@OPS
@given(same_shape_pairs, st.booleans())
def test_op_equality_is_dense_equality(ab, copy):
    a, b = ab
    if copy:
        # the same values written differently: ints as Fractions and back
        b = [[Fraction(x) for x in row] for row in a]
    want = [[Fraction(x) for x in row] for row in a] == [[Fraction(x) for x in row] for row in b]
    assert (Op.of(a) == Op.of(b)) == want
    # the same matrix reached through arithmetic compares equal
    x = Op.of(a)
    assert (x + x) * Fraction(1, 2) == x == x - Op.of(b) + Op.of(b)


@OPS
@given(st.integers(2, 5), scalars_, st.integers(0, 24), st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))
def test_op_scalar_reads_multiples_of_identity(n, lam, at, delta):
    # n >= 2: an edit of a 1 x 1 matrix leaves a multiple of the identity
    x = lam * Op.identity(n)
    assert x.scalar() == lam
    edited = naive.dense(x)
    edited[at % n][(at // n) % n] += delta
    assert Op.of(edited).scalar() is None
    assert Op.of([row + [Fraction(0)] for row in naive.dense(x)]).scalar() is None  # not square


def test_op_of_passes_an_op_through_and_checks_shapes():
    x = Op.of([[Fraction(1, 2), 0], [0, 1]])
    assert Op.of(x) is x
    with pytest.raises(ValueError):
        Op.of([[1, 2], [3]])
    with pytest.raises(ValueError):
        x @ Op.of([[1, 2]])
    with pytest.raises(ValueError):
        x + Op.of([[1, 2]])
    with pytest.raises(TypeError):
        x @ [[1, 0], [0, 1]]


block_grids = st.tuples(dims, dims, dims, dims).flatmap(
    lambda s: st.tuples(
        st.tuples(dense_matrices(s[0], s[2]), dense_matrices(s[0], s[3]), dense_matrices(s[1], s[2]), dense_matrices(s[1], s[3])),
        st.booleans(),
        st.booleans(),
    )
)


@OPS
@given(block_grids)
def test_op_blocks_match_the_dense_assembly(grid):
    (a, b, c, d), keep_b, keep_c = grid
    # the diagonal blocks fix every size; an off-diagonal None is a zero block
    b = b if keep_b else [[0] * len(b[0]) for _ in b]
    c = c if keep_c else [[0] * len(c[0]) for _ in c]
    got = _canonical(
        Op.blocks([[Op.of(a), Op.of(b) if keep_b else None], [Op.of(c) if keep_c else None, Op.of(d)]])
    )
    want = [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]
    assert naive.dense(got) == [[Fraction(x) for x in row] for row in want]


def test_op_blocks_check_that_the_blocks_line_up():
    i2, i3 = Op.identity(2), Op.identity(3)
    assert Op.blocks([[i2, None], [None, -i3]]) == Op.of([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]] + [[0, 0] + [-int(j == k) for j in range(3)] for k in range(3)])
    with pytest.raises(ValueError):
        Op.blocks([[i2, i3], [None, i3]])  # block row 0: heights 2 and 3
    with pytest.raises(ValueError):
        Op.blocks([[i2, None], [i3, i3]])  # block column 0: widths 2 and 3


def test_op_blocks_reject_a_ragged_grid():
    i = Op.identity(2)
    with pytest.raises(ValueError, match="block rows"):
        Op.blocks([[i, None], [None, i, i]])  # a third block in row 1 would be dropped
    with pytest.raises(ValueError, match="block rows"):
        Op.blocks([[i, i], [i]])  # the missing block would read as zero
