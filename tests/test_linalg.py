import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoverify import linalg as la
from octoverify import octonion as on
from octoverify.circ import Nom, Side, left_ops
from octoverify.clifford import _kernel_of_intertwiner_system, verify_skew_rep
from octoverify.scalars import DeterministicRng


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
    rng = DeterministicRng(21)
    rows = [[Fraction(rng.next_int(-4, 4)) for _ in range(6)] for _ in range(3)]
    ker = la.kernel_basis(rows, 6)
    assert len(ker) >= 3
    for v in ker:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_random_rational_orthogonal():
    rng = DeterministicRng(33)
    for n in (4, 8):
        m = la.random_rational_orthogonal(rng, n)
        assert la.mat_mul(m, la.transpose(m)) == la.identity(n)


def test_int_scaling_round_trip():
    m = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(0), Fraction(5, 6)]]
    den, im = la.to_int_scaled(m)
    assert den == 6
    assert [[Fraction(x, den) for x in row] for row in im] == m
    a = [[1, 2], [3, 4]]
    assert la.int_mat_mul(a, a) == [[7, 10], [15, 22]]


def test_mat_helpers():
    a = la.identity(3)
    assert la.mat_vec(a, [Fraction(1), Fraction(2), Fraction(3)]) == [1, 2, 3]
    assert la.mat_sub(a, a) == la.zeros(3)
    assert la.max_abs(la.mat_scale(Fraction(-7), a)) == 7


def test_to_int_scaled_shared_splits_back():
    a = [[Fraction(1, 2), 0], [Fraction(0), 3]]
    b = [[Fraction(2, 3)]]
    den, (ia, ib) = la.to_int_scaled_shared([a, b])
    assert den == 6
    assert ia == [[3, 0], [0, 18]] and ib == [[4]]


# ---------------------------------------------------------------------------
# exact ingress: floats are refused, not expanded into binary fractions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.5, 0.0, True, "1"])
def test_exact_kernels_refuse_non_rational_entries(bad):
    with pytest.raises(TypeError):
        la.to_int_scaled([[Fraction(1), bad]])
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
    rng = DeterministicRng(5)
    rows = [[Fraction(rng.next_int(-3, 3), rng.next_int(1, 4)) for _ in range(9)] for _ in range(5)]
    ker = la.kernel_basis(rows, 9)
    scaled = [[Fraction(-7, 3) * x for x in r] for r in reversed(rows)]
    assert la.kernel_basis(scaled + rows[:2], 9) == ker


# ---------------------------------------------------------------------------
# the sparse int intertwiner system against its dense Fraction construction
# ---------------------------------------------------------------------------


def _dense_intertwiner_rows(rep1, rep2):
    """The rows of O A - B O = 0 as dense Fraction rows (the construction the
    sparse int rows replaced)."""
    n = len(rep1[0])
    rows = []
    for A, B in zip(rep1, rep2):
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += A[k][j]
                    row[k * n + j] -= B[i][k]
                rows.append(row)
    return rows


def _intertwiner_pairs(n):
    j, jp = on.j_generators(n), on.j_prime_generators(n)
    # the normalize_a_system witness of a seeded A-system o J_a
    o = la.random_rational_orthogonal(DeterministicRng(17).fork(n), n)
    a_sys = [la.mat_mul(o, m) for m in j]
    q0 = la.transpose(a_sys[-1])
    witness = [la.mat_mul(a, q0) for a in a_sys[:-1]]
    jjm = [la.mat_mul(m, j[-1]) for m in j[:-1]]
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
