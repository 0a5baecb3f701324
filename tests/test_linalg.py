from fractions import Fraction

from octoverify import linalg as la
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
