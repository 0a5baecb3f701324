from fractions import Fraction

import pytest
from matrix_oracle import dense, signed_pairs
from octoverify import octonion as on
from octoverify.circ import Nom, Side, left_ops, right_ops
from octoverify.linalg import Op
from octoverify.octonion import cayley_dickson_multiply
from conftest import Draws

E = [on.basis(i) for i in range(8)]


def rand_oct(rng, dim=8, bound=6):
    return tuple(rng.rational(bound) for _ in range(dim))


def test_table_matches_cayley_dickson_oracle():
    for i in range(8):
        for j in range(8):
            assert on.multiply(E[i], E[j]) == cayley_dickson_multiply(E[i], E[j])


def test_mult_table_invariants():
    # every entry is a signed basis vector; row 0 and column 0 are the
    # identity, and every row and column is a signed permutation
    for dim in (4, 8):
        pairs = signed_pairs(on.PRODUCT_TABLES[dim])
        assert pairs is not None
        assert pairs[0] == [(1, b) for b in range(dim)]
        assert [row[0] for row in pairs] == [(1, a) for a in range(dim)]
        for i in range(dim):
            assert sorted(k for _, k in pairs[i]) == list(range(dim))
            assert sorted(pairs[r][i][1] for r in range(dim)) == list(range(dim))
    assert on.PRODUCT_TABLES[8].sparse[0] == 1
    assert all(type(w) is int for row in on.PRODUCT_TABLES[8].sparse[1] for pairs in row for _, w in pairs)


def test_multiply_refuses_unsupported_shapes():
    for x, y in (((Fraction(1),) * 3, (Fraction(1),) * 3), (E[1], E[2][:4]), (E[1][:4], E[2])):
        with pytest.raises(ValueError):
            on.multiply(x, y)
    with pytest.raises(ValueError):
        on.j_generators(3)


@pytest.mark.parametrize("dim", [4, 8])
def test_generators_are_the_endpoint_nom_operators(dim):
    nom = Nom(Side.LEFT, on.basis(0, dim))
    assert on.j_generators(dim) == left_ops(nom)
    assert on.j_prime_generators(dim) == right_ops(nom)
    assert on.j_generators(dim) == [on.left_mult_matrix(on.basis(a, dim)) for a in range(1, dim)]
    assert on.j_prime_generators(dim) == [on.right_mult_matrix(on.basis(a, dim)) for a in range(1, dim)]


def test_identity_element():
    rng = Draws(2)
    for _ in range(20):
        x = rand_oct(rng)
        assert on.multiply(E[0], x) == x
        assert on.multiply(x, E[0]) == x


def test_basis_products():
    assert on.multiply(E[1], E[2]) == E[3]  # ij = k
    assert on.multiply(E[1], E[4]) == E[5]
    assert on.multiply(E[4], E[1]) == on.neg(E[5])


def test_conjugate():
    assert on.conjugate(E[0]) == E[0]
    assert on.conjugate(E[3]) == on.neg(E[3])
    x = on.add(E[0], E[1])
    assert on.conjugate(x) == on.sub(E[0], E[1])


def test_inner_is_coordinate_dot_and_product_formula():
    for i in range(8):
        for j in range(8):
            assert on.inner(E[i], E[j]) == (1 if i == j else 0)
    rng = Draws(4)
    for _ in range(100):
        x, y = rand_oct(rng), rand_oct(rng)
        via_product = on.scale(
            Fraction(1, 2),
            on.add(on.multiply(x, on.conjugate(y)), on.multiply(y, on.conjugate(x))),
        )
        assert via_product == on.scale(on.inner(x, y), E[0])


def test_exchange_identities():
    rng = Draws(5)
    for _ in range(300):
        x, y, z = rand_oct(rng), rand_oct(rng), rand_oct(rng)
        assert on.inner(on.conjugate(x), on.conjugate(y)) == on.inner(x, y)
        assert on.inner(on.multiply(x, y), z) == on.inner(y, on.multiply(on.conjugate(x), z))
        assert on.inner(on.multiply(x, y), z) == on.inner(x, on.multiply(z, on.conjugate(y)))
        lhs = on.add(
            on.multiply(x, on.multiply(on.conjugate(y), z)),
            on.multiply(y, on.multiply(on.conjugate(x), z)),
        )
        mid = on.add(
            on.multiply(on.multiply(z, x), on.conjugate(y)),
            on.multiply(on.multiply(z, y), on.conjugate(x)),
        )
        assert lhs == on.scale(2 * on.inner(x, y), z)
        assert mid == on.scale(2 * on.inner(x, y), z)


def test_perpendicular_imaginary_rules():
    rng = Draws(6)
    for _ in range(100):
        x = (Fraction(0),) + rand_oct(rng, 7)
        y0 = (Fraction(0),) + rand_oct(rng, 7)
        n2 = on.norm_sq(x)
        if n2 == 0:
            continue
        y = on.sub(y0, on.scale(on.inner(x, y0) / n2, x))
        z = rand_oct(rng)
        assert on.multiply(x, y) == on.neg(on.multiply(y, x))
        assert on.multiply(x, on.multiply(y, z)) == on.neg(on.multiply(y, on.multiply(x, z)))
        assert on.multiply(on.multiply(z, x), y) == on.neg(on.multiply(on.multiply(z, y), x))


def test_norm_multiplicativity():
    rng = Draws(7)
    for _ in range(1000):
        x, y = rand_oct(rng), rand_oct(rng)
        assert on.norm_sq(on.multiply(x, y)) == on.norm_sq(x) * on.norm_sq(y)


def test_mult_matrices():
    ident = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    assert dense(on.left_mult_matrix(E[0])) == ident
    col0 = [row[0] for row in dense(on.left_mult_matrix(E[1]))]
    assert tuple(col0) == E[1]
    rng = Draws(8)
    u, z = rand_oct(rng), rand_oct(rng)
    assert tuple(on.left_mult_matrix(u).apply(z)) == on.multiply(u, z)
    assert tuple(on.right_mult_matrix(u).apply(z)) == on.multiply(z, u)
    # linearity in u
    v = rand_oct(rng)
    lu = dense(on.left_mult_matrix(u))
    lv = dense(on.left_mult_matrix(v))
    luv = dense(on.left_mult_matrix(on.add(u, v)))
    assert luv == [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(lu, lv)]


def test_j_matrices_orthogonal_square_minus_id():
    for i in range(1, 8):
        j = on.left_mult_matrix(E[i])
        assert j @ j.T == Op.identity(8)
        assert j @ j == -Op.identity(8)


def test_clifford_relations_and_volume_signs():
    j = on.j_generators()
    jp = on.j_prime_generators()
    for fam in (j, jp):
        for a in range(7):
            for b in range(7):
                tot = fam[a] @ fam[b] + fam[b] @ fam[a]
                assert tot == (-2 if a == b else 0) * Op.identity(8)
    prod = Op.identity(8)
    for m in j:
        prod = prod @ m
    assert prod == -Op.identity(8)
    prod = Op.identity(8)
    for m in jp:
        prod = prod @ m
    assert prod == Op.identity(8)
    # quaternionic volume: J_1 J_2 J_3 = -Id on R^4
    prod = Op.identity(4)
    for m in on.j_generators(4):
        prod = prod @ m
    assert prod == -Op.identity(4)


def test_quaternion_subspan():
    rng = Draws(9)
    for _ in range(200):
        x = rand_oct(rng, 4) + (Fraction(0),) * 4
        y = rand_oct(rng, 4) + (Fraction(0),) * 4
        z = rand_oct(rng, 4) + (Fraction(0),) * 4
        p = on.multiply(x, y)
        assert all(c == 0 for c in p[4:])
        assert on.multiply(on.multiply(x, y), z) == on.multiply(x, on.multiply(y, z))


@pytest.mark.parametrize("op", [on.add, on.sub, on.inner, on.multiply])
def test_vector_ops_refuse_unequal_lengths(op):
    for x, y in ((E[1], on.basis(1, 4)), (on.basis(1, 4), E[1]), (E[1], ())):
        with pytest.raises(ValueError):
            op(x, y)


def test_defects_do_not_vanish_for_a_non_orthogonal_product():
    # the coordinatewise product is bilinear but neither orthogonal nor
    # exchange-symmetric
    def hadamard(x, y):
        return tuple(a * b for a, b in zip(x, y))

    assert on.norm_defect(hadamard, E[1], E[2]) == -1
    assert any(on.exchange_defects(hadamard, E[1], E[1], E[1]))
    rng = Draws(0)
    x, y, z = (rand_oct(rng, bound=5) for _ in range(3))
    assert on.norm_defect(hadamard, x, y) != 0
    assert any(on.exchange_defects(hadamard, x, y, z))
    assert on.norm_defect(on.multiply, x, y) == 0 and not any(on.exchange_defects(on.multiply, x, y, z))
