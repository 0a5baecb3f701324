import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from octoverify import octonion as on
from octoverify.circ import (
    Nom,
    Side,
    circ,
    circ_definition,
    comparison_check,
    cos_sin_2theta,
    left_ops,
    make_nom,
    nom_from_sharp_blocks,
    nom_from_t,
    right_ops,
    theta_axis,
    verify_normalized,
)
from matrix_oracle import dense, signed_pairs, table_entries
from octoverify.clifford import verify_skew_rep
from octoverify.poly import MultiPoly
from conftest import Draws

E = [on.basis(i) for i in range(8)]


def test_circ_endpoint_values():
    left = nom_from_t(Side.LEFT, Fraction(0))
    right = nom_from_t(Side.RIGHT, Fraction(0))
    assert circ(left, E[1], E[2]) == E[3]
    assert circ(right, E[1], E[2]) == on.neg(E[3])  # e_2 e_1 = -e_3


def test_circ_pythagorean_value():
    # alpha = (3/5) e_0 + (4/5) e_4: e_1 o e_2 = (-7/25) e_3 + (24/25) e_7,
    # matching cos(2 theta) ab + sin(2 theta)(ab)e with cos = -7/25, sin = 24/25
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    got = circ(nom, E[1], E[2])
    want = on.add(on.scale(Fraction(-7, 25), E[3]), on.scale(Fraction(24, 25), E[7]))
    assert got == want
    c2, s2 = cos_sin_2theta(nom)
    assert (c2, s2) == (Fraction(-7, 25), Fraction(24, 25))


def test_circ_bilinear_and_normalized():
    nom = nom_from_t(Side.LEFT, Fraction(1, 3))
    rng = Draws(41)
    for _ in range(50):
        x = tuple(rng.rational(5) for _ in range(8))
        y = tuple(rng.rational(5) for _ in range(8))
        assert on.norm_sq(circ(nom, x, y)) == on.norm_sq(x) * on.norm_sq(y)
        assert circ(nom, E[0], y) == y
        assert circ(nom, x, E[0]) == x


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 2), Fraction(2, 7)])
def test_verify_normalized_passes(side, t):
    nom = nom_from_t(side, t)
    assert verify_normalized(nom).passed


def test_verify_normalized_rejects_scaled_alpha():
    # raw constructor bypasses validation on purpose
    broken = Nom(Side.LEFT, on.scale(Fraction(2), E[0]))
    assert verify_normalized(broken).failing() == ["norm_multiplicativity", "e0_left_identity", "left_ops_skew_clifford"]
    with pytest.raises(ValueError):
        make_nom(Side.LEFT, on.scale(Fraction(2), E[0]))


def test_verify_normalized_quaternionic():
    nom = nom_from_t(Side.LEFT, Fraction(0), axis=1, dim=4)
    assert verify_normalized(nom).passed


def test_theta_axis():
    ta = theta_axis(E[0])
    assert ta.degenerate and (ta.c, ta.s) == (1, 0) and ta.axis == E[1]
    ta = theta_axis(on.add(on.scale(Fraction(3, 5), E[0]), on.scale(Fraction(4, 5), E[4])))
    assert (ta.c, ta.s) == (Fraction(3, 5), Fraction(4, 5)) and ta.axis == E[4]
    ta = theta_axis(E[2])
    assert (ta.c, ta.s) == (0, 1) and ta.axis == E[2]
    with pytest.raises(ValueError):
        theta_axis(on.scale(Fraction(2), E[0]))
    with pytest.raises(ValueError):
        # unit alpha whose imaginary part has irrational norm sqrt(3)/2
        theta_axis((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0), Fraction(0)))


def test_left_ops_are_skew_rep():
    for t in (Fraction(0), Fraction(1, 2)):
        for side in (Side.LEFT, Side.RIGHT):
            assert verify_skew_rep(left_ops(nom_from_t(side, t))).passed


def test_nom_from_sharp_blocks_octonion_tables():
    j = [on.left_mult_matrix(E[i]) for i in range(1, 8)]
    table = nom_from_sharp_blocks(j)
    for a in range(8):
        for b in range(8):
            assert table_entries(table)[a][b] == on.multiply(E[a], E[b])
    jp = [on.right_mult_matrix(E[i]) for i in range(1, 8)]
    table = nom_from_sharp_blocks(jp)
    for a in range(8):
        for b in range(8):
            assert table_entries(table)[a][b] == on.multiply(E[b], E[a])


def test_nom_from_sharp_blocks_round_trip():
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    rebuilt = nom_from_sharp_blocks(left_ops(nom))
    assert rebuilt == nom.table
    assert table_entries(rebuilt) == table_entries(nom.table)
    assert signed_pairs(rebuilt) is None  # generic alpha is not a signed table
    t0 = nom_from_t(Side.LEFT, Fraction(0)).table
    pairs = signed_pairs(t0)
    assert pairs is not None and pairs[1][2] == (1, 3)


def test_nom_from_sharp_blocks_preconditions():
    j = [on.left_mult_matrix(E[i]) for i in range(1, 8)]
    bad = [m for m in j]
    bad[0] = bad[0] * 2
    with pytest.raises(ValueError):
        nom_from_sharp_blocks(bad)
    swapped = [j[1], j[0]] + j[2:]  # A#_1(e_0) = e_2 != e_1
    with pytest.raises(ValueError, match="e_"):
        nom_from_sharp_blocks(swapped)


def test_comparison_check_branches():
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    # {e_1, e_2, e_3} all perpendicular to the axis e_4
    assert comparison_check(nom, E[1], E[2]).passed
    # ab parallel to the axis: a o b = ab
    nom3 = make_nom(Side.LEFT, on.add(on.scale(Fraction(3, 5), E[0]), on.scale(Fraction(4, 5), E[3])))
    rep = comparison_check(nom3, E[1], E[2])
    assert rep.passed and rep.checks[0].name == "parallel_branch_ab"
    assert circ(nom3, E[1], E[2]) == E[3]
    # neither branch: error
    with pytest.raises(ValueError, match="not covered"):
        comparison_check(nom3, E[1], E[3])
    with pytest.raises(ValueError):
        comparison_check(nom3, E[1], on.scale(Fraction(2), E[2]))
    with pytest.raises(ValueError):
        comparison_check(nom_from_t(Side.RIGHT, Fraction(1, 2)), E[1], E[2])


def test_circ_exchange_identities():
    rng = Draws(43)
    for t in (Fraction(0), Fraction(1, 2)):
        for side in (Side.LEFT, Side.RIGHT):
            nom = nom_from_t(side, t)
            for _ in range(60):
                x = tuple(rng.rational(4) for _ in range(8))
                y = tuple(rng.rational(4) for _ in range(8))
                z = tuple(rng.rational(4) for _ in range(8))
                assert on.inner(circ(nom, x, y), z) == on.inner(y, circ(nom, on.conjugate(x), z))
                assert on.inner(circ(nom, x, y), z) == on.inner(x, circ(nom, z, on.conjugate(y)))
                lhs = on.add(
                    circ(nom, x, circ(nom, on.conjugate(y), z)),
                    circ(nom, y, circ(nom, on.conjugate(x), z)),
                )
                assert lhs == on.scale(2 * on.inner(x, y), z)


def test_quaternionic_restriction():
    rng = Draws(44)
    # alpha inside the quaternion span: restriction to H is xy or yx
    for side, t in ((Side.LEFT, Fraction(2, 5)), (Side.RIGHT, Fraction(2, 5))):
        nom = nom_from_t(side, t, axis=2)
        for _ in range(80):
            x = tuple([rng.rational(4) for _ in range(4)] + [Fraction(0)] * 4)
            y = tuple([rng.rational(4) for _ in range(4)] + [Fraction(0)] * 4)
            want = on.multiply(x, y) if side is Side.LEFT else on.multiply(y, x)
            assert circ(nom, x, y) == want


# ---------------------------------------------------------------------------
# the cached table against the three-product definition
# ---------------------------------------------------------------------------

PROPS = settings(max_examples=40, deadline=None)
NV = 4
sides = st.sampled_from([Side.LEFT, Side.RIGHT])
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def noms(draw):
    """A Pythagorean nom on H or O with a random axis."""
    dim = draw(st.sampled_from([4, 8]))
    t = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
    return nom_from_t(draw(sides), t, axis=draw(st.integers(1, dim - 1)), dim=dim)


def _coord(draw, kind):
    if kind == "int":
        return draw(st.integers(-4, 4))
    c = draw(st.one_of(st.just(Fraction(0)), fractions))
    if kind == "mixed" and draw(st.booleans()):
        return c * MultiPoly.variable(NV, draw(st.integers(0, NV - 1))) + draw(fractions)
    return c


@st.composite
def operands(draw, dim):
    """Fraction, all-int, or mixed Fraction/MultiPoly coordinates, or a
    scaled basis vector."""
    kind = draw(st.sampled_from(["fraction", "int", "mixed", "basis"]))
    if kind == "basis":
        out = [Fraction(0)] * dim
        out[draw(st.integers(0, dim - 1))] = draw(st.one_of(st.integers(-3, 3), fractions).filter(bool))
        return tuple(out)
    return tuple(_coord(draw, kind) for _ in range(dim))


def _same(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@PROPS
@given(noms(), st.data())
def test_table_circ_matches_definition(nom, data):
    x = data.draw(operands(nom.dim))
    y = data.draw(operands(nom.dim))
    _same(circ(nom, x, y), circ_definition(nom, x, y))
    # a bare non-unit nom gets its own table
    scaled = Nom(nom.side, tuple(2 * c for c in nom.alpha))
    _same(circ(scaled, x, y), circ_definition(scaled, x, y))


@PROPS
@given(st.floats(-3.5, 3.5), sides, st.lists(st.floats(-2, 2), min_size=16, max_size=16))
def test_float_alpha_keeps_the_definition(theta, side, values):
    alpha = [0.0] * 8
    alpha[0], alpha[4] = math.cos(theta), math.sin(theta)
    nom = Nom(side, tuple(alpha))
    x, y = tuple(values[:8]), tuple(values[8:])
    assert circ(nom, x, y) == circ_definition(nom, x, y)
    assert circ(nom, E[0], x) == circ_definition(nom, E[0], x)
    # the table and the operators are exact, so a float nom is refused there
    # (float mode builds U_a from the definition)
    with pytest.raises(TypeError):
        nom.table
    with pytest.raises(TypeError):
        left_ops(nom)


@PROPS
@given(sides, st.sampled_from([(4, 1), (8, 1), (8, 4)]), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_int_built_table_is_the_definition_on_fraction_basis_vectors(side, dim_axis, t):
    dim, axis = dim_axis
    nom = nom_from_t(side, t, axis=axis, dim=dim)
    basis = [on.basis(i, dim) for i in range(dim)]
    want = [[circ_definition(nom, x, y) for y in basis] for x in basis]
    assert table_entries(nom.table) == want
    # the same alpha in floats stays on the definition, which agrees
    fnom = Nom(side, tuple(float(c) for c in nom.alpha))
    for x, row in zip(basis, want):
        for y, v in zip(basis, row):
            got = circ(fnom, x, y)
            assert got == circ_definition(fnom, x, y)
            assert all(type(g) is float and abs(g - w) < 1e-12 for g, w in zip(got, v))


def test_circ_dimension_mismatch_raises():
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    for x, y in ((on.basis(1, 4), E[2]), (E[1], on.basis(2, 4)), (E[1], E[2] + (Fraction(0),))):
        with pytest.raises(ValueError):
            circ(nom, x, y)


def test_table_is_lazy_and_sparse():
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    assert "table" not in vars(nom)
    circ(nom, E[1], E[2])
    assert "table" in vars(nom)
    den, rows = nom.table.sparse
    assert den == 25 and sum(len(e) for row in rows for e in row) == 88
    for side in (Side.LEFT, Side.RIGHT):
        endpoint = nom_from_t(side, Fraction(0)).table
        assert endpoint.sparse[0] == 1 and signed_pairs(endpoint) is not None


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_operators_read_the_table(side):
    nom = nom_from_t(side, Fraction(1, 2))
    for ops, pair in ((left_ops(nom), lambda a, b: (E[a], E[b])), (right_ops(nom), lambda a, b: (E[b], E[a]))):
        for a in range(1, 8):
            m = dense(ops[a - 1])
            for b in range(8):
                assert [m[r][b] for r in range(8)] == list(circ_definition(nom, *pair(a, b)))


@PROPS
@given(noms(), st.data())
def test_norm_and_exchange_defects_vanish_for_the_product_and_every_nom(nom, data):
    x, y, z = (data.draw(st.tuples(*[fractions] * nom.dim)) for _ in range(3))
    for mul in (on.multiply, partial(circ, nom)):
        assert on.norm_defect(mul, x, y) == 0
        assert not any(on.exchange_defects(mul, x, y, z))
