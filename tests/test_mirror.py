from fractions import Fraction

import pytest

from matrix_oracle import dense
from octoverify import octonion as on
from octoverify.circ import Side, left_ops, nom_from_t
from octoverify.mirror import (
    EigenDecomp,
    TrilinearTable,
    assemble_star_blocks,
    mirror_points,
    p_star,
    q_star_fkm_eval,
    q_star_ot_eval,
    sharp_from_q0,
    star_blocks_identity_check,
    trilinearity_extract,
    verify_ot_equations,
)
from octoverify.linalg import Op
from octoverify.poly import MultiPoly, monomial_key, norm_sq_poly, weighted_products
from conftest import Draws
from octoverify.identities import fkm_candidate, ot_candidate
from octoverify.systems import closed_second_form, extract_expansion_forms, fkm_formula_forms, fkm_mirror_frame

E = [on.basis(i) for i in range(8)]
ZERO = on.zero(8)


def _amb(*slots):
    return tuple(sum((list(s) for s in slots), []))


def test_mirror_points_example():
    x = _amb(ZERO, ZERO, on.neg(E[0]), ZERO)
    n0 = _amb(ZERO, E[0], ZERO, ZERO)
    mf = mirror_points(x, n0)
    assert mf.x_sharp == n0
    assert mf.x_star.coords == _amb(ZERO, E[0], on.neg(E[0]), ZERO)
    assert mf.x_star.half == -1
    assert mf.x_star.norm_sq() == 1
    assert mf.n0_star.norm_sq() == 1
    assert on.inner(mf.x_star.coords, mf.n0_star.coords) == 0
    # swapping x and n0 fixes x* and negates n0*
    mf2 = mirror_points(n0, x)
    assert mf2.x_star.coords == mf.x_star.coords
    assert mf2.n0_star.coords == on.neg(mf.n0_star.coords)


def test_mirror_points_preconditions():
    with pytest.raises(ValueError):
        mirror_points(_amb(E[0], ZERO, ZERO, ZERO), _amb(E[0], ZERO, ZERO, ZERO))
    with pytest.raises(ValueError):
        mirror_points(_amb(on.scale(Fraction(2), E[0]), ZERO, ZERO, ZERO), _amb(ZERO, E[0], ZERO, ZERO))


def test_assemble_star_blocks_dimensions_and_zero_column():
    j = on.j_generators()
    b_star, c_star = assemble_star_blocks(j, j)
    assert len(b_star) == 8
    rows = dense(b_star[0])
    assert len(rows) == 7 and len(rows[0]) == 8
    # row b of sqrt2 B*_1 is row 1 (index 0) of -A_b
    assert rows == [[-x for x in dense(j[b])[0]] for b in range(7)]
    # the a-th column of B*_a vanishes, a = 1..7
    for a in range(1, 8):
        assert all(dense(b_star[a - 1])[b][a - 1] == 0 for b in range(7))
    assert star_blocks_identity_check(b_star, c_star).passed


def test_assemble_star_blocks_nontrivial_sharp():
    j = on.j_generators()
    sharp = left_ops(nom_from_t(Side.LEFT, Fraction(1, 2)))
    b_star, c_star = assemble_star_blocks(j, sharp)
    assert star_blocks_identity_check(b_star, c_star).passed
    with pytest.raises(ValueError):
        assemble_star_blocks(j[:3], sharp)


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 2)])
def test_star_blocks_identity_rejects_swapped_block(t):
    j = on.j_generators()
    b_star, c_star = assemble_star_blocks(j, left_ops(nom_from_t(Side.LEFT, t)))
    assert star_blocks_identity_check(b_star, c_star).passed
    swapped = [c_star[1], c_star[0]] + c_star[2:]
    assert not star_blocks_identity_check(b_star, swapped).passed


def test_star_blocks_identity_checks_gram_diagonal():
    # one block each, so a = b is the only pair, and the Gram matrices
    # diag(1, 1) and diag(1, 4) differ only on the diagonal
    z, one = Fraction(0), Fraction(1)
    b_star = [Op.of(((one, z), (z, one)))]
    rotated = Op.of(((z, -one), (one, z)))
    stretched = Op.of(((one, z), (z, 2 * one)))
    assert star_blocks_identity_check(b_star, [rotated]).passed
    assert not star_blocks_identity_check(b_star, [stretched]).passed


def test_p_star_values():
    nom = nom_from_t(Side.LEFT, Fraction(0))
    v = p_star(nom, EigenDecomp(E[1], ZERO, E[0]))
    assert v.p_minus1 == 1
    assert v.p_vec.coords == on.neg(E[1]) and v.p_vec.half == 1
    v = p_star(nom, EigenDecomp(ZERO, E[1], E[2]))
    assert v.p_minus1 == -1
    assert v.p_vec.coords == on.neg(E[3])  # -(e_1 e_2)
    # quaternionic restriction: same formula after forgetting the complement
    nom4 = nom_from_t(Side.LEFT, Fraction(0), axis=1, dim=4)
    e41 = on.basis(1, 4)
    e40 = on.basis(0, 4)
    z4 = on.zero(4)
    v4 = p_star(nom4, EigenDecomp(e41, z4, e40))
    assert v4.p_minus1 == 1 and v4.p_vec.coords == on.neg(e41)
    with pytest.raises(ValueError):
        EigenDecomp(E[0], ZERO, E[0])


def q_star_fkm(nom, w: EigenDecomp) -> tuple:
    """q*(W,W,W) = X(Y o Z) - Y o (XZ) at the eigen-decomposition W."""
    return q_star_fkm_eval(nom, w.x, w.y, w.z)


def q_star_ot(w: EigenDecomp) -> tuple:
    """q*(W,W,W) = (XY - YX) Z at the eigen-decomposition W."""
    return q_star_ot_eval(w.x, w.y, w.z)


def test_q_star_fkm_values():
    nom = nom_from_t(Side.LEFT, Fraction(0))
    assert q_star_fkm(nom, EigenDecomp(E[1], E[2], E[0])) == on.scale(Fraction(2), E[3])
    # extension convention: q*(e_0, Y, Z) = 0, q*(X, e_0, Z) = 0
    assert q_star_fkm_eval(nom, E[0], E[2], E[5]) == ZERO
    assert q_star_fkm_eval(nom, E[1], E[0], E[5]) == ZERO
    # quaternion right-shifted form vanishes by associativity
    nom4r = nom_from_t(Side.RIGHT, Fraction(0), axis=1, dim=4)
    rng = Draws(71)
    for _ in range(40):
        x = tuple([Fraction(0)] + [rng.rational(4) for _ in range(3)])
        y = tuple([Fraction(0)] + [rng.rational(4) for _ in range(3)])
        z = tuple(rng.rational(4) for _ in range(4))
        assert q_star_fkm_eval(nom4r, x, y, z) == on.zero(4)


def test_q_star_ot_values():
    assert q_star_ot(EigenDecomp(E[1], E[2], E[0])) == on.scale(Fraction(2), E[3])
    assert q_star_ot(EigenDecomp(E[1], E[1], E[5])) == ZERO
    assert q_star_ot(EigenDecomp(E[1], E[2], E[3])) == on.scale(Fraction(-2), E[0])


def test_sharp_from_q0_ot_gives_j():
    # q_0 = 2<z, u conj v> determines A#_a = J_a
    nv = 8 + 8 + 7
    zero = MultiPoly.zero(nv)
    us = tuple(MultiPoly.variable(nv, i) for i in range(8))
    vs = tuple(MultiPoly.variable(nv, 8 + i) for i in range(8))
    zs = tuple([zero] + [MultiPoly.variable(nv, 16 + i) for i in range(7)])
    q0 = 2 * on.inner(zs, on.multiply(us, on.conjugate(vs)))
    blocks = sharp_from_q0(q0, 7)
    for a in range(1, 8):
        assert blocks[a - 1] == on.left_mult_matrix(E[a])
    assert [dense(m) for m in sharp_from_q0(MultiPoly.zero(nv), 7)] == [[[Fraction(0)] * 8 for _ in range(8)] for _ in range(7)]


def test_sharp_from_q0_round_trip_and_errors():
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    sharp = left_ops(nom)
    nv = 23
    q0 = MultiPoly.zero(nv)
    for a in range(1, 8):
        m = dense(sharp[a - 1])
        for alpha in range(8):
            for mu in range(8):
                c = m[alpha][mu]
                if c:
                    q0 = q0 + 2 * c * (
                        MultiPoly.variable(nv, alpha)
                        * MultiPoly.variable(nv, 8 + mu)
                        * MultiPoly.variable(nv, 16 + a - 1)
                    )
    assert sharp_from_q0(q0, 7) == sharp
    with pytest.raises(ValueError, match="monomial"):
        sharp_from_q0(MultiPoly.variable(nv, 0) ** 3, 7)
    with pytest.raises(ValueError):
        sharp_from_q0(MultiPoly.zero(5), 7)


def test_trilinearity_extract_success(fkm_systems, fkm_polys):
    key = ("left", Fraction(1, 2))
    fkm = fkm_systems[key]
    forms = extract_expansion_forms(fkm_polys[key], fkm_mirror_frame(fkm))
    qt = trilinearity_extract(forms.q, (7, 7, 8))
    assert len(qt) == 8
    closed = TrilinearTable.of(lambda X, Y, Z: q_star_fkm_eval(fkm.nom, X, Y, Z), 8).components()
    assert qt in (closed, tuple(-f for f in closed))


def test_trilinearity_extract_errors():
    nv = 22
    zero = [MultiPoly.zero(nv)] * 9
    qt = trilinearity_extract(zero, (7, 7, 8))
    assert qt == (MultiPoly.zero(nv),) * 8
    bad = list(zero)
    bad[1] = MultiPoly.variable(nv, 0) * MultiPoly.variable(nv, 1) * MultiPoly.variable(nv, 2)
    with pytest.raises(ValueError, match="non-trilinear"):
        trilinearity_extract(bad, (7, 7, 8))
    bad2 = list(zero)
    bad2[0] = (
        MultiPoly.variable(nv, 0) * MultiPoly.variable(nv, 7) * MultiPoly.variable(nv, 14)
    )
    with pytest.raises(ValueError, match="index-0"):
        trilinearity_extract(bad2, (7, 7, 8))


def _basis_triple_components(q_eval, dim):
    """Independent oracle for ``TrilinearTable.components``: the coefficient of
    x_alpha y_mu z_p in component a is <q(e_alpha, e_mu, e_p), e_a>, read off
    ``q_eval`` on every basis triple with imaginary e_alpha, e_mu."""
    m1 = dim - 1
    terms = [{} for _ in range(dim)]
    for alpha in range(1, dim):
        for mu in range(1, dim):
            for p in range(dim):
                val = q_eval(on.basis(alpha, dim), on.basis(mu, dim), on.basis(p, dim))
                for a in range(dim):
                    if val[a]:
                        terms[a][monomial_key(alpha - 1, m1 + mu - 1, 2 * m1 + p)] = val[a]
    return tuple(MultiPoly(3 * m1 + 1, t) for t in terms)


ORACLE_T = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(2, 3)]


@pytest.mark.parametrize("dim", [4, 8])
def test_cubic_components_match_the_basis_triple_oracle(dim):
    for side in (Side.LEFT, Side.RIGHT):
        for t in ORACLE_T:
            nom = nom_from_t(side, t, axis=4 if dim == 8 else 1, dim=dim)
            q_eval = lambda X, Y, Z: q_star_fkm_eval(nom, X, Y, Z)
            assert TrilinearTable.of(q_eval, dim).components() == _basis_triple_components(q_eval, dim), (side, t)
    assert ot_candidate(dim).tensor == _basis_triple_components(q_star_ot_eval, dim)


def test_tensor_contract_matches_closed_form():
    # the components, evaluated at a point, are the closed form at that point
    nom = nom_from_t(Side.LEFT, Fraction(1, 3))
    comps = TrilinearTable.of(lambda X, Y, Z: q_star_fkm_eval(nom, X, Y, Z), 8).components()
    rng = Draws(81)
    for _ in range(60):
        x = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
        y = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
        z = tuple(rng.rational(4) for _ in range(8))
        point = list(x[1:] + y[1:] + z)
        assert tuple(f.eval(point) for f in comps) == q_star_fkm_eval(nom, x, y, z)


def test_norm_identity_between_families():
    # |q*| agreement is an equality of norms, not vectors, for the OT form
    rng = Draws(82)
    nom = nom_from_t(Side.LEFT, Fraction(0))
    vec_differs = False
    for _ in range(500):
        x = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
        y = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
        z = tuple(rng.rational(4) for _ in range(8))
        a = q_star_ot_eval(x, y, z)
        b = q_star_fkm_eval(nom, x, y, z)
        assert on.norm_sq(a) == on.norm_sq(b)
        if a != b:
            vec_differs = True
    assert vec_differs


@pytest.mark.parametrize("key", [("left", Fraction(0)), ("right", Fraction(0)), ("left", Fraction(1, 2))])
def test_verify_ot_equations_fkm(noms, key):
    rep = verify_ot_equations(fkm_formula_forms(noms[key]), fkm_candidate(noms[key]).tensor)
    assert rep.passed, rep.failing()


def test_verify_ot_equations_ot():
    rep = verify_ot_equations(closed_second_form(8, on.multiply), ot_candidate(8).tensor)
    assert rep.passed, rep.failing()


def test_verify_ot_equations_mutation_fails(noms):
    nom = noms[("left", Fraction(0))]
    qt = fkm_candidate(nom).tensor
    a = next(a for a, f in enumerate(qt) if f)  # drop the first monomial of the first nonzero component
    key, c = next(iter(qt[a].fraction_terms().items()))
    mut = qt[:a] + (qt[a] - MultiPoly(qt[a].nvars, {key: c}),) + qt[a + 1 :]
    p_forms = fkm_formula_forms(nom)
    rep = verify_ot_equations(p_forms, mut)
    assert not rep.passed
    assert "third_form_norm_identity" in rep.failing()
    # the count is that of 16|q*|^2 + |grad G|^2 - 16 G |x|^2 summed by one call
    p_minus1, p_vec = p_forms[0].a, [f.b for f in p_forms[1:]]
    nv = p_minus1.nvars
    g = p_minus1 * p_minus1 + 2 * on.norm_sq(p_vec)
    grad_g = g.gradient()
    k = len(mut) + len(grad_g)
    triples = [(16 if a < len(mut) else 1, a, a) for a in range(k)] + [(-16, k, k)]
    whole = weighted_products(nv, [*mut, *grad_g, g], [*mut, *grad_g, norm_sq_poly(nv)], [triples])[0]
    assert rep.checks[0].detail == {"residual_terms": len(whole.terms)} == {"residual_terms": 42}


def test_verify_ot_equations_rejects_a_rational_p_component(noms):
    nom = noms[("left", Fraction(0))]
    p_minus1 = fkm_formula_forms(nom)[0]
    with pytest.raises(ValueError, match="pure-sqrt2"):
        verify_ot_equations([p_minus1, p_minus1], fkm_candidate(nom).tensor)
