from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoverify import octonion as on
from octoverify.circ import Nom, Side, circ_definition, nom_from_t
from octoverify.clifford import verify_symmetric_system
from octoverify.poly import Rt2Poly, munzner_verify, split_squares
from conftest import ot_display
from matrix_oracle import add, dense, identity, mul, transpose, zeros
from octoverify.linalg import Op
from octoverify.systems import (
    ScaledVec,
    blocks_from_forms,
    build_fkm_system,
    build_ot_system,
    condition_a_check,
    condition_b_check,
    extract_expansion_forms,
    fkm_formula_forms,
    fkm_mirror_frame,
    fkm_polynomial,
    fkm_squares,
    focal_check,
    frame_check,
    matrix_route_forms,
    mirror_intertwiner,
    ot_plus_frame,
    perturb_mirror,
)

E = [on.basis(i) for i in range(8)]


def test_fkm_systems_pass(fkm_systems):
    for key, fkm in fkm_systems.items():
        assert verify_symmetric_system(fkm.system).passed, key
    # P_-1, the first operator, is symmetric diagonal +-1 with square Id
    p = dense(fkm_systems[("left", Fraction(0))].system[0])
    assert all(p[i][j] == (0 if i != j else p[i][i]) for i in range(32) for j in range(32))
    assert all(p[i][i] in (1, -1) for i in range(32))


def _cd(x, y):
    """xy by the doubling rule; quaternions are padded into the octonions."""
    pad = (0,) * (8 - len(x))
    return on.cayley_dickson_multiply(tuple(x) + pad, tuple(y) + pad)[: len(x)]


def _matrix_of(f, d):
    """The Op whose column b is f(A, X, Y, B) at the b-th basis vector of
    the ambient space, split into four slots of dimension d."""
    cols = []
    for b in range(4 * d):
        v = on.basis(b, 4 * d)
        slots = f(*(v[i * d : (i + 1) * d] for i in range(4)))
        cols.append([c for s in slots for c in s])
    return Op.of(cols).T


def _fkm_maps(nom):
    """P_-1: (A, X, Y, B) -> (A, -X, Y, -B) and
    P_a: (A, X, Y, B) -> (-X e_a, -A conj(e_a), -B o conj(e_a), -Y o e_a)."""
    d = nom.dim

    def p_a(a):
        ea = on.basis(a, d)
        cea = on.conjugate(ea)
        return lambda A, X, Y, B: (
            on.neg(_cd(X, ea)),
            on.neg(_cd(A, cea)),
            on.neg(circ_definition(nom, B, cea)),
            on.neg(circ_definition(nom, Y, ea)),
        )

    return [lambda A, X, Y, B: (A, on.neg(X), Y, on.neg(B))] + [p_a(a) for a in range(d)]


def _ot_maps(d):
    """P_0: (u, v, z, w) -> (u, -v, w, z) and
    P_a: (u, v, z, w) -> (e_a v, -e_a u, e_a w, -e_a z)."""

    def p_a(a):
        ea = on.basis(a, d)
        return lambda u, v, z, w: (_cd(ea, v), on.neg(_cd(ea, u)), _cd(ea, w), on.neg(_cd(ea, z)))

    return [lambda u, v, z, w: (u, on.neg(v), w, z)] + [p_a(a) for a in range(1, d)]


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 2)])
def test_fkm_blocks_equal_the_maps(d, side, t):
    nom = nom_from_t(side, t, axis=4 if d == 8 else 1, dim=d)
    fkm = build_fkm_system(nom)
    assert fkm.system == [_matrix_of(f, d) for f in _fkm_maps(nom)]


@pytest.mark.parametrize("d", [4, 8])
def test_ot_blocks_equal_the_maps(d):
    assert build_ot_system(d) == [_matrix_of(f, d) for f in _ot_maps(d)]


def test_fkm_quaternion_system(fkm_quaternion):
    assert all(len(m.rows) == m.ncols == 16 for m in fkm_quaternion.system)
    assert verify_symmetric_system(fkm_quaternion.system).passed


def test_fkm_systems_ten_pythagorean_alphas():
    # property: the construction is a symmetric Clifford system for any
    # Pythagorean alpha and either side
    for t in (Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        for side in (Side.LEFT, Side.RIGHT):
            sys = build_fkm_system(nom_from_t(side, t))
            assert verify_symmetric_system(sys.system).passed, (side, t)


def test_ot_systems_pass(ot_octonion, ot_quaternion):
    assert verify_symmetric_system(ot_octonion).passed
    assert verify_symmetric_system(ot_quaternion).passed
    p0 = ot_octonion[0]
    assert p0 @ p0 == Op.identity(32)


def test_fkm_polynomial_properties(fkm_systems, fkm_polys):
    f = fkm_polys[("left", Fraction(0))]
    assert f.is_homogeneous(4)
    frame = fkm_mirror_frame(fkm_systems[("left", Fraction(0))])
    # all <P_i x*, x*> = 0, so F(rep) = |rep|^4 = 4 for the sqrt2-scaled rep
    assert f.eval(list(frame.point.coords)) == 4


@pytest.mark.parametrize("which", ["fkm t=0", "fkm t=1/2", "ot"])
def test_fkm_polynomial_matches_sympy(which):
    # F = |x|^4 - 2 sum_i (x^T P_i x)^2 expanded by sympy's sparse rings, at d = 4
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    if which == "ot":
        system = build_ot_system(4)
    else:
        t = Fraction(0) if which == "fkm t=0" else Fraction(1, 2)
        system = build_fkm_system(nom_from_t(Side.LEFT, t, axis=1, dim=4)).system
    n = system[0].ncols
    R, *xs = ring(",".join(f"x{i}" for i in range(n)), QQ)
    r2 = sum((x * x for x in xs), R.zero)
    want = r2 * r2
    for op in system:
        q = sum((QQ(c, op.den) * xs[r] * xs[k] for r, row in enumerate(op.rows) for k, c in row.items()), R.zero)
        want -= 2 * q * q
    got = fkm_polynomial(system)
    assert got.nvars == n
    assert got.exponent_dict() == {tuple(e): Fraction(c.numerator, c.denominator) for e, c in want.terms()}


def test_munzner_fkm_and_ot(fkm_systems, fkm_polys, ot_octonion, ot_octonion_poly):
    # -F satisfies the (7,8)-oriented Laplacian identity for FKM's F, F for
    # OT's; on F's squares and without them
    key = ("left", Fraction(1, 2))
    for system, f, sign in ((fkm_systems[key].system, fkm_polys[key], -1), (ot_octonion, ot_octonion_poly, 1)):
        for squares in (fkm_squares(system), ()):
            rep = munzner_verify(split_squares(f, squares), 7, 8)
            assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
                ("gradient_identity", True, {"residual_terms": 0}),
                ("laplacian_identity", True, {"sign": sign}),
            ]


def test_focal_check(fkm_systems):
    fkm = fkm_systems[("left", Fraction(0))]
    frame = fkm_mirror_frame(fkm)
    assert focal_check(fkm.system, frame.point)
    zero = on.zero(8)
    # x = (0, e_0, 0, 0): <P_-1 x, x> = -1
    x = ScaledVec(zero + E[0] + zero + zero, 0)
    assert not focal_check(fkm.system, x)
    assert not focal_check(fkm.system, ScaledVec(frame.point.coords, 0))  # norm 2


def test_frames_orthonormal(fkm_systems, ot_octonion):
    for key, fkm in fkm_systems.items():
        fr = fkm_mirror_frame(fkm)
        assert frame_check(fr, 32).passed, key
    assert frame_check(ot_plus_frame(ot_octonion), 32).passed


def test_frame_check_negative_controls(fkm_systems):
    # each defect fails exactly its own check; the mirror frame mixes half
    # tags (x* and the Z-type tangents carry 1/sqrt2)
    fr = fkm_mirror_frame(fkm_systems[("left", Fraction(1, 2))])
    assert {v.half for v in [fr.point] + fr.tangent} == {-1, 0}
    t = fr.tangent
    # a unit tangent vector that is not orthogonal: the first X-type one
    # tilted toward the second by a Pythagorean angle
    tilted = ScaledVec(tuple(Fraction(3, 5) * a + Fraction(4, 5) * b for a, b in zip(t[0].coords, t[1].coords)), t[0].half)
    assert tilted.norm_sq() == 1
    # a rescaled vector: the last Z-type tangent twice as long, still
    # orthogonal to every other vector
    longer = replace(t[-1], half=t[-1].half + 2)
    for broken, name in (
        (replace(fr, tangent=[tilted] + t[1:]), "orthogonality"),
        (replace(fr, tangent=t[:-1] + [longer]), "unit_vectors"),
        (replace(fr, normals=fr.normals[:-1]), "dimension"),
    ):
        assert frame_check(broken, 32).failing() == [name]


@pytest.mark.parametrize("key", [("left", Fraction(0)), ("right", Fraction(0)), ("left", Fraction(1, 2)), ("left", Fraction(1, 3))])
def test_second_form_matrix_equals_formula(fkm_systems, key):
    fkm = fkm_systems[key]
    frame = fkm_mirror_frame(fkm)
    assert focal_check(fkm.system, frame.point) and frame_check(frame, 32).passed, key
    got = matrix_route_forms(fkm.system, frame)
    assert all((g - w).is_zero() for g, w in zip(got, fkm_formula_forms(fkm.nom), strict=True)), key


def test_second_form_spot_values(fkm_systems):
    # W with X = e_1, Y = 0, Z = e_0: p*_a components -sqrt2 <e_1 e_0, e_a> and
    # p*_-1 = |X|^2 - |Y|^2 = 1
    fkm = fkm_systems[("left", Fraction(0))]
    frame = fkm_mirror_frame(fkm)
    forms = matrix_route_forms(fkm.system, frame)
    point = [Fraction(0)] * 22
    point[0] = Fraction(1)  # x_1
    point[14] = Fraction(1)  # z_0
    vals_m1 = forms[0]
    assert vals_m1.a.eval(point) == 1 and vals_m1.b.eval(point) == 0
    got = [f.b.eval(point) for f in forms[1:]]
    assert got == [Fraction(-1) if a == 1 else Fraction(0) for a in range(8)]


def test_fkm_formula_forms_shape():
    nom = nom_from_t(Side.LEFT, Fraction(0))
    forms = fkm_formula_forms(nom)
    assert forms[0].is_rational()
    assert all(f.is_pure_sqrt2() for f in forms[1:])


def test_extraction_matches_formula(fkm_systems, fkm_polys):
    key = ("left", Fraction(1, 3))
    fkm = fkm_systems[key]
    frame = fkm_mirror_frame(fkm)
    forms = extract_expansion_forms(split_squares(fkm_polys[key], fkm_squares(fkm.system)), frame)
    formula = fkm_formula_forms(fkm.nom)
    assert all((a - b).is_zero() for a, b in zip(forms.p, formula))
    assert forms.q[0].is_zero()
    assert all(f.is_rational() for f in forms.q)


def test_extraction_requires_focal_value():
    fkm = build_fkm_system(nom_from_t(Side.LEFT, Fraction(0)))
    f = fkm_polynomial(fkm.system)
    frame = fkm_mirror_frame(fkm)
    bad = frame.__class__(ScaledVec(frame.tangent[0].coords, 0), frame.tangent, frame.normals)
    with pytest.raises(ValueError):
        extract_expansion_forms(split_squares(f, fkm_squares(fkm.system)), bad)


def test_ot_displays_and_condition_a(ot_octonion):
    rep, forms, frame = ot_display(ot_octonion)
    assert rep.passed, rep.failing()
    blocks = blocks_from_forms(forms.p, 8, 8, 7)
    # A_a = J_a on the nose at the Condition-A point
    for a in range(1, 8):
        assert blocks.a_blocks[a - 1] == on.left_mult_matrix(E[a])
    ca = condition_a_check(blocks)
    assert ca.passed


def test_condition_a_rejects_nonzero_b(ot_octonion):
    rep, forms, frame = ot_display(ot_octonion)
    blocks = blocks_from_forms(forms.p, 8, 8, 7)
    b0 = dense(blocks.b_blocks[0])
    b0[0][0] = Fraction(1)
    blocks = replace(blocks, b_blocks=[Op.of(b0)] + blocks.b_blocks[1:])
    ca = condition_a_check(blocks)
    assert not ca.passed
    assert "b_blocks_zero" in ca.failing()


def test_blocks_from_forms_refuses_a_sqrt2_part(ot_octonion):
    _, forms, _ = ot_display(ot_octonion)
    p = list(forms.p)
    p[1] = p[1] + Rt2Poly.sqrt2_times(p[1].a)
    with pytest.raises(ValueError, match="rational forms"):
        blocks_from_forms(p, 8, 8, 7)


def test_blocks_from_forms_refuses_sizes_that_miss_the_forms(ot_quaternion):
    # the quaternion OT forms at x_+ have 4 + 4 + 3 = 11 variables; a d_zero
    # that misses them once returned blocks of the wrong size
    _, forms, _ = ot_display(ot_quaternion)
    assert {f.a.nvars for f in forms.p} == {11}
    assert condition_a_check(blocks_from_forms(forms.p, 4, 4, 3)).passed
    for d_zero in (2, 4):
        with pytest.raises(ValueError, match="11 variables"):
            blocks_from_forms(forms.p, 4, 4, d_zero)


@pytest.fixture(scope="module")
def ot_blocks(ot_octonion):
    _, forms, _ = ot_display(ot_octonion)
    return blocks_from_forms(forms.p, 8, 8, 7)


def _mutated(blocks, scale=1, s_edits=(), a_edits=()):
    """A copy of blocks with every S_a and A_a scaled and single entries of
    them moved by delta ((k, i, j, delta), indices taken modulo the shapes)."""
    s_mats = [[[scale * x for x in row] for row in dense(m)] for m in blocks.s_matrices]
    a_mats = [[[scale * x for x in row] for row in dense(m)] for m in blocks.a_blocks]
    for mats, edits in ((s_mats, s_edits), (a_mats, a_edits)):
        for k, i, j, delta in edits:
            m = mats[k % len(mats)]
            m[i % len(m)][j % len(m[0])] += delta
    return replace(blocks, s_matrices=[Op.of(m) for m in s_mats], a_blocks=[Op.of(m) for m in a_mats])


def _form_product(p, q):
    """The product of two {exponents: Fraction} polynomials, term by term."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _form_matrix_product(a, b):
    """The product of two dense matrices of {exponents: Fraction} polynomials."""
    out = []
    for row in a:
        orow = []
        for k in range(len(b[0])):
            acc = {}
            for j, x in enumerate(row):
                if not (x and b[j][k]):
                    continue
                for e, c in _form_product(x, b[j][k]).items():
                    acc[e] = acc.get(e, 0) + c
            orow.append({e: c for e, c in acc.items() if c})
        out.append(orow)
    return out


def _fraction_condition_a(blocks):
    """The naive dense Fraction route: the verdicts of S_n^3 = |n|^2 S_n,
    with the entries of S_n linear {exponents: Fraction} forms in a symbolic
    normal n, and of the A-block relations."""
    s_mats = [dense(m) for m in blocks.s_matrices]
    nv = len(s_mats[0])
    n = [tuple(int(b == a) for b in range(len(s_mats))) for a in range(len(s_mats))]
    s = [[{n[a]: m[i][j] for a, m in enumerate(s_mats) if m[i][j]} for j in range(nv)] for i in range(nv)]
    norm = {tuple(2 * x for x in e): Fraction(1) for e in n}
    cube = _form_matrix_product(_form_matrix_product(s, s), s)
    ok_cube = all(cube[i][j] == _form_product(norm, s[i][j]) for i in range(nv) for j in range(nv))
    a_mats = [dense(m) for m in blocks.a_blocks]
    dp, dm = len(a_mats[0]), len(a_mats[0][0])
    ok_a = all(mul(a, transpose(a)) == identity(dp) for a in a_mats)
    for x in range(len(a_mats)):
        for y in range(x + 1, len(a_mats)):
            ax, ay = a_mats[x], a_mats[y]
            if add(mul(ax, transpose(ay)), mul(ay, transpose(ax))) != zeros(dp):
                ok_a = False
            if add(mul(transpose(ax), ay), mul(transpose(ay), ax)) != zeros(dm):
                ok_a = False
    return ok_cube, ok_a


def _verdicts(rep):
    return tuple(next(c.passed for c in rep.checks if c.name == name) for name in ("shape_operator_cube", "a_block_relations"))


def test_condition_a_cube_fails_on_doubled_blocks(ot_blocks):
    assert condition_a_check(ot_blocks).passed
    doubled = _mutated(ot_blocks, scale=2)
    # (2S)^3 = 8 |n|^2 S != 2 |n|^2 S, and (2A)(2A)^T = 4 Id
    assert _verdicts(condition_a_check(doubled)) == (False, False)
    assert _verdicts(condition_a_check(replace(doubled, a_blocks=ot_blocks.a_blocks))) == (False, True)


def test_condition_a_cube_fails_on_one_perturbed_entry(ot_blocks):
    # S_1[0][8] is the corner of A_1 inside the full matrix
    rep = condition_a_check(_mutated(ot_blocks, s_edits=[(1, 0, 8, Fraction(1, 3))]))
    assert _verdicts(rep) == (False, True)
    rep = condition_a_check(_mutated(ot_blocks, a_edits=[(2, 5, 1, Fraction(-1))]))
    assert _verdicts(rep) == (True, False)


_block_edits = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.fractions(-2, 2, max_denominator=5).filter(bool)),
    max_size=2,
)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1, 1, 1, -1, 2, Fraction(1, 2)]),
    _block_edits,
    _block_edits,
)
def test_condition_a_int_verdict_matches_fraction_oracle(ot_blocks, scale, s_edits, a_edits):
    blocks = _mutated(ot_blocks, scale, s_edits, a_edits)
    assert _verdicts(condition_a_check(blocks)) == _fraction_condition_a(blocks)


def test_condition_b_fkm_and_ot(fkm_systems, fkm_polys, ot_octonion):
    key = ("left", Fraction(1, 2))
    fkm = fkm_systems[key]
    frame = fkm_mirror_frame(fkm)
    forms = extract_expansion_forms(split_squares(fkm_polys[key], fkm_squares(fkm.system)), frame)
    formula = fkm_formula_forms(fkm.nom)
    cb = condition_b_check(fkm.system, frame, formula, forms.q)
    assert cb.passed

    rep, ot_forms, ot_frame = ot_display(ot_octonion)
    cbo = condition_b_check(ot_octonion, ot_frame, ot_forms.p, ot_forms.q)
    assert cbo.passed


def test_condition_b_refuses_a_q_list_of_the_wrong_length(fkm_systems, fkm_polys):
    # a short list must not be compared on its prefix alone, nor an empty one pass
    key = ("left", Fraction(1, 2))
    fkm = fkm_systems[key]
    frame = fkm_mirror_frame(fkm)
    q = extract_expansion_forms(split_squares(fkm_polys[key], fkm_squares(fkm.system)), frame).q
    formula = fkm_formula_forms(fkm.nom)
    for short in (q[:-1], []):
        with pytest.raises(ValueError):
            condition_b_check(fkm.system, frame, formula, short)


def test_condition_b_recipe_r_values(ot_octonion):
    # r_0b = <z, e_b>: the recipe form against the b-th normal is the z_b
    # coordinate exactly (tangent layout: u_0..7, v_0..7, z_1..7)
    frame = ot_plus_frame(ot_octonion)
    tcount = len(frame.tangent)
    p0 = ot_octonion[0]
    for b in range(1, 8):
        vals = []
        for j, tv in enumerate(frame.tangent):
            vals.append(on.inner(tuple(p0.apply(tv.coords)), frame.normals[b].coords))
        nz = [(j, v) for j, v in enumerate(vals) if v]
        assert nz == [(16 + b - 1, Fraction(1))]  # z_b slot, coefficient +1


def test_ot_q_fails_condition_b_at_x_star(fkm_systems, fkm_polys):
    from octoverify.mirror import TrilinearTable, q_star_ot_eval

    key = ("left", Fraction(0))
    fkm = fkm_systems[key]
    frame = fkm_mirror_frame(fkm)
    formula = fkm_formula_forms(fkm.nom)
    q_forms = [Rt2Poly.zero(22)] + [Rt2Poly.rational(p) for p in TrilinearTable.of(q_star_ot_eval, 8).components()]
    cb = condition_b_check(fkm.system, frame, formula, q_forms)
    assert not cb.passed
    assert "linear_span_identity" in cb.failing()


def test_ot_q_passes_condition_b_quaternion(fkm_quaternion):
    from octoverify.mirror import TrilinearTable, q_star_ot_eval

    frame = fkm_mirror_frame(fkm_quaternion)
    formula = fkm_formula_forms(fkm_quaternion.nom)
    nv = 3 * 4 - 2
    q_forms = [Rt2Poly.zero(nv)] + [Rt2Poly.rational(p) for p in TrilinearTable.of(q_star_ot_eval, 4).components()]
    cb = condition_b_check(fkm_quaternion.system, frame, formula, q_forms)
    assert cb.passed  # Remark-7.6 coincidence: (XY-YX)Z = X(YZ)-Y(XZ) in H


def test_mirror_intertwiner_closed_forms():
    for side, t in ((Side.LEFT, Fraction(1, 2)), (Side.RIGHT, Fraction(1, 3))):
        nom = nom_from_t(side, t)
        u, branch = mirror_intertwiner(nom)
        assert branch == (1 if side is Side.LEFT else -1)
        want = on.left_mult_matrix(on.conjugate(nom.alpha)) if side is Side.LEFT else on.right_mult_matrix(on.conjugate(nom.alpha))
        assert u == want
    # a non-unit alpha: the closed form is not orthogonal, and nothing else is tried
    with pytest.raises(ValueError, match="mirror intertwiner"):
        mirror_intertwiner(Nom(Side.LEFT, on.scale(Fraction(2), E[0])))


@pytest.mark.parametrize(
    "side,t,branch",
    [
        (Side.LEFT, Fraction(0), "XZ+YZ"),
        (Side.RIGHT, Fraction(0), "XZ+ZY"),
        (Side.LEFT, Fraction(1, 2), "XZ+YZ"),
        (Side.RIGHT, Fraction(1, 2), "XZ+ZY"),
    ],
)
def test_perturb_mirror_branches(side, t, branch, fkm_systems):
    key = ("left" if side is Side.LEFT else "right", t)
    fkm = fkm_systems.get(key) or build_fkm_system(nom_from_t(side, t))
    rep = perturb_mirror(fkm)
    assert rep.passed
    got = next(c.detail["branch"] for c in rep.checks if c.name == "second_form_branch_identity")
    assert got == branch
