"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here runs in exact rational arithmetic; "exact" means the residual
is literally zero, never within-epsilon.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

from octoverify import octonion as on
from octoverify.circ import Nom, Side, nom_from_t
from octoverify.cli import RunConfig, run, sweep_theta
from octoverify.clifford import (
    find_intertwiner,
    normalize_a_system,
    refined_residual,
    verify_skew_rep,
)
from octoverify.identities import (
    QLabel,
    anti_suite,
    classify_q,
    fkm_candidate,
    exchange_suite,
    obstruction_c_minus_one,
    ot_candidate,
    r_form,
    skew_suite,
)
from octoverify.linalg import Op
from octoverify.mirror import TrilinearTable, q_star_ot_eval, verify_ot_equations
from octoverify.poly import MultiPoly, Rt2Poly, monomial_exponents, munzner_verify, norm_sq_poly, split_squares
from conftest import Draws, ot_display
from octoverify.systems import (
    blocks_from_forms,
    closed_second_form,
    condition_a_check,
    condition_b_check,
    extract_expansion_forms,
    fkm_formula_forms,
    fkm_mirror_frame,
    fkm_squares,
    matrix_route_forms,
)

E = [on.basis(i) for i in range(8)]

NOM_KEYS = [("left", Fraction(0)), ("right", Fraction(0)), ("left", Fraction(1, 2)), ("left", Fraction(1, 3))]


def _line(n, name, ok):
    print(f"ACCEPTANCE {n:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_c01_octonion_core():
    rng = Draws(1001)
    ok = True
    for _ in range(1000):
        x = tuple(rng.rational(6) for _ in range(8))
        y = tuple(rng.rational(6) for _ in range(8))
        if on.norm_sq(on.multiply(x, y)) != on.norm_sq(x) * on.norm_sq(y):
            ok = False
    for _ in range(1000):
        x = tuple(rng.rational(5) for _ in range(8))
        y = tuple(rng.rational(5) for _ in range(8))
        z = tuple(rng.rational(5) for _ in range(8))
        if on.inner(on.conjugate(x), on.conjugate(y)) != on.inner(x, y):
            ok = False
        if on.inner(on.multiply(x, y), z) != on.inner(y, on.multiply(on.conjugate(x), z)):
            ok = False
        if on.inner(on.multiply(x, y), z) != on.inner(x, on.multiply(z, on.conjugate(y))):
            ok = False
        lhs = on.add(
            on.multiply(x, on.multiply(on.conjugate(y), z)),
            on.multiply(y, on.multiply(on.conjugate(x), z)),
        )
        if lhs != on.scale(2 * on.inner(x, y), z):
            ok = False
    from octoverify.octonion import cayley_dickson_multiply

    for i in range(8):
        for j in range(8):
            if on.multiply(E[i], E[j]) != cayley_dickson_multiply(E[i], E[j]):
                ok = False
    _line(1, "octonion core (norms, exchange identities, table oracle)", ok)


def test_c02_clifford_relations_and_volume_signs():
    ok = True
    j = on.j_generators()
    jp = on.j_prime_generators()
    for fam in (j, jp):
        if not verify_skew_rep(fam).passed:
            ok = False
    prod = Op.identity(8)
    for m in j:
        prod = prod @ m
    if prod != -Op.identity(8):
        ok = False
    prod = Op.identity(8)
    for m in jp:
        prod = prod @ m
    if prod != Op.identity(8):
        ok = False
    _line(2, "J/J' Clifford relations and volume signs", ok)


def test_c03_normalization_pipeline():
    rng = Draws(1003)
    j = on.j_generators()
    ok = True
    for _ in range(10):
        o = rng.orthogonal(8)
        a = [o @ m for m in j]
        norm = normalize_a_system(a)
        if refined_residual(norm, a) != 0:
            ok = False
    if find_intertwiner(j, on.j_prime_generators()) is not None:
        ok = False
    _line(3, "A-system normalization pipeline (10 seeded systems, J vs J')", ok)


def test_c04_munzner_pdes(fkm_systems, fkm_polys, ot_octonion_poly):
    ok = True
    systems = [(f"fkm {k}", fkm_polys[k]) for k in NOM_KEYS]
    systems.append(("ot", ot_octonion_poly))
    for name, f in systems:
        t0 = time.time()
        rep = munzner_verify(split_squares(f, ()), 7, 8)
        elapsed = time.time() - t0
        if not rep.passed or elapsed > 60:
            ok = False
    # |x|^4 on R^32 meets the gradient identity but not the Laplacian one
    s = norm_sq_poly(32)
    if munzner_verify(split_squares(s * s, ()), 7, 8).passed:
        ok = False
    _line(4, "Muenzner PDEs exact for 4 noms + OT, and fail for |x|^4", ok)


def test_c05_second_fundamental_form(fkm_systems):
    ok = True
    for key in NOM_KEYS:
        fkm = fkm_systems[key]
        got = matrix_route_forms(fkm.system, fkm_mirror_frame(fkm))
        if not all((g - w).is_zero() for g, w in zip(got, fkm_formula_forms(fkm.nom), strict=True)):
            ok = False
    _line(5, "second fundamental form: matrix route == -sqrt2(XZ + Y o Z)", ok)


def _terms_in_index_order(q):
    """(a, monomial key, coefficient) for every term of the components q, in
    the order of (a, alpha, mu, p) for the monomial x_alpha y_mu z_p."""
    terms = [(a, k, c) for a, f in enumerate(q) for k, c in f.fraction_terms().items()]
    return sorted(terms, key=lambda t: (t[0], monomial_exponents(t[1])))


def test_c06_norm_identity_and_mutation_kill(noms):
    ok = True
    families = [(fkm_formula_forms(noms[k]), fkm_candidate(noms[k]).tensor) for k in NOM_KEYS]
    families.append((closed_second_form(8, on.multiply), ot_candidate(8).tensor))
    rhs_cache = []
    for p_forms, qt in families:
        rep = verify_ot_equations(p_forms, qt)
        if not rep.passed:
            ok = False
        p1 = p_forms[0].a
        g = p1 * p1 + 2 * on.norm_sq([f.b for f in p_forms[1:]])
        rhs = 16 * (g * norm_sq_poly(p1.nvars)) - on.norm_sq(g.gradient())
        rhs_cache.append((rhs, qt, _terms_in_index_order(qt)))
    # 50 seeded single-monomial drops; each must break the norm identity.
    # With 16 * sum q_a^2 == RHS exact for the unmutated components, dropping
    # the term c m from component a shifts the left side by
    # 16(-2c q_a m + c^2 m^2), so the defect polynomial is exactly that.
    rng = Draws(1006)
    kills = 0
    total = 50
    for trial in range(total):
        rhs, qt, terms = rhs_cache[trial % len(rhs_cache)]
        a, key, c = terms[rng.randint(0, len(terms) - 1)]
        m = MultiPoly(rhs.nvars, {key: Fraction(1)})
        defect = 16 * ((-2 * c) * (qt[a] * m) + (c * c) * (m * m))
        if not defect.is_zero():
            kills += 1
        if trial == 0:
            # cross-check the incremental defect against a full recomputation
            mut = qt[:a] + (qt[a] - c * m,) + qt[a + 1 :]
            full_defect = 16 * on.norm_sq(mut) - rhs
            if full_defect != defect or full_defect.is_zero():
                ok = False
    if kills != total:
        ok = False
    _line(6, f"third-form norm identity exact + mutation kill rate {kills}/{total}", ok)


def test_c07_identity_batteries(noms):
    ok = True
    cands = [fkm_candidate(noms[k]) for k in NOM_KEYS] + [ot_candidate(8)]
    for cand in cands:
        for suite in (exchange_suite, skew_suite, anti_suite):
            witnesses = suite(cand)
            if not all(w.passed for w in witnesses):
                ok = False
    _line(7, "identity batteries (exchange, skew, vanishing pairings) both families", ok)


def test_c08_r_classification():
    ok = True
    cand = fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2)))
    r = r_form(cand, E[1], E[2])
    if r != on.add(on.scale(Fraction(18, 25), E[3]), on.scale(Fraction(24, 25), E[7])):
        ok = False
    if on.norm_sq(r) != Fraction(36, 25) or on.norm_sq(r) != 2 + 2 * Fraction(-7, 25):
        ok = False
    left = fkm_candidate(nom_from_t(Side.LEFT, Fraction(0)))
    right = fkm_candidate(nom_from_t(Side.RIGHT, Fraction(0)))
    for i in range(1, 8):
        for j in range(1, 8):
            comm = on.sub(on.multiply(E[i], E[j]), on.multiply(E[j], E[i]))
            if r_form(left, E[i], E[j]) != comm:
                ok = False
            if r_form(right, E[i], E[j]) != on.zero(8):
                ok = False
    _line(8, "R(X,Y) value at t = 1/2 and the endpoint forms", ok)


def test_c09_exclusion_witnesses():
    x, y = E[1], E[2]
    w = on.add(E[0], on.multiply(x, on.multiply(x, y)))
    oct_val = obstruction_c_minus_one(8, x, y, w)
    quat_val = obstruction_c_minus_one(
        4, on.basis(1, 4), on.basis(2, 4), on.add(on.basis(1, 4), on.basis(3, 4))
    )
    ok = oct_val == 4 and quat_val == 2
    _line(9, f"c = -1 obstruction witnesses (octonion {oct_val}, quaternion {quat_val})", ok)


def test_c10_condition_matrix(fkm_systems, fkm_polys, ot_octonion, ot_quaternion):
    ok = True
    # OT: Condition A and B true at x in M_+
    rep, ot_forms, ot_frame = ot_display(ot_octonion)
    if not rep.passed:
        ok = False
    blocks = blocks_from_forms(ot_forms.p, 8, 8, 7)
    if not condition_a_check(blocks).passed:
        ok = False
    if not condition_b_check(ot_octonion, ot_frame, ot_forms.p, ot_forms.q).passed:
        ok = False
    # FKM: Condition B true at x* for every tested nom
    for key in NOM_KEYS:
        fkm = fkm_systems[key]
        frame = fkm_mirror_frame(fkm)
        forms = extract_expansion_forms(split_squares(fkm_polys[key], fkm_squares(fkm.system)), frame)
        formula = fkm_formula_forms(fkm.nom)
        if not condition_b_check(fkm.system, frame, formula, forms.q).passed:
            ok = False
    # OT closed form fails Condition B at the octonion x*
    fkm0 = fkm_systems[("left", Fraction(0))]
    frame0 = fkm_mirror_frame(fkm0)
    formula0 = fkm_formula_forms(fkm0.nom)
    q_forms = [Rt2Poly.zero(22)] + [Rt2Poly.rational(p) for p in TrilinearTable.of(q_star_ot_eval, 8).components()]
    if condition_b_check(fkm0.system, frame0, formula0, q_forms).passed:
        ok = False

    def endpoints(dim):
        e0 = on.basis(0, dim)
        return [ot_candidate(dim), fkm_candidate(Nom(Side.LEFT, e0)), fkm_candidate(Nom(Side.RIGHT, e0))]

    refs = endpoints(8)
    if classify_q(ot_candidate(8), refs).label is not QLabel.OT_TYPE:
        ok = False
    if classify_q(fkm_candidate(nom_from_t(Side.LEFT, Fraction(0))), refs).label is not QLabel.FKM_LEFT:
        ok = False
    if classify_q(fkm_candidate(nom_from_t(Side.RIGHT, Fraction(0))), refs).label is not QLabel.FKM_RIGHT:
        ok = False
    cls4 = classify_q(ot_candidate(4), endpoints(4))
    if "coincidence" not in cls4.note:
        ok = False
    _line(10, "Condition A/B matrix and classification labels", ok)


def test_c11_perturbation_sweep():
    cfg = RunConfig(alpha_t=Fraction(0), suites=("classify",), trials=10, seed=11)
    ts = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3)]
    reports, code = sweep_theta(cfg, ts)
    ok = code == 0 and len(reports) == len(ts)
    branches = []
    for d in reports:
        checks = d["suites"][0]["checks"]
        pm = next(c for c in checks if c["name"] == "perturb_mirror")
        branches.append(pm["detail"]["branch"])
        if not d["pass"]:
            ok = False
    if not all(b in ("XZ+YZ", "XZ+ZY") for b in branches):
        ok = False
    _line(11, f"perturbation sweep branches {branches}", ok)


def test_c12_determinism():
    cfg = dict(alpha_t=Fraction(0), suites=("algebra", "clifford", "nom"), trials=100, seed=5)
    r1, c1 = run(RunConfig(**cfg))
    r2, c2 = run(RunConfig(**cfg))
    r1.pop("timing")
    r2.pop("timing")
    ok = c1 == c2 == 0 and json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _line(12, "identical configs give identical reports modulo timing", ok)
