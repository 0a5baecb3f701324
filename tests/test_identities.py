from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoverify import octonion as on
from octoverify.circ import Nom, Side, circ, nom_from_t
from octoverify.identities import (
    RECORDED_INSTANCES,
    Batteries,
    QCandidate,
    QLabel,
    anti_suite,
    classify_q,
    crucial_classify,
    fkm_candidate,
    good_identity_check,
    exchange_suite,
    exchange_witnesses,
    norm_identity_check,
    obstruction_c_minus_one,
    ot_candidate,
    r_form,
    skew_suite,
)
from octoverify.mirror import TrilinearTable, q_star_fkm_eval
from octoverify.octonion import cayley_dickson_multiply
from octoverify.poly import MultiPoly, monomial_key
from conftest import Draws

E = [on.basis(i) for i in range(8)]


def test_r_form_endpoint_values():
    left = fkm_candidate(nom_from_t(Side.LEFT, Fraction(0)))
    right = fkm_candidate(nom_from_t(Side.RIGHT, Fraction(0)))
    assert r_form(left, E[1], E[2]) == on.scale(Fraction(2), E[3])
    for i in range(1, 8):
        for j in range(1, 8):
            comm = on.sub(on.multiply(E[i], E[j]), on.multiply(E[j], E[i]))
            assert r_form(left, E[i], E[j]) == comm
            assert r_form(right, E[i], E[j]) == on.zero(8)
    with pytest.raises(ValueError):
        r_form(left, E[0], E[2])


def test_r_form_pythagorean_value():
    cand = fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2)))
    r = r_form(cand, E[1], E[2])
    assert r == on.add(on.scale(Fraction(18, 25), E[3]), on.scale(Fraction(24, 25), E[7]))
    assert on.norm_sq(r) == Fraction(36, 25)
    # |R|^2 = 2 + 2 cos 2theta with cos 2theta = -7/25
    assert on.norm_sq(r) == 2 + 2 * Fraction(-7, 25)


# |R(e1, e2)|^2 at the Pythagorean point of t, as (left, right): with
# cos 2theta = c2 it is 2 + 2 c2 on the left and 2 - 2 c2 on the right
R_NORM_SQ = {
    Fraction(1, 3): (Fraction(64, 25), Fraction(36, 25)),  # c2 = 7/25
    Fraction(1, 2): (Fraction(36, 25), Fraction(64, 25)),  # c2 = -7/25
    Fraction(1): (Fraction(0), Fraction(4)),  # c2 = -1
    Fraction(3): (Fraction(64, 25), Fraction(36, 25)),  # c2 = 7/25
}


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("t", sorted(R_NORM_SQ))
def test_crucial_classify_both_sides(side, t):
    cand = fkm_candidate(nom_from_t(side, t))
    want = R_NORM_SQ[t][0 if side is Side.LEFT else 1]
    assert on.norm_sq(r_form(cand, E[1], E[2])) == want
    perp = crucial_classify(cand, E[1], E[2])  # {e1,e2,e3} _|_ e4
    assert perp.passed, perp.failing()
    norm_check = "norm_sq_2_plus_2cos2theta" if side is Side.LEFT else "norm_sq_2_minus_2cos2theta"
    assert [c.name for c in perp.checks] == ["perpendicular_value", norm_check]
    assert crucial_classify(cand, E[1], on.neg(E[5])).passed  # e1 * (-e5) = e4


def test_crucial_classify_branches():
    cand = fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2)))
    rep = crucial_classify(cand, E[1], E[2])  # {e1,e2,e3} _|_ e4
    assert rep.passed
    rep = crucial_classify(cand, E[1], on.neg(E[5]))  # e1 * (-e5) = e4
    assert rep.passed
    sign = next(c.detail["sign"] for c in rep.checks if c.name == "parallel_value_up_to_sign")
    assert sign in (1, -1)
    with pytest.raises(ValueError, match="neither branch"):
        crucial_classify(cand, E[1], E[4])
    # a degenerate axis has no branch: the endpoint values are cor69_endpoints'
    for side in (Side.LEFT, Side.RIGHT):
        with pytest.raises(ValueError, match="degenerate axis"):
            crucial_classify(fkm_candidate(nom_from_t(side, Fraction(0))), E[1], E[2])


@pytest.mark.parametrize(
    "maker",
    [
        lambda: fkm_candidate(nom_from_t(Side.LEFT, Fraction(0))),
        lambda: fkm_candidate(nom_from_t(Side.RIGHT, Fraction(0))),
        lambda: fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2))),
        lambda: ot_candidate(8),
    ],
    ids=["fkm-left", "fkm-right", "fkm-t-half", "ot"],
)
def test_identity_batteries_pass(maker):
    cand = maker()
    assert all(w.passed for w in exchange_suite(cand))
    assert all(w.passed for w in skew_suite(cand))
    assert all(w.passed for w in anti_suite(cand))
    assert norm_identity_check(cand)


def test_batteries_quaternion_candidates():
    for cand in (fkm_candidate(nom_from_t(Side.LEFT, Fraction(0), axis=1, dim=4)), ot_candidate(4)):
        b = cand.batteries
        assert b.passed and b.norm
        # the cached value holds what the batteries return
        assert [w.to_json() for w in b.exchange] == [w.to_json() for w in exchange_suite(cand)]
        assert cand.batteries is b


def test_unsymmetrized_candidate_fails():
    cand = QCandidate(QLabel.CUSTOM, nom_from_t(Side.LEFT, Fraction(0)), lambda X, Y, Z: on.multiply(on.multiply(X, Y), Z))
    results = exchange_suite(cand)
    assert not all(w.passed for w in results)
    assert [w.to_json() for w in exchange_witnesses(cand)] == [w.to_json() for w in results]
    # the CLI's check stops at the first failing witness, which is the first
    # one wherever the CLI runs it
    for dim, t in ((8, Fraction(0)), (8, Fraction(1, 2)), (4, Fraction(0))):
        bad = QCandidate(QLabel.CUSTOM, nom_from_t(Side.LEFT, t, dim=dim), cand.eval)
        assert not next(exchange_witnesses(bad)).passed


def test_good_identity():
    assert good_identity_check(fkm_candidate(nom_from_t(Side.LEFT, Fraction(0))))
    assert good_identity_check(fkm_candidate(nom_from_t(Side.RIGHT, Fraction(0))))
    assert good_identity_check(fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2))))
    assert good_identity_check(fkm_candidate(nom_from_t(Side.LEFT, Fraction(1))))


def test_diagonal_q_vanishes_only_at_endpoints():
    # q(X, X, Z) is identically zero for the theta = 0/pi endpoint noms
    rng = Draws(10)
    for side in (Side.LEFT, Side.RIGHT):
        cand = fkm_candidate(nom_from_t(side, Fraction(0)))
        for _ in range(20):
            x = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
            z = tuple(rng.rational(4) for _ in range(8))
            assert cand.eval(x, x, z) == on.zero(8)
    # ... but not for interior theta; at theta = pi/2 axis-perpendicular unit X
    # still vanish while mixed X do not (hand-computed witness value)
    cand = fkm_candidate(nom_from_t(Side.LEFT, Fraction(1)))
    assert cand.eval(E[1], E[1], E[2]) == on.zero(8)
    x = on.add(on.scale(Fraction(3, 5), E[1]), on.scale(Fraction(4, 5), E[4]))
    assert cand.eval(x, x, E[2]) == on.scale(Fraction(48, 25), E[7])
    # interior theta: nonzero already on basis input
    cand = fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2)))
    assert cand.eval(E[1], E[1], E[2]) != on.zero(8)


def test_global_sign_flip_property():
    nom = nom_from_t(Side.LEFT, Fraction(1, 3))
    rng = Draws(11)
    for _ in range(30):
        x = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
        y = tuple([Fraction(0)] + [rng.rational(4) for _ in range(7)])
        z = tuple(rng.rational(4) for _ in range(8))
        assert q_star_fkm_eval(nom, on.neg(x), on.neg(y), on.neg(z)) == on.neg(q_star_fkm_eval(nom, x, y, z))


def test_obstruction_values():
    x, y = E[1], E[2]
    w = on.add(E[0], on.multiply(x, on.multiply(x, y)))  # e_0 + X e
    assert obstruction_c_minus_one(8, x, y, w) == 4
    assert obstruction_c_minus_one(8, x, y, E[4]) == 0
    xq, yq = on.basis(1, 4), on.basis(2, 4)
    wq = on.add(on.basis(1, 4), on.basis(3, 4))
    assert obstruction_c_minus_one(4, xq, yq, wq) == 2
    with pytest.raises(ValueError):
        obstruction_c_minus_one(8, E[0], E[2], w)
    with pytest.raises(ValueError):
        obstruction_c_minus_one(8, x, on.scale(Fraction(2), E[2]), w)


def quaternion_c_minus_one_candidate(x: tuple, y: tuple, w: tuple) -> tuple:
    """The excluded c = -1 form q(X,Y,W) = (XY - YX)W - <W, XY - YX> e_0."""
    comm = on.sub(on.multiply(x, y), on.multiply(y, x))
    val = on.multiply(comm, w)
    corr = on.scale(on.inner(w, comm), on.basis(0, len(x)))
    return on.sub(val, corr)


def test_quaternion_c_minus_one_candidate_violates_pairing():
    # the excluded branch fails <q(X,Y,W), XW> = 0 at the standard witness:
    # the pairing equals <W, XY-YX><W, X> = 2 exactly
    xq, yq = on.basis(1, 4), on.basis(2, 4)
    wq = on.add(on.basis(1, 4), on.basis(3, 4))
    q = quaternion_c_minus_one_candidate(xq, yq, wq)
    val = on.inner(q, on.multiply(xq, wq))
    assert val == obstruction_c_minus_one(4, xq, yq, wq) == 2


# preset into a candidate's cache, so that only the matcher is under test
PASSED = Batteries([], [], [], True)


def _endpoints(dim):
    """The classifier's references: OT, FKM-left and FKM-right at alpha = e_0."""
    e0 = on.basis(0, dim)
    return [ot_candidate(dim), fkm_candidate(Nom(Side.LEFT, e0)), fkm_candidate(Nom(Side.RIGHT, e0))]


def test_classify_q_labels():
    refs = _endpoints(8)
    assert classify_q(ot_candidate(8), refs).label is QLabel.OT_TYPE
    assert classify_q(fkm_candidate(nom_from_t(Side.LEFT, Fraction(0))), refs).label is QLabel.FKM_LEFT
    assert classify_q(fkm_candidate(nom_from_t(Side.RIGHT, Fraction(0))), refs).label is QLabel.FKM_RIGHT


def test_classify_q_requires_suites():
    # classify_q runs the batteries of a fresh candidate itself, and refuses
    # a candidate whose batteries, read from its cache, did not all pass
    cand = ot_candidate(8)
    assert classify_q(cand, _endpoints(8)).label is QLabel.OT_TYPE and cand.batteries.passed
    cand.batteries = Batteries(cand.batteries.exchange, cand.batteries.skew, cand.batteries.anti, False)
    with pytest.raises(ValueError, match="suites"):
        classify_q(cand, _endpoints(8))


def test_classify_q_quaternion_coincidence():
    cls = classify_q(ot_candidate(4), _endpoints(4))
    assert QLabel.OT_TYPE in cls.matches and QLabel.FKM_LEFT in cls.matches
    assert "coincidence" in cls.note


def test_classify_q_unknown_for_nonendpoint():
    cand = fkm_candidate(nom_from_t(Side.LEFT, Fraction(1, 2)))
    assert classify_q(cand, _endpoints(8)).label is QLabel.UNKNOWN


def _cd_multiply(x, y):
    """The Cayley-Dickson product, for quaternions through the quaternion
    sub-span of the octonions."""
    pad = (Fraction(0),) * (8 - len(x))
    return cayley_dickson_multiply(tuple(x) + pad, tuple(y) + pad)[: len(x)]


def _oracle_matches(cand):
    """The closed forms (XY - YX)Z, X(YZ) - Y(XZ) and X(ZY) - (XZ)Y, written
    with the Cayley-Dickson product, that agree with cand on every spanning
    basis triple."""
    m = _cd_multiply
    forms = [
        (QLabel.OT_TYPE, lambda X, Y, Z: m(on.sub(m(X, Y), m(Y, X)), Z)),
        (QLabel.FKM_LEFT, lambda X, Y, Z: on.sub(m(X, m(Y, Z)), m(Y, m(X, Z)))),
        (QLabel.FKM_RIGHT, lambda X, Y, Z: on.sub(m(X, m(Z, Y)), m(m(X, Z), Y))),
    ]
    dim = cand.dim
    E = [on.basis(i, dim) for i in range(dim)]
    triples = [(E[a], E[b], E[p]) for a in range(1, dim) for b in range(1, dim) for p in range(dim)]
    return [label for label, f in forms if all(cand.eval(*t) == f(*t) for t in triples)]


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 2)])
def test_classify_q_matches_the_cayley_dickson_oracle(dim, side, t):
    refs = _endpoints(dim)
    cand = fkm_candidate(nom_from_t(side, t, axis=4 if dim == 8 else 1, dim=dim))
    cand.batteries = PASSED
    assert classify_q(cand, refs).matches == _oracle_matches(cand)


@pytest.mark.parametrize("dim", [4, 8])
def test_classify_q_ot_matches_the_cayley_dickson_oracle(dim):
    cand = ot_candidate(dim)
    cand.batteries = PASSED
    want = [QLabel.OT_TYPE, QLabel.FKM_LEFT] if dim == 4 else [QLabel.OT_TYPE]
    assert _oracle_matches(cand) == want
    assert classify_q(cand, _endpoints(dim)).matches == want


def test_classify_q_unknown_when_one_basis_triple_differs():
    left = fkm_candidate(Nom(Side.LEFT, E[0]))

    def bumped(X, Y, Z):
        # adds X_1 Y_2 Z_3 e_4: trilinear, nonzero only on (e_1, e_2, e_3)
        return on.add(left.eval(X, Y, Z), on.scale(X[1] * Y[2] * Z[3], E[4]))

    cand = QCandidate(QLabel.CUSTOM, left.nom, bumped)
    cand.batteries = PASSED
    assert [a for a in range(8) if cand.tensor[a] != left.tensor[a]] == [4]
    # x_1 y_2 z_3 in the (x_1..x_7, y_1..y_7, z_0..z_7) layout
    assert cand.tensor[4] - left.tensor[4] == MultiPoly(22, {monomial_key(0, 8, 17): 1})
    cls = classify_q(cand, _endpoints(8))
    assert cls.label is QLabel.UNKNOWN and cls.matches == []


def test_failed_battery_blocks_classification():
    # q = (XY)Z is not symmetrized: over the quaternions it fails the exchange
    # and skew batteries, so classify_q must refuse it
    cand = QCandidate(QLabel.CUSTOM, Nom(Side.LEFT, on.basis(0, 4)), lambda X, Y, Z: on.multiply(on.multiply(X, Y), Z))
    b = cand.batteries
    assert not all(w.passed for w in b.exchange) and not all(w.passed for w in b.skew)
    with pytest.raises(ValueError, match="passed"):
        classify_q(cand, _endpoints(4))


def _exchange_summary(results):
    return [(w.identity_name, w.inputs["instances"], w.passed) for w in results]


def _counting(ref):
    """A candidate with ``ref``'s eval and nom, and the list of the slots it
    is evaluated on that hold a polynomial."""
    seen = []

    def counting(X, Y, Z):
        if any(isinstance(c, MultiPoly) for v in (X, Y, Z) for c in v):
            seen.append((X, Y, Z))
        return ref.eval(X, Y, Z)

    return QCandidate(QLabel.CUSTOM, ref.nom, counting), seen


def test_exchange_suite_evaluates_each_symbolic_triple_once():
    # eval sees symbolic slots once, the full slots q's coefficient table is
    # built from: every battery and good_identity_check read the table, its
    # components and its contractions, and a second run reuses them
    nom = nom_from_t(Side.LEFT, Fraction(1, 2))
    for ref in (fkm_candidate(nom), ot_candidate(8)):
        cand, seen = _counting(ref)
        results = exchange_suite(cand)
        assert cand.batteries.passed and good_identity_check(cand)
        exchange_suite(cand)
        assert seen == [on.symbolic_octets(8, "XYZ")]
        # the transposed ordering does not validate for either candidate
        assert results[6].rhs is False
        assert _exchange_summary(results) == _exchange_summary(exchange_suite(ref))
        assert _exchange_summary(results) == [
            ("q(X,Y,e_a) _|_ e_a", 8, True),
            ("q(X,Y,e_0) _|_ X and Y", 2, True),
            ("<q(e_a,Y,e_p),e_a> = -<q(e_a conj(e_p),Y,e_0),e_a>", 64, True),
            ("<q(X,e_a,e_p),e_a> = -<q(X,e_a o conj(e_p),e_0),e_a>", 64, True),
            ("<q(e_a,Y,e_a),e_p> = -<q(e_p conj(e_a),Y,e_0),e_a>", 64, True),
            ("<q(X,e_a,e_a),e_p> = -<q(X,e_p o conj(e_a),e_0),e_a>", 64, True),
            ("sixth identity transposed ordering (informational)", 64, True),
            ("<q(X,Y,Z),Z> = 0 (Z imaginary or e_0)", RECORDED_INSTANCES, True),
            ("<q(X,Y,e_0),X> = 0", RECORDED_INSTANCES, True),
            ("<q(X,Y,e_0),Y> = 0", RECORDED_INSTANCES, True),
            ("<q(X,Y,Z),X> = -<q(X conj(Z),Y,e_0),X>", RECORDED_INSTANCES, True),
            ("<q(X,Y,Z),Y> = -<q(X,Y o conj(Z),e_0),Y>", RECORDED_INSTANCES, True),
            ("<q(X,Y,X),Z> = <q(ZX,Y,e_0),X>", RECORDED_INSTANCES, True),
            ("<q(X,Y,Y),Z> = <q(X,Z o Y,e_0),Y>", RECORDED_INSTANCES, True),
        ]


def test_exchange_suite_catches_a_defect_seen_only_through_the_memo():
    # q(e_1, Y, e_1) gains Y_2 e_3, which is trilinear, so it lands in the
    # table as <q(e_1, e_2, e_1), e_3>: the loop over <q(e_a,Y,e_p),e_a>
    # pairs that triple with e_1 only (a = p = 1) and misses it, and the loop
    # over <q(e_a,Y,e_a),e_p> reads it at (a, p) = (1, 3)
    left = fkm_candidate(Nom(Side.LEFT, E[0]))

    def perturbed(X, Y, Z):
        return on.add(left.eval(X, Y, Z), on.scale(X[1] * Y[2] * Z[1], E[3]))

    cand = QCandidate(QLabel.CUSTOM, left.nom, perturbed)
    passed = {w.identity_name: w.passed for w in exchange_suite(cand)}
    assert passed["<q(e_a,Y,e_p),e_a> = -<q(e_a conj(e_p),Y,e_0),e_a>"]
    assert not passed["<q(e_a,Y,e_a),e_p> = -<q(e_p conj(e_a),Y,e_0),e_a>"]


@pytest.mark.parametrize(
    "q_eval, monomial",
    [
        (lambda X, Y, Z: on.multiply(on.multiply(X, Y), Y), r"X_\d Y_\d\^2"),
        (lambda X, Y, Z: on.multiply(X, Y), r"X_\d Y_\d"),
        (lambda X, Y, Z: on.add(on.multiply(on.multiply(X, Y), Z), on.basis(0)), "1"),
    ],
    ids=["y-squared", "no-z", "constant"],
)
def test_a_candidate_that_is_not_trilinear_is_refused_at_its_table(q_eval, monomial):
    cand = QCandidate(QLabel.CUSTOM, Nom(Side.LEFT, E[0]), q_eval)
    message = rf"component \d has the monomial {monomial}, not trilinear in \(X, Y, Z\)"
    with pytest.raises(ValueError, match=message):
        cand.table
    with pytest.raises(ValueError, match=message):
        exchange_suite(cand)


_rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=7))
_TABLE_CANDIDATES = {}


def _table_candidate(key):
    """The candidate of ``key``, ("fkm", dim, side, t), ("ot", dim) or
    ("thirds", 8), built once for all the examples that draw it.  "thirds"
    is FKM-left plus X_1 Y_2 Z_3 e_4 / 3, so its components do not share one
    denominator."""
    cand = _TABLE_CANDIDATES.get(key)
    if cand is None:
        if key[0] == "ot":
            cand = ot_candidate(key[1])
        elif key[0] == "thirds":
            cand = _moved(fkm_candidate(Nom(Side.LEFT, E[0])), [(1, 2, 3, 4, Fraction(1, 3))])
        else:
            _, dim, side, t = key
            cand = fkm_candidate(nom_from_t(side, t, axis=4 if dim == 8 else 1, dim=dim))
        _TABLE_CANDIDATES[key] = cand
    return cand


@pytest.mark.parametrize(
    "key",
    [("fkm", dim, side, t) for dim in (4, 8) for side in Side for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3))]
    + [("ot", 4), ("ot", 8), ("thirds", 8)],
    ids=lambda key: "-".join(str(getattr(part, "value", part)) for part in key),
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_the_table_contracts_to_eval(key, data):
    cand = _table_candidate(key)
    full = st.lists(_rationals, min_size=cand.dim, max_size=cand.dim).map(tuple)
    X, Y, Z = data.draw(st.tuples(full, full, full))
    value = cand.table.contract(X, Y, Z)
    assert value == cand.eval(X, Y, Z)
    if key[0] == "ot":
        m = _cd_multiply
        assert value == m(on.sub(m(X, Y), m(Y, X)), Z)
    # slots that hold polynomials, one symbolic octet in two slots and
    # products among them, over one ring, each slot possibly rational
    xs, ys, zs = on.symbolic_octets(cand.dim, "xyZ")
    pool = [X, Y, xs, ys, zs, on.multiply(xs, on.conjugate(zs)), circ(cand.nom, zs, ys), on.add(zs, Y)]
    slots = data.draw(st.tuples(*[st.sampled_from(pool)] * 3))
    assert cand.table.contract(*slots) == cand.eval(*slots)


def _exchange_by_evaluation(q):
    """The outcomes of ``exchange_suite``'s seven proved identities with q
    evaluated on symbolic slots, each identity as its statement reads: an
    oracle for the coefficient sums the suite reads off ``q.table``."""
    dim = q.dim
    E = [on.basis(i, dim) for i in range(dim)]
    xs, ys = on.symbolic_octets(dim, "xy")

    def o(u, v):
        return circ(q.nom, u, v)

    def q_in(slot, v, z):
        return q.eval(v, ys, z) if slot == "X" else q.eval(xs, v, z)

    def ap(slot, mul):
        return all(
            not on.inner(q_in(slot, ea, ep), ea) + on.inner(q_in(slot, mul(ea, on.conjugate(ep)), E[0]), ea)
            for ea in E
            for ep in E
        )

    def aa(slot, mul):
        return all(
            not on.inner(q_in(slot, ea, ea), ep) + on.inner(q_in(slot, mul(ep, on.conjugate(ea)), E[0]), ea)
            for ea in E
            for ep in E
        )

    r = q.eval(xs, ys, E[0])
    return [
        all(not on.inner(q.eval(xs, ys, e), e) for e in E),
        not on.inner(r, xs) and not on.inner(r, ys),
        ap("X", on.multiply),
        ap("Y", o),
        aa("X", on.multiply),
        aa("Y", o),
        aa("Y", lambda u, v: o(v, u)),
    ]


def _moved(ref, entries):
    """``ref`` plus c X_i Y_j Z_l e_k for each (i, j, l, k, c) of ``entries``:
    those table entries moved."""
    dim = ref.dim

    def q_eval(X, Y, Z):
        value = ref.eval(X, Y, Z)
        for i, j, l, k, c in entries:
            value = on.add(value, on.scale(c * X[i] * Y[j] * Z[l], on.basis(k, dim)))
        return value

    return QCandidate(QLabel.CUSTOM, ref.nom, q_eval)


def _exchange_outcomes(q):
    results = exchange_suite(q)
    return [w.passed for w in results[:6]] + [results[6].rhs]


C = Fraction(2, 5)
HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "side, t, entries",
    [
        (Side.LEFT, HALF, [(1, 2, 0, 1, C)]),
        (Side.LEFT, HALF, [(1, 2, 1, 3, C)]),
        (Side.LEFT, HALF, [(0, 3, 5, 6, C)]),
        (Side.LEFT, HALF, [(4, 0, 0, 2, C)]),
        (Side.LEFT, HALF, [(2, 2, 2, 2, C)]),
        (Side.LEFT, HALF, [(7, 6, 5, 0, C)]),
        # pairs that cancel in one instance, and only with its conj sign
        (Side.LEFT, HALF, [(0, 2, 0, 3, C), (3, 2, 0, 0, -C)]),
        (Side.LEFT, HALF, [(3, 2, 3, 0, C), (3, 2, 0, 3, C)]),
        (Side.LEFT, HALF, [(2, 0, 3, 0, C), (2, 3, 0, 0, C)]),
        (Side.LEFT, HALF, [(2, 0, 0, 3, C), (2, 3, 0, 0, -C)]),
        # the transposed ordering validates at the right endpoint, and still
        # does with these, which cancel in it only with its conj sign
        (Side.RIGHT, Fraction(0), [(2, 0, 0, 3, C), (2, 3, 0, 0, -C), (2, 3, 3, 3, -C)]),
    ],
    ids=lambda v: "+".join("".join(map(str, e[:4])) for e in v) if isinstance(v, list) else str(getattr(v, "value", v)),
)
def test_exchange_suite_agrees_with_evaluation_on_moved_entries(side, t, entries):
    cand = _moved(fkm_candidate(nom_from_t(side, t)), entries)
    assert _exchange_outcomes(cand) == _exchange_by_evaluation(cand)


@settings(max_examples=30, deadline=None)
@given(
    side=st.sampled_from(list(Side)),
    t=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3)]),
    entries=st.lists(st.tuples(*[st.integers(0, 3)] * 4, st.sampled_from([Fraction(1), Fraction(-3, 7)])), max_size=2),
)
def test_exchange_suite_agrees_with_evaluation_over_the_quaternions(side, t, entries):
    cand = _moved(fkm_candidate(nom_from_t(side, t, axis=1, dim=4)), entries)
    assert _exchange_outcomes(cand) == _exchange_by_evaluation(cand)


def test_skew_suite_evaluates_symbolic_slots_only_for_the_table():
    # every identity reads q's coefficient table, so eval sees symbolic slots
    # once, when the table is built; "skew (Z,W) on samples" is the skew
    # proof's verdict under its schema-v1 name
    cand, seen = _counting(fkm_candidate(nom_from_t(Side.LEFT, HALF)))
    results = skew_suite(cand)
    assert seen == [on.symbolic_octets(8, "XYZ")]
    assert [(w.identity_name, w.inputs["instances"], w.passed) for w in results] == [
        ("<q(U conj V,Y,V),W> = -<q(W conj V,Y,V),U>", 8, True),
        ("<q(X,Y,Z),W> skew in (Z,W)", 1, True),
        ("<q(X,Y,e_0),Z> fully antisymmetric", 2, True),
        ("skew (Z,W) on samples", RECORDED_INSTANCES, True),
    ]


def _with_entry(table, i, j, l, k, w):
    """``table`` with den * T[k; i, j, l] moved by the int w."""
    rows = [[list(row) for row in plane] for plane in table.rows]
    entry = dict(rows[i][j][l])
    entry[k] = entry.get(k, 0) + w
    rows[i][j][l] = tuple((c, v) for c, v in entry.items() if v)
    return TrilinearTable(table.den, rows)


def test_one_perturbed_table_entry_fails_the_uw_exchange():
    # q.eval is untouched: every identity reads the table alone, and the
    # moved entry T[4; 1, 2, 3] breaks the skew in (Z, W) too, which the
    # schema-v1 witness restates
    cand = fkm_candidate(nom_from_t(Side.LEFT, HALF))
    cand.table = _with_entry(cand.table, 1, 2, 3, 4, 1)
    passed = {w.identity_name: w.passed for w in skew_suite(cand)}
    assert not passed["<q(U conj V,Y,V),W> = -<q(W conj V,Y,V),U>"]
    assert not passed["<q(X,Y,Z),W> skew in (Z,W)"] and not passed["skew (Z,W) on samples"]
    assert passed["<q(X,Y,e_0),Z> fully antisymmetric"]


def _skew_by_evaluation(q):
    """The outcomes of ``skew_suite``'s three proved identities with q
    evaluated on symbolic slots, each identity as its statement reads: an
    oracle for the coefficient sums the suite reads off ``q.table``."""
    dim = q.dim
    E = [on.basis(i, dim) for i in range(dim)]
    us, ys, ws = on.symbolic_octets(dim, "UyW")
    xs, ys2, zs, ws2 = on.symbolic_octets(dim, "xyZW")
    X, Y, Z = on.symbolic_octets(dim, "XYZ")

    def r(a, b, c):
        return on.inner(q.eval(a, b, E[0]), c)

    return [
        all(
            not on.inner(q.eval(on.multiply(us, on.conjugate(v)), ys, v), ws)
            + on.inner(q.eval(on.multiply(ws, on.conjugate(v)), ys, v), us)
            for v in E
        ),
        not on.inner(q.eval(xs, ys2, zs), ws2) + on.inner(q.eval(xs, ys2, ws2), zs),
        not r(X, Y, Z) + r(Y, X, Z) and not r(X, Y, Z) + r(X, Z, Y),
    ]


def _skew_outcomes(q):
    return [w.passed for w in skew_suite(q)[:3]]


@pytest.mark.parametrize(
    "side, t, entries",
    [
        (Side.LEFT, HALF, [(1, 2, 3, 4, C)]),
        (Side.LEFT, HALF, [(1, 2, 1, 3, C)]),
        (Side.LEFT, HALF, [(4, 0, 0, 2, C)]),
        (Side.LEFT, HALF, [(2, 0, 0, 3, C)]),
        (Side.LEFT, HALF, [(0, 3, 5, 6, C)]),
        # skew in (Z, W) and antisymmetric at e_0, but not the U/W exchange
        (Side.LEFT, HALF, [(1, 2, 3, 4, C), (1, 2, 4, 3, -C)]),
        # antisymmetric at e_0 and the U/W exchange, but not skew in (Z, W)
        (Side.RIGHT, Fraction(0), [(1, 2, 0, 3, C), (2, 1, 0, 3, -C), (1, 3, 0, 2, -C), (3, 1, 0, 2, C), (2, 3, 0, 1, C), (3, 2, 0, 1, -C)]),
    ],
    ids=lambda v: "+".join("".join(map(str, e[:4])) for e in v) if isinstance(v, list) else str(getattr(v, "value", v)),
)
def test_skew_suite_agrees_with_evaluation_on_moved_entries(side, t, entries):
    cand = _moved(fkm_candidate(nom_from_t(side, t)), entries)
    assert _skew_outcomes(cand) == _skew_by_evaluation(cand)


@settings(max_examples=30, deadline=None)
@given(
    side=st.sampled_from(list(Side)),
    t=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3)]),
    entries=st.lists(st.tuples(*[st.integers(0, 3)] * 4, st.sampled_from([Fraction(1), Fraction(-3, 7)])), max_size=2),
)
def test_skew_suite_agrees_with_evaluation_over_the_quaternions(side, t, entries):
    cand = _moved(fkm_candidate(nom_from_t(side, t, axis=1, dim=4)), entries)
    assert _skew_outcomes(cand) == _skew_by_evaluation(cand)


def _polarised_by_evaluation(q):
    """The outcomes of ``exchange_suite``'s seven polarised identities with
    q evaluated on symbolic slots, each identity as its statement reads: an
    oracle for the tensor and the table contractions the suite reads."""
    dim = q.dim
    X, Y, Z = on.symbolic_octets(dim, "xyZ")
    e0, inner, conj = on.basis(0, dim), on.inner, on.conjugate
    xyz, xy0, im_z = q.eval(X, Y, Z), q.eval(X, Y, e0), on.imaginary_part(Z)
    residuals = [
        inner(q.eval(X, Y, im_z), im_z),
        inner(xy0, X),
        inner(xy0, Y),
        inner(xyz, X) + inner(q.eval(on.multiply(X, conj(Z)), Y, e0), X),
        inner(xyz, Y) + inner(q.eval(X, circ(q.nom, Y, conj(Z)), e0), Y),
        inner(q.eval(X, Y, X), Z) - inner(q.eval(on.multiply(Z, X), Y, e0), X),
        inner(q.eval(X, Y, Y), Z) - inner(q.eval(X, circ(q.nom, Z, Y), e0), Y),
    ]
    return [not r for r in residuals]


def _pairings(q, X, Y, U, V):
    """<q(X,Y,U), XV> and <q(X,Y,U), Y o V>, with q evaluated."""
    val = q.eval(X, Y, U)
    return on.inner(val, on.multiply(X, V)), on.inner(val, circ(q.nom, Y, V))


def _anti_residuals(q):
    """The residuals of ``anti_suite``'s four proved identities with q
    evaluated on symbolic slots and each (U, V) identity multiplied out as
    it reads: an oracle for the tensor and its re-keyed polarisations."""
    xs, ys, ws = on.symbolic_octets(q.dim, "xyW")
    xs2, ys2, us, vs = on.symbolic_octets(q.dim, "xyUV")
    return [*_pairings(q, xs, ys, ws, ws), *on.add(_pairings(q, xs2, ys2, us, vs), _pairings(q, xs2, ys2, vs, us))]


def _anti_by_evaluation(q):
    return [not r for r in _anti_residuals(q)]


def _polarised_and_anti_outcomes(q):
    return [w.passed for w in exchange_suite(q)[7:]], [w.passed for w in anti_suite(q)[:4]]


def _similarity_entries(dim, mul, fixed, u):
    """The entries c X_i Y_j Z_l e_k of C Y_fixed X (Z e_u) (``mul`` the
    algebra product) or C X_fixed Y o (Z e_u) (``mul`` a nom's o), which is
    perpendicular to XZ or to Y o Z: it moves one pairing of the anti
    battery and not the other."""
    E = [on.basis(i, dim) for i in range(dim)]
    out = []
    for a in range(dim):
        for l in range(dim):
            for k, v in enumerate(mul(E[a], on.multiply(E[l], E[u]))):
                if v:
                    out.append((a, fixed, l, k, C * v) if mul is on.multiply else (fixed, a, l, k, C * v))
    return out


@pytest.mark.parametrize(
    "side, t, entries",
    [
        (Side.LEFT, HALF, [(1, 4, 1, 7, C)]),
        (Side.LEFT, HALF, [(6, 5, 0, 5, C)]),
        (Side.LEFT, HALF, [(4, 3, 6, 0, C)]),
        (Side.LEFT, HALF, [(0, 1, 0, 4, C)]),
        (Side.LEFT, Fraction(0), [(1, 0, 0, 6, C)]),
        (Side.RIGHT, HALF, [(6, 5, 7, 1, C), (6, 3, 0, 4, C)]),
        # C Y_2 W: perpendicular to W, so both pairings and their
        # polarisations still vanish, but not every polarised identity holds
        (Side.LEFT, HALF, [(1, 2, l, l, C) for l in range(8)]),
        (Side.RIGHT, Fraction(0), [(1, 2, l, l, C) for l in range(8)]),
        # one pairing moves and the other does not
        (Side.LEFT, HALF, _similarity_entries(8, on.multiply, 2, 3)),
        (Side.RIGHT, HALF, _similarity_entries(8, on.multiply, 2, 1)),
        (Side.LEFT, HALF, _similarity_entries(8, lambda u, v: circ(nom_from_t(Side.LEFT, HALF), u, v), 2, 3)),
    ],
    ids=lambda v: f"{len(v)}-entries-{v[0][:4]}" if isinstance(v, list) else str(getattr(v, "value", v)),
)
def test_polarised_and_anti_batteries_agree_with_evaluation_on_moved_entries(side, t, entries):
    cand = _moved(fkm_candidate(nom_from_t(side, t)), entries)
    assert _polarised_and_anti_outcomes(cand) == (_polarised_by_evaluation(cand), _anti_by_evaluation(cand))


@settings(max_examples=30, deadline=None)
@given(
    side=st.sampled_from(list(Side)),
    t=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3)]),
    entries=st.lists(st.tuples(*[st.integers(0, 3)] * 4, st.sampled_from([Fraction(1), Fraction(-3, 7)])), max_size=2),
)
def test_polarised_and_anti_batteries_agree_with_evaluation_over_the_quaternions(side, t, entries):
    cand = _moved(fkm_candidate(nom_from_t(side, t, axis=1, dim=4)), entries)
    assert _polarised_and_anti_outcomes(cand) == (_polarised_by_evaluation(cand), _anti_by_evaluation(cand))


@pytest.mark.parametrize("dim", [4, 8])
def test_the_re_keyed_polarisations_are_the_direct_products(dim):
    # on a candidate whose pairings do not vanish, each pairing Q(W) of the
    # "xyW" slots, re-keyed, is the (U, V) residual multiplied out in the
    # "xyUV" slots, term for term
    nom = nom_from_t(Side.LEFT, HALF, axis=4 if dim == 8 else 1, dim=dim)
    cand = _moved(fkm_candidate(nom), [(1, 2, 1, 3, C), (2, 3, 0, 1, -C)])
    q_w, direct = _anti_residuals(cand)[:2], _anti_residuals(cand)[2:]
    assert all(direct) and [p.polarised(2 * (dim - 1), dim) for p in q_w] == direct
