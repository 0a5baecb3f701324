from fractions import Fraction
from functools import partial

import pytest

from octoverify import cli
from octoverify import identities
from octoverify import octonion as on
from octoverify.circ import Nom, Side, circ, nom_from_t
from octoverify.identities import QCandidate, QLabel
from octoverify.poly import MultiPoly
from octoverify.report import WitnessReport, proved, sampled
from octoverify.scalars import DeterministicRng, random_rationals


def test_proved_counts_every_instance():
    x = MultiPoly.variable(2, 0)
    w = proved("zero", (x - x for _ in range(5)))
    assert (w.identity_name, w.inputs, w.residual, w.passed) == ("zero", {"instances": 5}, 0, True)
    # a failing instance does not stop the count
    w = proved("one nonzero", [x - x, x, x - x])
    assert (w.inputs, w.residual, w.passed) == ({"instances": 3}, 1, False)
    assert proved("none", []).inputs == {"instances": 0}


def test_proved_judges_plain_rational_residuals_too():
    # an identity whose terms hold no slot leaves a plain rational among the
    # polynomials; a zero one passes and a nonzero one fails
    x = MultiPoly.variable(2, 0)
    w = proved("mixed", [x - x, Fraction(0), 0])
    assert (w.inputs, w.residual, w.passed) == ({"instances": 3}, 0, True)
    w = proved("nonzero constant", [x - x, Fraction(1, 3), x - x])
    assert (w.inputs, w.residual, w.passed) == ({"instances": 3}, 1, False)


# ---------------------------------------------------------------------------
# sampled: symbolic residuals valued at seeded points
# ---------------------------------------------------------------------------


def _xy_residuals(failing):
    """Residuals over the 7 variables of imaginary x and full y at d = 4:
    <x,y> - <y,x>, which vanishes, and x_1 y_0 as well if ``failing``."""
    x, y = on.symbolic_octets(4, "xY")
    return [on.inner(x, y) - on.inner(y, x), *([x[1] * y[0]] if failing else [])], x[1], y[0]


def test_sampled_makes_every_draw_after_a_failing_sample():
    counters = []
    for failing in (False, True):
        rng = DeterministicRng(3)
        residuals, _, _ = _xy_residuals(failing)
        w = sampled("id", residuals, 7, 10, rng)
        assert (w.passed, w.inputs) == (not failing, {"instances": 10})
        counters.append(rng.counter)
    assert counters == [10 * 7 * 2] * 2  # 3 + 4 coordinates, two ints each


def test_sampled_reports_the_worst_value():
    residuals, x1, y0 = _xy_residuals(True)
    w = sampled("id", [*residuals, 2 * x1], 7, 10, DeterministicRng(3))
    coords = random_rationals(DeterministicRng(3), 5, 70)
    points = [coords[i : i + 7] for i in range(0, 70, 7)]
    # x_1 is a point's first coordinate and y_0 its fourth
    assert w.residual == max(max(abs(p[0] * p[3]), abs(2 * p[0])) for p in points) > 0
    assert not w.passed


def _vanishing_at_the_first(n, seed):
    """A polynomial in one variable that vanishes at the first ``n`` of the
    points ``sampled`` draws from ``DeterministicRng(seed)``, and the point
    after them."""
    *first, last = random_rationals(DeterministicRng(seed), 5, n + 1)
    x = MultiPoly.variable(1, 0)
    p = MultiPoly.const(1, 1)
    for a in set(first):
        p = p * (x - a)
    return p, last


def test_sampled_catches_a_defect_in_the_last_sample_only():
    p, last = _vanishing_at_the_first(9, 3)
    bad = sampled("id", [p], 1, 10, DeterministicRng(3))
    assert bad.residual == abs(p.eval([last])) > 0 and not bad.passed
    assert sampled("id", [p], 1, 9, DeterministicRng(3)).passed


def test_sampled_passes_when_the_defect_is_never_drawn():
    p, _ = _vanishing_at_the_first(25, 4)
    rng = DeterministicRng(4)
    ok = sampled("id", [p], 1, 25, rng)
    assert ok.passed and ok.residual == 0 and rng.counter == 25 * 2
    assert p.eval([Fraction(7)])  # p is not the zero polynomial


def test_sampled_counts_a_plain_rational_value_once():
    rng = DeterministicRng(3)
    w = sampled("constant", [Fraction(-2, 3), MultiPoly.zero(4), Fraction(1, 2)], 4, 150, rng)
    assert w.residual == Fraction(2, 3) and not w.passed and w.inputs == {"instances": 150}
    assert rng.counter == 150 * 4 * 2


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_refuses_a_witness_over_no_draws(samples):
    rng = DeterministicRng(3)
    with pytest.raises(ValueError, match="at least one sample"):
        sampled("none", [MultiPoly.variable(4, 0)], 4, samples, rng)
    assert rng.counter == 0


# ---------------------------------------------------------------------------
# the driver against the per-draw loop on rational slots
# ---------------------------------------------------------------------------


def draw_slots(rng, dim, letters, bound=5):
    """Seeded rational slots in the layout of ``on.symbolic_octets``: each
    letter's coordinates one ``random_rationals`` call, letter by letter,
    and slot 0 of a lowercase letter 0, drawing nothing."""
    return tuple(tuple([Fraction(0)] * ch.islower() + random_rationals(rng, bound, dim - ch.islower())) for ch in letters)


def reference_sampled(name, samples, draw, residuals):
    """The per-draw driver: ``residuals`` on each draw's own rational slots."""
    worst = Fraction(0)
    for _ in range(samples):
        for v in residuals(*draw()):
            if v:
                worst = max(worst, abs(v))
    return WitnessReport(name, {"instances": samples}, None, None, worst, worst == 0)


def _both(samples, dim, letters, residuals, bound=6):
    """(witness JSON, generator counter) of ``sampled`` on the symbolic
    residuals and of the per-draw loop on rational slots."""
    rng = DeterministicRng(23)
    slots = on.symbolic_octets(dim, letters)
    nvars = sum(dim - ch.islower() for ch in letters)
    w = sampled("id", residuals(*slots), nvars, samples, rng, bound)
    out = [(w.to_json(), rng.counter)]
    rng = DeterministicRng(23)
    w = reference_sampled("id", samples, lambda: draw_slots(rng, dim, letters, bound), residuals)
    return out + [(w.to_json(), rng.counter)]


HALF = nom_from_t(Side.LEFT, Fraction(1, 2))
QUATERNION_HALF = nom_from_t(Side.RIGHT, Fraction(1, 2), axis=1, dim=4)
_product = on.multiply


def _not_orthogonal(x, y):
    """xy + x_1 y_2 e_3: neither norm-multiplicative nor exchange-symmetric."""
    return on.add(_product(x, y), on.scale(x[1] * y[2], on.basis(3, len(x))))


@pytest.mark.parametrize(
    "samples, dim, letters, residuals, passes",
    [
        (20, 8, "XYZ", partial(on.exchange_defects, on.multiply), True),
        (20, 8, "XYZ", partial(on.exchange_defects, partial(circ, HALF)), True),
        (20, 8, "XYZ", partial(on.exchange_defects, _not_orthogonal), False),
        (130, 8, "XY", lambda x, y: (on.norm_defect(partial(circ, HALF), x, y),), True),
        (130, 8, "XY", lambda x, y: (on.norm_defect(_not_orthogonal, x, y),), False),
        (40, 4, "XYZ", partial(on.exchange_defects, partial(circ, QUATERNION_HALF)), True),
        (40, 4, "XYZ", partial(on.exchange_defects, _not_orthogonal), False),
        (40, 4, "xyZ", lambda x, y, z: (on.inner(on.multiply(x, y), z) + on.inner(on.multiply(y, x), z),), False),
        (40, 8, "xyZ", lambda x, y, z: (on.inner(on.multiply(x, y), z) + on.inner(on.multiply(y, x), z),), False),
        (40, 8, "xYz", lambda x, y, z: (on.inner(on.multiply(x, z), y) + on.inner(x, on.multiply(y, z)),), True),
    ],
    ids=[
        "product",
        "circ t=1/2",
        "defective product",
        "norm circ t=1/2",
        "norm defective product",
        "quaternion circ t=1/2",
        "quaternion defective product",
        "quaternion imaginary slots",
        "imaginary slots",
        "imaginary slots passing",
    ],
)
def test_sampled_equals_the_per_sample_loop(samples, dim, letters, residuals, passes):
    symbolic, reference = _both(samples, dim, letters, residuals)
    assert symbolic == reference
    assert symbolic[0]["pass"] is passes


def test_algebra_suite_equals_the_per_sample_loop(monkeypatch):
    # the algebra suite's two sampled checks with a planted product defect,
    # at d = 4 and d = 8, against the per-draw loop on the same generator
    monkeypatch.setattr(on, "multiply", _not_orthogonal)
    for algebra in ("quaternion", "octonion"):
        cfg = cli.RunConfig(algebra=algebra, seed=16, suites=("algebra",), trials=40)
        rng = DeterministicRng(16)
        checks = {c.name: c for c in cli.suite_algebra(cfg, rng, None).checks}
        dim, ref_rng = cfg.dim, DeterministicRng(16)
        norm = reference_sampled(
            "norm_multiplicativity",
            40,
            lambda: draw_slots(ref_rng, dim, "XY", 6),
            lambda x, y: (on.norm_defect(_not_orthogonal, x, y),),
        )
        exchange = reference_sampled(
            "exchange_identities",
            40,
            lambda: draw_slots(ref_rng, dim, "XYZ", 6),
            lambda x, y, z: (
                on.inner(on.conjugate(x), on.conjugate(y)) - on.inner(x, y),
                *on.exchange_defects(_not_orthogonal, x, y, z),
            ),
        )
        for w in (norm, exchange):
            check = checks[w.identity_name]
            assert (check.passed, check.residual) == (w.passed, w.residual)
            assert not w.passed
        assert rng.counter == ref_rng.counter


def _reference_batteries(q, rng, samples):
    """The sampled witnesses of the exchange, skew and anti batteries, in
    their order, each identity restated on the rational slots of the
    per-draw loop."""
    dim, e0, o = q.dim, on.basis(0, q.dim), partial(circ, q.nom)
    inner, mul, conj, im = on.inner, on.multiply, on.conjugate, on.imaginary_part
    exchange = {
        "<q(X,Y,Z),Z> = 0 (Z imaginary or e_0)": lambda X, Y, Z: inner(q.eval(X, Y, im(Z)), im(Z)),
        "<q(X,Y,e_0),X> = 0": lambda X, Y, Z: inner(q.eval(X, Y, e0), X),
        "<q(X,Y,e_0),Y> = 0": lambda X, Y, Z: inner(q.eval(X, Y, e0), Y),
        "<q(X,Y,Z),X> = -<q(X conj(Z),Y,e_0),X>": lambda X, Y, Z: inner(q.eval(X, Y, Z), X)
        + inner(q.eval(mul(X, conj(Z)), Y, e0), X),
        "<q(X,Y,Z),Y> = -<q(X,Y o conj(Z),e_0),Y>": lambda X, Y, Z: inner(q.eval(X, Y, Z), Y)
        + inner(q.eval(X, o(Y, conj(Z)), e0), Y),
        "<q(X,Y,X),Z> = <q(ZX,Y,e_0),X>": lambda X, Y, Z: inner(q.eval(X, Y, X), Z) - inner(q.eval(mul(Z, X), Y, e0), X),
        "<q(X,Y,Y),Z> = <q(X,Z o Y,e_0),Y>": lambda X, Y, Z: inner(q.eval(X, Y, Y), Z) - inner(q.eval(X, o(Z, Y), e0), Y),
    }
    out = [
        reference_sampled(name, samples, lambda: draw_slots(rng, dim, "xyZ"), lambda *s, f=f: (f(*s),))
        for name, f in exchange.items()
    ]
    out.append(
        reference_sampled(
            "skew (Z,W) on samples",
            samples,
            lambda: draw_slots(rng, dim, "xyZW"),
            lambda X, Y, Z, W: (inner(q.eval(X, Y, Z), W) + inner(q.eval(X, Y, W), Z),),
        )
    )
    out.append(
        reference_sampled(
            "vanishing pairings on samples",
            samples,
            lambda: draw_slots(rng, dim, "xyW"),
            lambda X, Y, W: (inner(q.eval(X, Y, W), mul(X, W)), inner(q.eval(X, Y, W), o(Y, W))),
        )
    )
    return [w.to_json() for w in out]


@pytest.mark.parametrize("dim", [4, 8])
def test_batteries_of_a_failing_candidate_equal_the_per_sample_loop(dim):
    # q = (XY)Z is not an exchange-symmetric third form: the batteries record
    # nonzero sampled residuals, which both drivers must agree on
    nom = Nom(Side.LEFT, on.basis(0, dim)) if dim == 4 else HALF
    cand = QCandidate(QLabel.CUSTOM, nom, lambda X, Y, Z: on.multiply(on.multiply(X, Y), Z))
    ref_rng = DeterministicRng(5)
    reference = _reference_batteries(cand, ref_rng, 30)
    names = {w["identity"] for w in reference}
    rng = DeterministicRng(5)
    witnesses = [
        w.to_json()
        for battery in (identities.exchange_suite, identities.skew_suite, identities.anti_suite)
        for w in battery(cand, rng, samples=30)
        if w.identity_name in names
    ]
    assert witnesses == reference
    assert rng.counter == ref_rng.counter
    assert any(w["residual"] != "0" for w in witnesses)
