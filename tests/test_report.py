from fractions import Fraction
from functools import partial

import pytest

from octoverify import cli
from octoverify import identities
from octoverify import octonion as on
from octoverify.circ import Nom, Side, circ, nom_from_t
from octoverify.identities import QCandidate, QLabel
from octoverify.poly import MultiPoly
from octoverify.report import SAMPLES_PER_CHUNK, WitnessReport, proved, sampled
from octoverify.scalars import DeterministicRng


def test_proved_counts_every_instance():
    x = MultiPoly.variable(2, 0)
    w = proved("zero", (x - x for _ in range(5)))
    assert (w.identity_name, w.inputs, w.residual, w.passed) == ("zero", {"instances": 5}, 0, True)
    # a failing instance does not stop the count
    w = proved("one nonzero", [x - x, x, x - x])
    assert (w.inputs, w.residual, w.passed) == ({"instances": 3}, 1, False)
    assert proved("none", []).inputs == {"instances": 0}


def _run(sample, values, samples=10):
    """``sampled`` on a check whose values are ``values`` at draw number
    ``sample`` (counted from 1) and vanish at every other draw: the defect is
    planted through a marker slot, (1,) at that draw and (0,) elsewhere.
    Returns the witness, the generator's counter and the residual calls."""
    rng = DeterministicRng(3)
    drawn = []
    calls = []

    def draw():
        drawn.append(1)
        return (*on.random_octets(rng, 4, "xY"), (int(len(drawn) == sample),))

    def residuals(x, y, marker):
        calls.append(1)
        (m,) = marker
        return (*(m * v for v in values), on.inner(x, y) - on.inner(y, x))

    w = sampled("id", samples, draw, residuals)
    return w, rng.counter, len(calls)


def test_sampled_makes_every_draw_after_a_failing_sample():
    ok, drawn_ok, _ = _run(0, ())
    bad, drawn_bad, _ = _run(1, (Fraction(-3), Fraction(2)))
    assert ok.passed and ok.residual == 0 and ok.inputs == {"instances": 10}
    assert drawn_ok == drawn_bad == 10 * 7 * 2  # 3 + 4 coordinates, two ints each
    assert not bad.passed and bad.inputs == {"instances": 10}


def test_sampled_reports_the_worst_value():
    bad, _, _ = _run(4, (Fraction(1, 2), Fraction(-3), Fraction(2)))
    assert bad.residual == 3 and not bad.passed


def test_sampled_catches_a_defect_in_the_last_sample_only():
    bad, _, _ = _run(10, (Fraction(1, 7),))
    assert bad.residual == Fraction(1, 7) and not bad.passed
    assert _run(11, (Fraction(1, 7),))[0].passed


@pytest.mark.parametrize(
    "sample", [1, SAMPLES_PER_CHUNK, SAMPLES_PER_CHUNK + 1, 2 * SAMPLES_PER_CHUNK, 2 * SAMPLES_PER_CHUNK + 1, 250]
)
def test_sampled_catches_a_defect_at_either_end_of_a_chunk(sample):
    # 250 samples are two full chunks and a part chunk of 50
    samples = 2 * SAMPLES_PER_CHUNK + 50
    bad, drawn, calls = _run(sample, (Fraction(-5, 3),), samples)
    assert bad.residual == Fraction(5, 3) and not bad.passed and bad.inputs == {"instances": samples}
    assert drawn == samples * 7 * 2 and calls == 3


def test_sampled_passes_when_the_defect_is_never_drawn():
    samples = 2 * SAMPLES_PER_CHUNK + 50
    ok, drawn, calls = _run(samples + 1, (Fraction(1),), samples)
    assert ok.passed and ok.residual == 0 and drawn == samples * 7 * 2 and calls == 3


def test_sampled_counts_a_plain_rational_value_once():
    w = sampled("constant", 150, lambda: (on.zero(4),), lambda x: (Fraction(-2, 3), Fraction(1, 2)))
    assert w.residual == Fraction(2, 3) and not w.passed


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_refuses_a_witness_over_no_draws(samples):
    drawn = []
    with pytest.raises(ValueError, match="at least one sample"):
        sampled("none", samples, lambda: drawn.append(1) or (on.zero(4),), lambda x: ())
    assert drawn == []


# ---------------------------------------------------------------------------
# the batched driver against the per-sample loop it replaced
# ---------------------------------------------------------------------------


def reference_sampled(name, samples, draw, residuals):
    """The per-sample driver: ``residuals`` on each draw's own rational slots."""
    worst = Fraction(0)
    for _ in range(samples):
        for v in residuals(*draw()):
            if v:
                worst = max(worst, abs(v))
    return WitnessReport(name, {"instances": samples}, None, None, worst, worst == 0)


def _both(samples, letters, residuals, dim=8):
    """(witness JSON, generator counter) of both drivers on the same draws."""
    out = []
    for driver in (sampled, reference_sampled):
        rng = DeterministicRng(23)
        w = driver("id", samples, lambda: on.random_octets(rng, dim, letters, bound=6), residuals)
        out.append((w.to_json(), rng.counter))
    return out


HALF = nom_from_t(Side.LEFT, Fraction(1, 2))


def _not_orthogonal(x, y):
    """xy + x_1 y_2 e_3: neither norm-multiplicative nor exchange-symmetric."""
    return on.add(on.multiply(x, y), on.scale(x[1] * y[2], on.basis(3, len(x))))


@pytest.mark.parametrize(
    "samples, letters, residuals, passes",
    [
        (20, "XYZ", partial(on.exchange_defects, on.multiply), True),
        (20, "XYZ", partial(on.exchange_defects, partial(circ, HALF)), True),
        (20, "XYZ", partial(on.exchange_defects, _not_orthogonal), False),
        (SAMPLES_PER_CHUNK + 30, "XY", lambda x, y: (on.norm_defect(partial(circ, HALF), x, y),), True),
        (SAMPLES_PER_CHUNK + 30, "XY", lambda x, y: (on.norm_defect(_not_orthogonal, x, y),), False),
    ],
    ids=["product", "circ t=1/2", "defective product", "norm circ t=1/2", "norm defective product"],
)
def test_sampled_equals_the_per_sample_loop(samples, letters, residuals, passes):
    batched, reference = _both(samples, letters, residuals)
    assert batched == reference
    assert batched[0]["pass"] is passes


def test_algebra_suite_equals_the_per_sample_loop(monkeypatch):
    # seed 16 draws x = 0 in sample 32 of the perpendicular rules, where z is
    # not drawn, and 250 trials end in a part chunk
    cfg = cli.RunConfig(algebra="quaternion", seed=16, suites=("algebra",), trials=250)
    runs = []
    for driver in (sampled, reference_sampled):
        monkeypatch.setattr(cli, "sampled", driver)
        rng = DeterministicRng(16)
        runs.append((cli.suite_algebra(cfg, rng, None).to_json(), rng.counter))
    assert runs[0] == runs[1] and runs[0][0]["pass"]


@pytest.mark.parametrize("dim", [4, 8])
def test_batteries_of_a_failing_candidate_equal_the_per_sample_loop(monkeypatch, dim):
    # q = (XY)Z is not an exchange-symmetric third form: the batteries record
    # nonzero sampled residuals, which both drivers must agree on
    cand = QCandidate(QLabel.CUSTOM, Nom(Side.LEFT, on.basis(0, dim)), lambda X, Y, Z: on.multiply(on.multiply(X, Y), Z))
    runs = []
    for driver in (sampled, reference_sampled):
        monkeypatch.setattr(identities, "sampled", driver)
        rng = DeterministicRng(5)
        witnesses = [
            w.to_json()
            for battery in (identities.exchange_suite, identities.skew_suite, identities.anti_suite)
            for w in battery(cand, rng, samples=30)
        ]
        runs.append((witnesses, rng.counter))
    assert runs[0] == runs[1]
    assert any(w["inputs"] == {"instances": 30} and w["residual"] != "0" for w in runs[0][0])
