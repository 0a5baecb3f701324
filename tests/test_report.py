from fractions import Fraction

from octoverify import octonion as on
from octoverify.poly import MultiPoly
from octoverify.report import proved, sampled
from octoverify.scalars import DeterministicRng


def test_proved_counts_every_instance():
    x = MultiPoly.variable(2, 0)
    w = proved("zero", (x - x for _ in range(5)))
    assert (w.identity_name, w.inputs, w.residual, w.passed) == ("zero", {"instances": 5}, 0, True)
    # a failing instance does not stop the count
    w = proved("one nonzero", [x - x, x, x - x])
    assert (w.inputs, w.residual, w.passed) == ({"instances": 3}, 1, False)
    assert proved("none", []).inputs == {"instances": 0}


def _run(residuals, samples=10):
    rng = DeterministicRng(3)
    w = sampled("id", samples, lambda: on.random_octets(rng, 4, "xY"), residuals)
    return w, rng.counter


def _failing_at(sample, values):
    calls = []

    def residuals(x, y):
        calls.append(1)
        return values if len(calls) == sample else (on.inner(x, y) - on.inner(y, x),)

    return residuals


def test_sampled_makes_every_draw_after_a_failing_sample():
    ok, drawn_ok = _run(_failing_at(0, ()))
    bad, drawn_bad = _run(_failing_at(1, (Fraction(-3), Fraction(2))))
    assert ok.passed and ok.residual == 0 and ok.inputs == {"instances": 10}
    assert drawn_ok == drawn_bad == 10 * 7 * 2  # 3 + 4 coordinates, two ints each
    assert not bad.passed and bad.inputs == {"instances": 10}


def test_sampled_reports_the_worst_value():
    bad, _ = _run(_failing_at(4, (Fraction(1, 2), Fraction(-3), Fraction(2))))
    assert bad.residual == 3 and not bad.passed


def test_sampled_catches_a_defect_in_the_last_sample_only():
    bad, _ = _run(_failing_at(10, (Fraction(1, 7),)))
    assert bad.residual == Fraction(1, 7) and not bad.passed
    assert _run(_failing_at(11, (Fraction(1, 7),)))[0].passed
