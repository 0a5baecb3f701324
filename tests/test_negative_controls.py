"""Negative controls for the proved checks of the algebra and nom suites: a
planted defect must fail exactly the checks that state the identity it
breaks.  The norm identity of the identities suite gets a perturbed
candidate, the Muenzner suite a perturbed F, the q* batteries a closed
form with one component negated, the mirror suite a negated closed second
form, and the clifford suite a change of basis that is not orthogonal (the
last five tests).  A norm defect that vanishes on a coordinate plane must
fail the algebra suite at one trial, where a seeded draw could miss it.

A defect is a monkeypatch of table entries or of alpha, planted in the
product that the checks under test see (``on.multiply``, the ``circ`` the
nom suite or ``verify_normalized`` calls, the nom the quaternionic
restriction builds).  The generators J_a and each nom's operators U_a are
read off the unpatched tables, so the suites' preconditions still hold and
the identities' own checks are the ones that fail.  A defect in the octonion
table itself stops both suites at a precondition instead (the last test).
The scaled-alpha control of ``verify_normalized`` is in ``test_circ.py``."""

from fractions import Fraction

import pytest

from octoverify import circ as circ_module
from octoverify import cli, identities, mirror
from octoverify import octonion as on
from octoverify.circ import Side, nom_from_t, verify_normalized
from octoverify.linalg import Op
from octoverify.identities import QCandidate, QLabel, fkm_candidate, norm_identity_check
from octoverify.mirror import q_star_fkm_eval
from octoverify.poly import MultiPoly, monomial_key
from octoverify.scalars import sum_zero
from octoverify.systems import fkm_formula_forms, fkm_polynomial

HALF = Fraction(1, 2)
E56 = [(5, 6), (6, 5)]  # e5 e6 and e6 e5: both factors outside the quaternions
E12 = [(1, 2), (2, 1)]  # e1 e2 and e2 e1: inside the quaternions


def negated(table: on.ProductTable, pairs) -> on.ProductTable:
    """``table`` with e_a e_b negated for each (a, b) in ``pairs``."""
    entries = [list(row) for row in table.entries]
    for a, b in pairs:
        entries[a][b] = on.neg(entries[a][b])
    return on.ProductTable(entries)


def defective_product(pairs):
    """The octonion product with the entries ``pairs`` of its table negated."""
    bad = negated(on.PRODUCT_TABLES[8], pairs)
    return lambda x, y: bad.product(x, y, sum_zero(x, y))


def defective_circ(pairs):
    """x o y with the entries ``pairs`` of each nom's table negated."""
    tables = {}

    def mul(nom, x, y):
        bad = tables.get(nom)
        if bad is None:
            bad = tables[nom] = negated(nom.table, pairs)
        return bad.product(x, y, sum_zero(nom.alpha, x, y))

    return mul


def axis_outside_h(side, t, axis=4, dim=8):
    """``nom_from_t`` with alpha's axis e_4, outside the quaternions, whatever
    axis is asked for."""
    return nom_from_t(side, t, axis=4, dim=dim)


# planted defect: (module, attribute, replacement, suite, the suite's failing checks)
CONTROLS = {
    "product e5e6 e6e5 negated": (
        on,
        "multiply",
        defective_product(E56),
        "algebra",
        ["table_matches_cayley_dickson_oracle", "norm_multiplicativity", "exchange_identities", "perpendicular_imaginary_rules"],
    ),
    "product e1e2 e2e1 negated": (
        on,
        "multiply",
        defective_product(E12),
        "algebra",
        [
            "table_matches_cayley_dickson_oracle",
            "norm_multiplicativity",
            "exchange_identities",
            "perpendicular_imaginary_rules",
            "quaternion_subspan_closed_associative",
        ],
    ),
    "suite circ e5e6 e6e5 negated": (cli, "circ", defective_circ(E56), "nom", ["circ_exchange_identities"]),
    "suite circ e1e2 e2e1 negated": (
        cli,
        "circ",
        defective_circ(E12),
        "nom",
        ["circ_exchange_identities", "quaternionic_restriction"],
    ),
    "verify_normalized circ e5e6 e6e5 negated": (circ_module, "circ", defective_circ(E56), "nom", ["verify_normalized"]),
    "alpha axis outside H": (cli, "nom_from_t", axis_outside_h, "nom", ["quaternionic_restriction"]),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("control", list(CONTROLS))
def test_a_planted_defect_fails_exactly_its_checks(monkeypatch, control, side):
    owner, name, value, suite, failing = CONTROLS[control]
    monkeypatch.setattr(owner, name, value)
    report, code = cli.run(cli.RunConfig(alpha_t=HALF, side=side, suites=(suite,), trials=20))
    assert code == 1
    assert {s["name"]: [c["name"] for c in s["checks"] if not c["pass"]] for s in report["suites"]} == {suite: failing}


def test_norm_multiplicativity_fails_on_a_defect_that_vanishes_where_x1_y1_does(monkeypatch):
    # |xy|^2 - |x|^2 |y|^2 + x_1 y_1 is zero wherever x_1 or y_1 is: the one
    # point that a sampled check once drew at seed 16 has such a zero, and
    # passed the defect
    norm_defect = on.norm_defect
    monkeypatch.setattr(on, "norm_defect", lambda mul, x, y: norm_defect(mul, x, y) + x[1] * y[1])
    report, code = cli.run(cli.RunConfig(algebra="quaternion", seed=16, suites=("algebra",), trials=1))
    assert code == 1
    assert {s["name"]: [c["name"] for c in s["checks"] if not c["pass"]] for s in report["suites"]} == {
        "algebra": ["norm_multiplicativity"]
    }


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_norm_multiplicativity_fails_on_a_defective_circ(monkeypatch, side):
    nom = nom_from_t(side, HALF)
    assert verify_normalized(nom).passed
    monkeypatch.setattr(circ_module, "circ", defective_circ(E56))
    # e_0 o x and the operators U_a are read off the intact table
    assert verify_normalized(nom).failing() == ["norm_multiplicativity"]


def test_the_sweep_fails_verify_normalized_at_every_t(monkeypatch):
    monkeypatch.setattr(circ_module, "circ", defective_circ(E56))
    reports, code = cli.sweep_theta(cli.RunConfig(suites=("classify",)), [Fraction(0), HALF, Fraction(1)])
    assert code == 1
    assert [[c["name"] for c in r["suites"][0]["checks"] if not c["pass"]] for r in reports] == [["verify_normalized"]] * 3


def test_a_defect_in_the_octonion_table_itself_stops_the_suites_at_a_precondition(monkeypatch, capsys):
    monkeypatch.setitem(on.PRODUCT_TABLES, 8, negated(on.PRODUCT_TABLES[8], E56))
    report, code = cli.run(cli.RunConfig(alpha_t=HALF, suites=("algebra", "nom"), trials=20))
    assert code == 1
    assert [[(c["name"], c["detail"]) for c in s["checks"]] for s in report["suites"]] == [
        [("completed", "ValueError: not a full irreducible system: product of generators is not +-Id")],
        [("completed", "ValueError: A#_5 is not skew-symmetric")],
    ]
    capsys.readouterr()


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_the_norm_identity_fails_on_a_perturbed_candidate(side):
    nom = nom_from_t(side, HALF)
    fkm = lambda X, Y, Z: q_star_fkm_eval(nom, X, Y, Z)
    assert norm_identity_check(fkm_candidate(nom))
    # components that differ from FKM's but keep its norm pass through the norms
    negated_q = QCandidate(QLabel.CUSTOM, nom, lambda X, Y, Z: on.neg(fkm(X, Y, Z)))
    assert negated_q.tensor != fkm_candidate(nom).tensor
    assert norm_identity_check(negated_q)
    # adding <X, Y> Z changes the norm
    perturbed = QCandidate(QLabel.CUSTOM, nom, lambda X, Y, Z: on.add(fkm(X, Y, Z), on.scale(on.inner(X, Y), Z)))
    assert not norm_identity_check(perturbed)


@pytest.mark.parametrize("algebra, side", [("octonion", "left"), ("octonion", "right"), ("quaternion", "left")])
def test_the_munzner_suite_fails_on_a_perturbed_f(monkeypatch, algebra, side):
    # F + x0 x1 x2 x3 is still homogeneous of degree 4 and harmonic in the
    # added term, so only the gradient identity breaks, for both F the suite
    # builds; the focal point has a zero among x0..x3, so F there is unchanged
    def planted(system):
        f = fkm_polynomial(system)
        return f + MultiPoly(f.nvars, {monomial_key(0, 1, 2, 3): 1})

    monkeypatch.setattr(cli, "fkm_polynomial", planted)
    report, code = cli.run(cli.RunConfig(algebra=algebra, alpha_t=HALF, side=side, suites=("munzner",), trials=20))
    assert code == 1
    (suite,) = report["suites"]
    assert [c["name"] for c in suite["checks"] if not c["pass"]] == [
        "fkm_munzner_exact",
        "fkm_munzner_randomized_agrees",
        "ot_munzner_exact",
    ]
    for name in ("fkm_munzner_exact", "ot_munzner_exact"):
        detail = next(c["detail"] for c in suite["checks"] if c["name"] == name)
        assert detail["gradient_identity"]["residual_terms"] > 0
        assert detail["laplacian_identity"]["sign"] != 0


def negated_component(k):
    """``q_star_fkm_eval`` with component k of its value negated."""

    def q(nom, x, y, z):
        v = list(q_star_fkm_eval(nom, x, y, z))
        v[k] = -v[k]
        return tuple(v)

    return q


# the checks that fail when component 3 of q*_FKM is negated, by t
Q_STAR_FAILING = {
    Fraction(0): {
        "mirror": ["extracted_q_matches_closed_form", "gradient_pair_identity", "p_dot_q"],
        "identities": ["fkm_exchange_battery", "fkm_skew_battery", "fkm_anti_battery", "cor69_endpoints"],
        "classify": ["completed"],
    },
    HALF: {
        "mirror": ["extracted_q_matches_closed_form", "gradient_pair_identity", "p_dot_q"],
        "identities": [
            "fkm_exchange_battery",
            "fkm_skew_battery",
            "fkm_anti_battery",
            "r_classification_perpendicular",
            "cor69_endpoints",
        ],
        "classify": ["completed"],
    },
}


@pytest.mark.parametrize("t", sorted(Q_STAR_FAILING))
def test_the_q_star_batteries_fail_on_a_negated_component(monkeypatch, capsys, t):
    # the negated form keeps |q*|^2, so the norm identity still passes; the
    # classifier refuses the FKM candidates whose batteries failed
    bad = negated_component(3)
    monkeypatch.setattr(mirror, "q_star_fkm_eval", bad)
    monkeypatch.setattr(identities, "q_star_fkm_eval", bad)
    report, code = cli.run(cli.RunConfig(alpha_t=t, suites=("mirror", "identities", "classify"), trials=20))
    assert code == 1
    assert {s["name"]: [c["name"] for c in s["checks"] if not c["pass"]] for s in report["suites"]} == Q_STAR_FAILING[t]
    capsys.readouterr()


@pytest.mark.parametrize(
    "algebra, t",
    [("octonion", Fraction(0)), ("octonion", HALF), ("quaternion", Fraction(0))],
    ids=["octonion t=0", "octonion t=1/2", "quaternion t=0"],
)
def test_the_mirror_suite_fails_on_a_negated_closed_second_form(monkeypatch, algebra, t):
    # the expansion forms extracted from F no longer match the closed p*;
    # the matrix-route check reads the intact formula inside systems
    monkeypatch.setattr(cli, "fkm_formula_forms", lambda nom: [-p for p in fkm_formula_forms(nom)])
    report, code = cli.run(cli.RunConfig(algebra=algebra, alpha_t=t, suites=("mirror",), trials=20))
    assert code == 1
    assert {s["name"]: [c["name"] for c in s["checks"] if not c["pass"]] for s in report["suites"]} == {
        "mirror": ["extracted_p_matches_formula"]
    }


def test_the_clifford_suite_fails_on_a_non_orthogonal_change_of_basis(monkeypatch, capsys):
    # 2 Id in place of the random orthogonal O: the A-system O J_a squares to
    # -4 Id, so normalizing it raises and the suite records one failing check
    monkeypatch.setattr(cli, "random_rational_orthogonal", lambda rng, n: Op.identity(n) * 2)
    report, code = cli.run(cli.RunConfig(suites=("clifford",), trials=20))
    assert code == 1
    assert [[(c["name"], c["pass"], c["detail"]) for c in s["checks"]] for s in report["suites"]] == [
        [("completed", False, "ValueError: A-system relations fail first at pair (1, 1)")]
    ]
    capsys.readouterr()
