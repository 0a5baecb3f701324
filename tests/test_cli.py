import json
from fractions import Fraction

import pytest

from octoverify import identities
from octoverify import octonion as on
from octoverify.circ import Nom, Side, circ_definition
from octoverify.cli import (
    ALL_SUITES,
    RunConfig,
    RunContext,
    build_parser,
    change_of_basis,
    main,
    run,
    suite_nom_float,
    sweep_theta,
)
from octoverify.linalg import Op
from octoverify.poly import MultiPoly, monomial_key
from octoverify.report import Report, WitnessReport

SMALL = ("algebra", "clifford")


def small_cfg(**kw):
    base = dict(alpha_t=Fraction(0), suites=SMALL, trials=60, seed=3)
    base.update(kw)
    return RunConfig(**base)


def test_run_passes_small():
    report, code = run(small_cfg())
    assert code == 0 and report["pass"]
    assert report["schema_version"] == "1"
    assert {s["name"] for s in report["suites"]} == set(SMALL)


def test_run_deterministic_modulo_timing():
    r1, _ = run(small_cfg())
    r2, _ = run(small_cfg())
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_timing_records_each_selected_suite_in_order():
    from octoverify.report import validate_report

    for cfg in (small_cfg(suites=("clifford", "algebra")), small_cfg(mode="float", theta=0.8, suites=("munzner", "clifford"))):
        report, code = run(cfg)
        assert code == 0
        suites = report["timing"]["suites"]
        assert list(suites) == list(cfg.suites)
        assert all(isinstance(v, float) and v >= 0 for v in suites.values())
        assert report["timing"]["total_s"] >= 0
        validate_report(report)


def test_config_errors_exit_2():
    bad = RunConfig(algebra="fancy")
    report, code = run(bad)
    assert code == 2 and "error" in report
    with pytest.raises(ValueError):
        RunConfig(suites=("nope",)).validate()
    with pytest.raises(ValueError):
        RunConfig(mode="float", theta=None, alpha_t=None).validate()
    with pytest.raises(ValueError):
        RunConfig(mode="exact", alpha_t=None).validate()
    assert main(["--alpha-t", "1/2", "--suites", "nonsense"]) == 2


def _fail_if_run(*args):
    raise AssertionError("the run started")


@pytest.mark.parametrize("flag", ["--out", "--dump-poly"])
def test_an_unwritable_path_is_a_config_error_before_the_run(flag, tmp_path, monkeypatch, capsys):
    import octoverify.cli as cli

    monkeypatch.setattr(cli, "run", _fail_if_run)
    monkeypatch.setattr(cli, "RunContext", _fail_if_run)
    path = tmp_path / "missing" / "file"
    assert main(["--algebra", "quaternion", "--suites", "clifford", flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not path.parent.exists()


def test_alpha_t_zero_denominator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--alpha-t", "1/0", "--suites", "algebra"])
    assert exc.value.code == 2
    assert "--alpha-t" in capsys.readouterr().err
    assert main(["--sweep-t", "0,1/0", "--suites", "classify"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--suites", ","],
        ["--suites", " "],
        ["--suites", "nom,nom"],
        ["--suites", "algebra,nom,algebra"],
        ["--sweep-t", ","],
        ["--sweep-t", ""],
        ["--sweep-t", "0", "--suites", ","],
    ],
)
def test_empty_or_repeated_selection_is_a_config_error(argv, tmp_path, capsys, monkeypatch):
    built = _count_calls(monkeypatch, "build_fkm_system")
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists() and not built
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_empty_and_repeated_suites():
    with pytest.raises(ValueError, match="no suites"):
        RunConfig(suites=()).validate()
    with pytest.raises(ValueError, match="repeated"):
        RunConfig(suites=("nom", "clifford", "nom")).validate()
    report, code = run(RunConfig(suites=()))
    assert code == 2 and "error" in report


def test_suite_failure_exit_1(monkeypatch):
    import octoverify.cli as cli

    def failing_suite(cfg, ctx):
        rep = Report("algebra")
        rep.add("deliberately_failing_identity", False)
        return rep

    monkeypatch.setitem(cli.SUITE_FUNCS, "algebra", failing_suite)
    report, code = run(small_cfg(suites=("algebra",)))
    assert code == 1 and not report["pass"]
    failing = [c["name"] for s in report["suites"] for c in s["checks"] if not c["pass"]]
    assert failing == ["deliberately_failing_identity"]


def test_an_exception_in_a_suite_fails_that_suite_and_the_run_goes_on(monkeypatch, tmp_path, capsys):
    import octoverify.cli as cli

    def raising_suite(cfg, ctx):
        raise RuntimeError("planted")

    monkeypatch.setitem(cli.SUITE_FUNCS, "algebra", raising_suite)
    out = tmp_path / "report.json"
    code = main(["--suites", "algebra,clifford", "--trials", "20", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 1 and not report["pass"]
    algebra, clifford = report["suites"]
    assert algebra["checks"] == [
        {"name": "completed", "pass": False, "residual": "0", "detail": "RuntimeError: planted"}
    ]
    assert clifford["pass"] and clifford["checks"]
    assert list(report["timing"]["suites"]) == ["algebra", "clifford"]
    assert "RuntimeError: planted" in capsys.readouterr().err


def test_a_non_trilinear_cubic_form_fails_the_mirror_suite_with_a_report():
    # F + x0 x1 x2 x3 makes the mirror suite's cubic form non-trilinear, which
    # trilinearity_extract refuses with a ValueError
    from octoverify.report import validate_report

    cfg = RunConfig(algebra="quaternion", alpha_t=Fraction(0), suites=("munzner", "mirror"))
    ctx = RunContext(cfg)
    f = ctx.fkm_poly
    ctx.fkm_poly = f + MultiPoly(f.nvars, {monomial_key(0, 1, 2, 3): 1})
    report, code = run(cfg, ctx)
    validate_report(report)
    assert code == 1
    munzner, mirror = report["suites"]
    assert not {c["name"]: c["pass"] for c in munzner["checks"]}["fkm_munzner_exact"]
    (check,) = mirror["checks"]
    assert check["name"] == "completed" and not check["pass"]
    assert check["detail"].startswith("ValueError: non-trilinear monomial")


@pytest.mark.parametrize(
    "name, failing",
    [
        ("exchange_defects", {"algebra": ["exchange_identities"], "nom": ["circ_exchange_identities"]}),
        ("norm_defect", {"algebra": ["norm_multiplicativity"], "nom": ["verify_normalized"]}),
    ],
)
def test_one_definition_serves_the_product_and_circ_checks(monkeypatch, name, failing):
    # a defect planted in the shared definition fails the octonion check and
    # the o check alike
    real = getattr(on, name)

    def planted(mul, *slots):
        out = real(mul, *slots)
        return out + Fraction(1) if name == "norm_defect" else (Fraction(1), *out)

    monkeypatch.setattr(on, name, planted)
    report, code = run(small_cfg(suites=("algebra", "nom"), trials=5))
    assert code == 1
    assert {s["name"]: [c["name"] for c in s["checks"] if not c["pass"]] for s in report["suites"]} == failing


def _count_calls(monkeypatch, name, owner=None):
    """Record the first argument of every call of ``<owner>.<name>``, where
    ``owner`` is a module (``cli`` by default)."""
    import octoverify.cli as cli

    owner = owner or cli
    calls = []
    real = getattr(owner, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_classify_reuses_the_identities_batteries(monkeypatch):
    calls = _count_calls(monkeypatch, "exchange_suite", identities)
    report, code = run(small_cfg(alpha_t=Fraction(1, 2), suites=("identities", "classify")))
    assert code == 0
    # each candidate runs its batteries once (QCandidate.batteries): FKM and
    # OT in identities, then only the two endpoint candidates in classify
    assert len(calls) == 4 and len({id(c) for c in calls}) == 4


def test_classify_alone_proves_all_four_candidates(monkeypatch):
    calls = _count_calls(monkeypatch, "exchange_suite", identities)
    report, code = run(small_cfg(alpha_t=Fraction(1, 2), suites=("classify",)))
    assert code == 0
    assert len(calls) == 4 and len({id(c) for c in calls}) == 4


def test_classify_fails_on_a_candidate_whose_anti_battery_fails(monkeypatch, capsys):
    cfg = small_cfg(algebra="quaternion", alpha_t=Fraction(1, 2), suites=("classify",))
    ctx = RunContext(cfg)
    cand = ctx.candidate("fkm", ctx.nom)
    anti_suite = identities.anti_suite
    planted = WitnessReport("planted", {"instances": 1}, None, None, 1, False)
    monkeypatch.setattr(identities, "anti_suite", lambda q: [*anti_suite(q), *([planted] if q is cand else [])])
    report, code = run(cfg, ctx)
    assert code == 1 and not cand.batteries.passed
    assert [[(c["name"], c["pass"], c["detail"]) for c in s["checks"]] for s in report["suites"]] == [
        [("completed", False, "ValueError: classification requires the identity suites to have passed on q")]
    ]
    capsys.readouterr()


def test_run_builds_each_system_once(monkeypatch):
    fkm = _count_calls(monkeypatch, "build_fkm_system")
    ot = _count_calls(monkeypatch, "build_ot_system")
    report, code = run(small_cfg(algebra="quaternion", alpha_t=Fraction(1, 2), suites=("munzner", "mirror", "classify")))
    assert code == 0
    assert len(fkm) == 1 and len(ot) == 1


def test_a_run_builds_each_coefficient_table_once(monkeypatch, tmp_path):
    from octoverify.mirror import TrilinearTable

    tables = []
    real = TrilinearTable.of

    def counting(q_eval, dim):
        tables.append(real(q_eval, dim))
        return tables[-1]

    monkeypatch.setattr(TrilinearTable, "of", staticmethod(counting))
    # the octonion-full argv: the q* of the configured nom, OT, FKM-left and
    # FKM-right at alpha = e_0 and the unsymmetrised (XY)Z, each built once;
    # the norm identity reads its FKM reference off the run's candidates
    assert main(["--alpha-t", "1/2", "--trials", "200", "--out", str(tmp_path / "r.json")]) == 0
    assert len(tables) == 5
    assert len({(t.den, repr(t.rows)) for t in tables}) == 5


def test_sweep_theta(monkeypatch):
    cfg = small_cfg(suites=("classify",))
    reports, code = sweep_theta(cfg, [Fraction(0), Fraction(0)])
    assert code == 0 and len(reports) == 2  # duplicates are not deduplicated
    # one context per t, each building its own nom and FKM system
    contexts = _count_calls(monkeypatch, "RunContext")
    built = _count_calls(monkeypatch, "build_fkm_system")
    reports, code = sweep_theta(cfg, [Fraction(1, 2), Fraction(1)])
    assert code == 0 and [c.alpha_t for c in contexts] == [Fraction(1, 2), Fraction(1)]
    assert [n.alpha for n in built] == [c.build_nom().alpha for c in contexts]
    assert [d["config"]["alpha_t"] for d in reports] == ["1/2", "1"]
    reports, code = sweep_theta(cfg, [])
    assert reports == [] and code == 0
    with pytest.raises(ValueError):
        sweep_theta(small_cfg(mode="float", theta=0.3), [Fraction(0)])


def test_a_raising_t_fails_its_sweep_report_only(monkeypatch, tmp_path, capsys):
    import octoverify.cli as cli
    from octoverify.circ import nom_from_t

    real = cli.perturb_mirror
    half = nom_from_t(Side.LEFT, Fraction(1, 2)).alpha

    def planted(fkm):
        if fkm.nom.alpha == half:
            raise RuntimeError("planted")
        return real(fkm)

    monkeypatch.setattr(cli, "perturb_mirror", planted)
    out = tmp_path / "sweep.json"
    assert main(["--sweep-t", "0,1/2,1", "--suites", "classify", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert [d["config"]["alpha_t"] for d in data] == ["0", "1/2", "1"]
    assert [d["pass"] for d in data] == [True, False, True]
    assert [[c["name"] for c in d["suites"][0]["checks"]] for d in data] == [
        ["verify_normalized", "clifford_relations", "perturb_mirror"],
        ["completed"],
        ["verify_normalized", "clifford_relations", "perturb_mirror"],
    ]
    (suite,) = data[1]["suites"]
    assert suite["name"] == "sweep_t=1/2"
    assert suite["checks"] == [{"name": "completed", "pass": False, "residual": "0", "detail": "RuntimeError: planted"}]
    assert "RuntimeError: planted" in capsys.readouterr().err


def test_cli_main_and_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["--alpha-t", "0", "--suites", "algebra", "--trials", "40", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pass"] and data["config"]["alpha_t"] == "0"
    assert set(data) == {"schema_version", "tool", "config", "suites", "pass", "timing"}


def test_cli_dump_poly(tmp_path):
    from octoverify.poly import MultiPoly

    path = tmp_path / "fkm.txt"
    code = main(
        ["--alpha-t", "0", "--suites", "algebra", "--trials", "10", "--dump-poly", str(path), "--out", str(tmp_path / "r.json")]
    )
    assert code == 0
    f = MultiPoly.parse(path.read_text(), 32)
    assert f.is_homogeneous(4)
    assert len(f.terms) == 1040  # frozen term count for the t = 0 system


def test_cli_float_mode(tmp_path):
    out = tmp_path / "float.json"
    code = main(
        ["--mode", "float", "--theta", "0.8", "--suites", "nom,mirror", "--trials", "30", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    by_name = {s["name"]: s for s in data["suites"]}
    assert by_name["nom"]["pass"]
    assert "skipped" in " ".join(by_name["mirror"]["notes"])


def _definition_clifford_residual(nom: Nom) -> float:
    """max |U_a U_b + U_b U_a + 2 delta_ab Id| over 1 <= a <= b, with U_a
    recomputed from circ_definition on basis pairs: U_a[i][k] = (e_a o e_k)_i."""
    dim = nom.dim
    u = [[circ_definition(nom, on.basis(a, dim), on.basis(k, dim)) for k in range(dim)] for a in range(1, dim)]
    worst = 0.0
    for a in range(dim - 1):
        for b in range(a, dim - 1):
            for i in range(dim):
                for j in range(dim):
                    s = sum(u[a][k][i] * u[b][j][k] + u[b][k][i] * u[a][j][k] for k in range(dim))
                    worst = max(worst, abs(s - (-2.0 if i == j and a == b else 0.0)))
    return worst


def _float_clifford_check(cfg: RunConfig, ctx: RunContext):
    rep = suite_nom_float(cfg, ctx)
    return next(c for c in rep.checks if c.name == "left_ops_clifford_residual")


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("theta", [0.3, 0.8, 2.5])
def test_float_clifford_residual_matches_the_definition(side, theta):
    cfg = RunConfig(mode="float", theta=theta, side=side, suites=("nom",), trials=5)
    ctx = RunContext(cfg)
    check = _float_clifford_check(cfg, ctx)
    assert check.residual == _definition_clifford_residual(ctx.nom)
    assert check.passed


def test_float_clifford_residual_fails_for_a_non_unit_alpha():
    cfg = RunConfig(mode="float", theta=0.8, suites=("nom",), trials=5)
    ctx = RunContext(cfg)
    ctx.nom = Nom(Side.LEFT, tuple(1.1 * c for c in cfg.build_nom().alpha))
    check = _float_clifford_check(cfg, ctx)
    assert check.residual == _definition_clifford_residual(ctx.nom)
    assert not check.passed


def test_float_mode_dump_poly_is_a_config_error(tmp_path, capsys, monkeypatch):
    # F of a float system is not a rational polynomial: refused before any
    # system is built or the file is opened
    built = _count_calls(monkeypatch, "build_fkm_system")
    path = tmp_path / "P"
    code = main(["--mode", "float", "--theta", "0.8", "--suites", "nom", "--dump-poly", str(path)])
    assert code == 2 and not path.exists() and not built
    assert "--dump-poly" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--theta", "nan"],  # NaN residuals passed every check with max(0.0, nan) == 0.0
        ["--theta", "inf"],  # math.cos(inf) raised a traceback
        ["--theta", "0.8", "--tol", "inf"],  # every residual is within an infinite tolerance
    ],
)
def test_non_finite_float_input_is_a_config_error(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--mode", "float", "--suites", "nom", "--out", str(out)] + argv) == 2
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


def test_theta_outside_float_mode_is_a_config_error(tmp_path, capsys):
    # exact mode used to write "theta": 0.5 in the config and check t = 0
    out = tmp_path / "report.json"
    assert main(["--theta", "0.5", "--suites", "nom", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--theta requires float mode" in capsys.readouterr().err
    with pytest.raises(ValueError, match="float mode"):
        RunConfig(theta=0.5).validate()


def test_float_mode_sweep_is_a_config_error(tmp_path, capsys, monkeypatch):
    built = _count_calls(monkeypatch, "build_fkm_system")
    out = tmp_path / "sweep.json"
    code = main(["--mode", "float", "--theta", "0.8", "--sweep-t", "0", "--out", str(out)])
    assert code == 2 and not out.exists() and not built
    assert "--sweep-t" in capsys.readouterr().err


def test_cli_sweep_flag(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["--sweep-t", "0,1", "--suites", "classify", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [d["config"]["alpha_t"] for d in data] == ["0", "1"]
    assert all(d["pass"] for d in data)
    assert main(["--sweep-t", "0,zebra"]) == 2


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.algebra == "octonion" and args.side == "left"
    assert args.alpha_t == Fraction(0) and args.mode == "exact"
    assert args.suites == ",".join(ALL_SUITES)


def test_report_schema_validation():
    from octoverify.report import validate_report

    report, _ = run(small_cfg(suites=("algebra",)))
    validate_report(report)
    report["surprise"] = 1
    with pytest.raises(ValueError, match="top-level"):
        validate_report(report)
    report.pop("surprise")
    report["suites"][0]["extra"] = 1
    with pytest.raises(ValueError, match="suite"):
        validate_report(report)


def test_munzner_agreement_fails_when_both_routes_fail():
    # F + x0 x1 x2 x3 fails the exact Muenzner proof, and the agreement entry
    # records that proof's verdict
    cfg = RunConfig(algebra="quaternion", alpha_t=Fraction(0), suites=("munzner",))
    ctx = RunContext(cfg)
    f = ctx.fkm_poly
    ctx.fkm_poly = f + MultiPoly(f.nvars, {monomial_key(0, 1, 2, 3): 1})
    report, code = run(cfg, ctx)
    checks = {c["name"]: c["pass"] for c in report["suites"][0]["checks"]}
    assert code == 1
    assert not checks["fkm_munzner_exact"]
    assert not checks["fkm_munzner_randomized_agrees"]


def test_only_the_focal_value_reads_a_sabotaged_evaluator(monkeypatch):
    # every value off by one: the proofs evaluate no polynomial, so of all
    # suites only the value of F at the focal point fails
    real = MultiPoly.eval
    monkeypatch.setattr(MultiPoly, "eval", lambda self, point: real(self, point) + 1)
    report, code = run(RunConfig(algebra="quaternion", alpha_t=Fraction(0)))
    assert code == 1
    failing = [c["name"] for s in report["suites"] for c in s["checks"] if not c["pass"]]
    assert failing == ["fkm_polynomial_at_focal_rep"]


def test_exact_reports_do_not_read_the_seed():
    reports = []
    for seed in (0, 4242):
        report, code = run(RunConfig(algebra="quaternion", seed=seed))
        assert code == 0
        report.pop("timing")
        report["config"].pop("seed")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("dim", [4, 8])
def test_change_of_basis_is_a_dense_rational_orthogonal(dim):
    o = change_of_basis(dim)
    assert o @ o.T == Op.identity(dim)
    assert all(len(row) == dim for row in o.rows)


def test_suite_munzner_differentiates_each_f_once(monkeypatch):
    seen = {"gradient": [], "laplacian": []}
    for name, polys in seen.items():

        def counting(self, real=getattr(MultiPoly, name), polys=polys):
            polys.append(self)
            return real(self)

        monkeypatch.setattr(MultiPoly, name, counting)
    cfg = RunConfig(algebra="quaternion", alpha_t=Fraction(0), suites=("munzner",))
    ctx = RunContext(cfg)
    report, code = run(cfg, ctx)
    assert code == 0
    for polys in seen.values():
        assert [id(p) for p in polys] == [id(ctx.fkm_poly), id(ctx.ot_poly)]
