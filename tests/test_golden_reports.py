"""Golden reports: every CI argv, run in-process through ``cli.main``,
must write the report stored under ``tests/golden/`` (with ``timing``
stripped) and exit with the stored code.  The three benchmark workloads'
argvs are compared the same way with ``perfbench/reference/``, which this
test only reads.

In float mode the ``nom`` suite's residuals are libm floats, which may
differ in the last place between platforms: each of them, and that
suite's ``max_residual``, is replaced with a placeholder before the
comparison, and every other field is compared as it is.

A change that is meant to alter a report regenerates the files with
``python tests/test_golden_reports.py`` (``src`` on ``PYTHONPATH``) and
shows the diff in review."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from octoverify.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
REFERENCE = HERE.parent / "perfbench" / "reference"

# name -> (argv, exit code)
GOLDEN_ARGVS = {
    "default": ([], 0),
    "right-t1_3": (["--side", "right", "--alpha-t", "1/3", "--trials", "20"], 0),
    "quaternion-right-t2_3": (["--algebra", "quaternion", "--side", "right", "--alpha-t", "2/3", "--trials", "20"], 0),
    "t1": (["--alpha-t", "1", "--trials", "20"], 0),
    "t1-right": (["--side", "right", "--alpha-t", "1", "--trials", "20"], 0),
    "sweep-quaternion": (["--algebra", "quaternion", "--sweep-t", "0,1/3,1/2,1,3", "--suites", "classify"], 0),
    "sweep-quaternion-right": (["--algebra", "quaternion", "--side", "right", "--sweep-t", "0,2/3", "--suites", "classify"], 0),
    "sweep-right": (["--side", "right", "--sweep-t", "0,1/3,1/2,1,3", "--suites", "classify"], 0),
    "quaternion-algebra-seed16": (["--algebra", "quaternion", "--seed", "16", "--suites", "algebra", "--trials", "250"], 0),
    **{
        f"float-{side}": (["--mode", "float", "--theta", "0.8", "--side", side, "--suites", "algebra,clifford,nom", "--trials", "20"], 0)
        for side in ("left", "right")
    },
}
FLOAT_RESIDUAL = "<libm float>"

# the benchmark workloads' argvs (``perfbench/run.py`` at its default seed)
WORKLOAD_ARGVS = {
    "octonion-full": ["--alpha-t", "1/2", "--trials", "200", "--seed", "0"],
    "classify-sweep": ["--sweep-t", "0,1/3,1/2,1,3", "--suites", "classify", "--seed", "0"],
    "quaternion-full": ["--algebra", "quaternion", "--seed", "0"],
}


def report_of(argv: list, path: Path) -> tuple[object, int]:
    """The report ``cli.main`` writes for ``argv``, without ``timing`` and
    with a float-mode ``nom`` suite's residuals replaced, and its exit
    code."""
    code = main([*argv, "--out", str(path)])
    report = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(report, dict):
        report.pop("timing", None)
        for suite in report["suites"] if report["config"]["mode"] == "float" else ():
            if suite["name"] == "nom":
                suite["max_residual"] = FLOAT_RESIDUAL
                for check in suite["checks"]:
                    check["residual"] = FLOAT_RESIDUAL
    return report, code


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGVS))
def test_report_equals_its_golden_file(name, tmp_path):
    argv, want_code = GOLDEN_ARGVS[name]
    report, code = report_of(argv, tmp_path / "report.json")
    assert code == want_code
    assert report == json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOAD_ARGVS))
def test_workload_report_equals_its_benchmark_reference(name, tmp_path):
    report, code = report_of(WORKLOAD_ARGVS[name], tmp_path / "report.json")
    assert code == 0
    assert report == json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))


def write_golden_files() -> None:
    """Rewrite every file under ``tests/golden/`` from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in GOLDEN_ARGVS.items():
        path = GOLDEN / f"{name}.json"
        report, code = report_of(argv, path)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    write_golden_files()
