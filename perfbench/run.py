"""octoverify benchmark: time to a correct verdict, plus an outside-in layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload is one octoverify CLI
invocation (``octoverify.cli.main(argv)``) in a child process started from
``perfbench/child.py`` with ``PYTHONPATH=src``; children run one at a time.
A run repeats the invocation until ``--seconds`` have passed (at least once)
and reports medians.  Every report is checked: exit code 0, every check
passed, the same suites and checks as the stored reference and, at the
default seed, identical to the reference apart from ``timing``.

The run is pinned to one CPU, and times are reported at nominal machine
speed: each raw wall or CPU time is multiplied by the speed factor that
``speed.SpeedSentinel`` measured on that CPU while the child ran.  The raw
times are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
traced (see ``tracer.py``) and then once untraced, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Set-up problems
(no ``src/octoverify`` to benchmark, a harness error) exit 2 without it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedSentinel, pin_to_one_cpu
from tracer import ABSENT, ABSENT_VALUE, COUNT_METRICS, LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# The CLI's default seed; at this seed each report must equal its reference.
DEFAULT_SEED = 0
# Import-only children per run, so setup_s is a median even when the
# workload itself fits only once into a run.
SETUP_PROBES = 7
# Children are killed after this many seconds from the start of the run, so
# that every run ends within 180 s.
RUN_LIMIT_S = 170.0

WORKLOADS = {
    # --trials 200 caps the algebra suite's two 1000-trial loops at the 200
    # that every other sampled loop already uses, so one run fits the time budget.
    "octonion-full": ["--alpha-t", "1/2", "--trials", "200"],
    "classify-sweep": ["--sweep-t", "0,1/3,1/2,1,3", "--suites", "classify"],
    "quaternion-full": ["--algebra", "quaternion"],
}

END_TO_END_UNITS = {"verdict_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark cannot run in this checkout; no result is printed."""


def clock_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so child timestamps compare with ours.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """One child process: raw timings and the machine-speed factors over them."""

    tag: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    speed: float  # nominal-speed seconds per wall second while it ran
    setup_speed: float | None

    @property
    def verdict_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def cpu_corrected_s(self) -> float:
        return self.cpu_s * self.speed

    @property
    def setup_corrected_s(self) -> float | None:
        return None if self.setup_s is None else self.setup_s * self.setup_speed


@dataclass
class Invocation:
    child: Child
    report: object = None
    trace: dict | None = None
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------


def strip_timing(report):
    reports = report if isinstance(report, list) else [report]
    out = [{k: v for k, v in r.items() if k != "timing"} for r in reports]
    return out if isinstance(report, list) else out[0]


def skeleton(report) -> list:
    """Suite and check names, which depend on the config but not on the seed."""
    reports = report if isinstance(report, list) else [report]
    return [[(s["name"], [c["name"] for c in s["checks"]]) for s in r["suites"]] for r in reports]


def failing_checks(report) -> list:
    reports = report if isinstance(report, list) else [report]
    bad = [f"{s['name']}/{c['name']}" for r in reports for s in r["suites"] for c in s["checks"] if c["pass"] is not True]
    bad += ["report pass flag" for r in reports if r["pass"] is not True]
    return bad


def load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise HarnessError(f"missing reference report {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class BenchRun:
    """One run of one workload at one seed."""

    workload: str
    seed: int
    sentinel: SpeedSentinel
    deadline: float  # time.monotonic() value at which children are killed
    reference: object = None

    def __post_init__(self):
        self.reference = load_reference(self.workload)

    def spawn(self, tag: str, opts: list, cli_args: list) -> Child:
        """Run child.py once; wall time is from just before launch to reaping."""
        OUT.mkdir(exist_ok=True)
        status_path = OUT / f"{tag}.status.json"
        status_path.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        argv = [sys.executable, str(HERE / "child.py"), str(status_path), *opts, "--", *cli_args]
        with open(OUT / f"{tag}.stderr", "wb") as err:
            t0 = clock_ns()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, wstatus, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = clock_ns()
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        setup_s = setup_speed = None
        if status_path.is_file():
            status = json.loads(status_path.read_text(encoding="utf-8"))
            if not Path(status["cli_file"]).resolve().is_relative_to(SRC.resolve()):
                raise HarnessError(f"child imported octoverify from {status['cli_file']}, not from {SRC}")
            setup_s = (status["imported_ns"] - t0) / 1e9
            setup_speed = self.sentinel.factor(t0, status["imported_ns"])
        return Child(
            tag=tag,
            code=proc.returncode,
            wall_s=(t1 - t0) / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            setup_s=setup_s,
            speed=self.sentinel.factor(t0, t1),
            setup_speed=setup_speed,
        )

    def probe_setups(self, first: int, count: int) -> list:
        """Set-up times of ``count`` import-only children, at nominal speed."""
        out = []
        for i in range(first, first + count):
            c = self.spawn(f"probe{i}", ["--probe"], [])
            if c.code != 0 or c.setup_s is None:
                raise HarnessError(f"import of octoverify.cli failed (exit {c.code}): {stderr_tail(c.tag)}")
            out.append(c.setup_corrected_s)
        return out

    def invoke(self, run_no: int, trace: bool = False) -> Invocation:
        """One CLI invocation, checked against the reference."""
        tag = f"{self.workload}.seed{self.seed}.{'traced' if trace else 'run'}{run_no}"
        report_path = OUT / f"{tag}.report.json"
        spans_path = OUT / f"{tag}.spans.json"
        for p in (report_path, spans_path):
            p.unlink(missing_ok=True)
        opts = ["--trace", str(spans_path), str(run_no)] if trace else []
        cli_args = [*WORKLOADS[self.workload], "--seed", str(self.seed), "--out", str(report_path)]
        inv = Invocation(self.spawn(tag, opts, cli_args))
        self.check(inv, report_path)
        if trace:
            try:
                inv.trace = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                inv.errors.append(f"no readable span file: {e}")
        return inv

    def check(self, inv: Invocation, report_path: Path) -> None:
        """Append to ``inv.errors`` every reason this invocation counts as failed."""
        if inv.child.code != 0:
            inv.errors.append(f"exit code {inv.child.code}: {stderr_tail(inv.child.tag)}")
        try:
            inv.report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            inv.errors.append(f"no readable report: {e}")
            return
        try:
            bad = failing_checks(inv.report)
            shape_ok = skeleton(inv.report) == skeleton(self.reference)
        except (KeyError, TypeError) as e:
            inv.errors.append(f"malformed report: {e!r}")
            return
        if bad:
            inv.errors.append(f"{len(bad)} failing checks, first: {bad[:3]}")
        if not shape_ok:
            inv.errors.append("suites or checks differ from the reference")
        elif self.seed == DEFAULT_SEED and strip_timing(inv.report) != self.reference:
            inv.errors.append("report differs from the reference outside timing")

    def repeat(self, make, seconds: float, started: float) -> list:
        """Call ``make(i)`` until ``seconds`` have passed since ``started``, at least
        once, and never start a call that would likely run past the deadline."""
        out = []
        while True:
            out.append(make(len(out)))
            now = time.monotonic()
            if now - started >= seconds or now + out[-1].child.wall_s > self.deadline:
                return out


def stderr_tail(tag: str) -> str:
    lines = (OUT / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def fmt(v) -> str:
    if v is ABSENT:
        return "absent"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def tail_note(values: list) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}; a tail percentile needs at least 11 samples"
    v = sorted(values)[n - 11]
    return f"n={n}; p{100 * (n - 10) / n:.0f} = {v:.6g} (10 samples beyond it)"


def print_invocation(inv: Invocation) -> None:
    c = inv.child
    setup = "n/a" if c.setup_s is None else f"{c.setup_s:.4f}"
    state = "ok" if not inv.errors else "FAILED: " + "; ".join(inv.errors)
    print(
        f"  {c.tag}: raw wall {c.wall_s:.4f} s  cpu {c.cpu_s:.4f} s  setup {setup} s  "
        f"speed x{c.speed:.3f} -> verdict {c.verdict_s:.4f} s  rss {c.rss_mb:.1f} MB  {state}"
    )


def declared_metrics(kind: str) -> list:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"missing {path}")
    return [m["name"] for m in json.loads(path.read_text(encoding="utf-8"))[kind]]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(bench: BenchRun, seconds: float, started: float):
    # Half the probes before the workload and half after, so that one slow
    # stretch of the machine does not set every sample.
    before = (SETUP_PROBES + 1) // 2
    setups = bench.probe_setups(0, before)
    invs = bench.repeat(bench.invoke, seconds, time.monotonic())
    setups += bench.probe_setups(before, SETUP_PROBES - before)
    for inv in invs:
        print_invocation(inv)
    setups += [inv.child.setup_corrected_s for inv in invs if inv.child.setup_s is not None]
    verdicts = [inv.child.verdict_s for inv in invs]
    raw_wall = statistics.median(inv.child.wall_s for inv in invs)
    raw_cpu = statistics.median(inv.child.cpu_s for inv in invs)
    metrics = {
        "verdict_s": statistics.median(verdicts),
        "cpu_s": statistics.median(inv.child.cpu_corrected_s for inv in invs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(inv.child.rss_mb for inv in invs),
    }
    notes = {
        "verdict_s": f"median at nominal speed (raw {raw_wall:.4f} s); {tail_note(verdicts)}",
        "cpu_s": f"median of {len(invs)} at nominal speed (raw {raw_cpu:.4f} s)",
        "setup_s": f"median of {len(setups)} set-ups at nominal speed (launch until import octoverify.cli returned)",
        "peak_rss_mb": f"median of {len(invs)} children's maximum RSS",
    }
    for name, value in metrics.items():
        print(f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]:<3} {notes[name]}")
    return invs, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced(bench: BenchRun, seconds: float, started: float):
    import selfcheck

    selfcheck.check_tracer()
    print("selfcheck synthetic call tree and absent targets: ok")
    runs = bench.repeat(lambda i: bench.invoke(i, trace=True), seconds, started)
    # The untraced baseline comes last and only if it fits before the deadline,
    # so that a slow machine costs the measured trace.overhead_s (the tracer's
    # own cost is reported instead), not the traced run.
    base = None
    if time.monotonic() + min(inv.child.wall_s for inv in runs) < bench.deadline:
        base = bench.invoke(0)
        for inv in runs:
            if inv.report is not None and base.report is not None and strip_timing(inv.report) != strip_timing(base.report):
                inv.errors.append("traced report differs from the untraced one outside timing")
    invs = [*runs, base] if base else runs
    for inv in invs:
        print_invocation(inv)
    layers = []
    for inv in runs:
        if inv.trace:
            m = layer_metrics(inv.trace, int(inv.child.wall_s * 1e9))
            # layer times at nominal speed, like the end-to-end ones
            layers.append({k: v * inv.child.speed if LAYER_UNITS[k] == "s" and isinstance(v, float) else v for k, v in m.items()})
    values = {}
    for name in LAYER_UNITS:
        vals = [m[name] for m in layers]
        if not vals or ABSENT in vals:
            values[name] = ABSENT
        else:
            values[name] = statistics.median(vals)
    if base is not None:
        values["trace.overhead_s"] = statistics.median(inv.child.verdict_s for inv in runs) - base.child.verdict_s
    else:
        print("trace.overhead_s: the tracer's own cost, since the untraced run did not fit before the deadline")
    if len(layers) > 1:
        unsteady = [n for n in COUNT_METRICS if len({m[n] for m in layers}) > 1]
        print(f"selfcheck counts repeat across {len(layers)} traced runs: " + ("ok" if not unsteady else f"DIFFER {unsteady}"))
    else:
        print("selfcheck counts repeat: not tried, one traced run fitted in --seconds")
    share = values["trace.covered_share"]
    if isinstance(share, float):
        print(f"selfcheck trace.covered_share >= 0.95: {'ok' if share >= 0.95 else 'LOW'} ({share:.4f})")
    for name, value in values.items():
        print(f"{name:<42} {fmt(value):>14} {LAYER_UNITS[name]}")
    return invs, {k: {"value": ABSENT_VALUE if v is ABSENT else v, "unit": LAYER_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    try:
        if not (SRC / "octoverify" / "cli.py").is_file():
            raise HarnessError(f"no octoverify source under {SRC}")
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        pin_to_one_cpu()
        with SpeedSentinel() as sentinel:
            bench = BenchRun(args.workload, args.seed, sentinel, started + RUN_LIMIT_S)
            print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
            print("argv: octoverify " + " ".join([*WORKLOADS[args.workload], "--seed", str(args.seed)]))
            invs, metrics = (traced if args.trace else end_to_end)(bench, args.seconds, started)
        if sorted(metrics) != sorted(declared):
            raise HarnessError(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    except HarnessError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    failed = sum(1 for inv in invs if inv.errors)
    print(f"fail_share     {failed / len(invs):.6g}     ({failed} of {len(invs)} runs failed)")
    result = {"correct": failed == 0, "attempted": len(invs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
