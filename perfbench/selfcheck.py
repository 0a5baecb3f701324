"""Self-checks for the layer tracer.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

Always checks, in process and in well under a second:
  - self-time arithmetic on a synthetic nested call tree with a fake clock;
  - that a target missing from the program is reported absent (``ABSENT``,
    -1 in the result line), never 0 and never a crash.
Then, per workload (all by default), it runs the workload once untraced and
twice traced, and checks that
  - each traced report equals the untraced one apart from ``timing``;
  - every count metric repeats exactly across the two traced runs;
  - ``trace.covered_share`` is at least 0.95.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
from tracer import ABSENT, COUNT_METRICS, TARGETS, Tracer, layer_metrics


def expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


def check_self_time() -> None:
    """Raise AssertionError unless self and total times match a hand count."""
    clock = FakeClock()
    tracer = Tracer(run_id=7, clock=clock)

    def leaf():
        clock.work(3)

    def mid():
        clock.work(2)
        leaf()
        clock.work(1)
        leaf()

    def top():
        clock.work(5)
        mid()
        leaf()
        clock.work(4)

    def failing():
        clock.work(6)
        raise ValueError("propagates through the span")

    # "octonion.multiply" is aggregated only, so the leaves' recorded parent
    # must skip it and point at "top".
    leaf = tracer.wrap("leaf", leaf)
    mid = tracer.wrap("octonion.multiply", mid)
    top = tracer.wrap("top", top)
    failing = tracer.wrap("failing", failing)
    top()
    try:
        failing()
    except ValueError:
        pass
    else:
        raise AssertionError("the wrapped exception was swallowed")

    # leaf: 3 calls x 3 = 9; mid: 2 + 3 + 1 + 3 = 9 total, 3 self;
    # top: 5 + 9 + 3 + 4 = 21 total, 21 - 9 - 3 = 9 self.
    want = {"leaf": [3, 9, 9], "octonion.multiply": [1, 9, 3], "top": [1, 21, 9], "failing": [1, 6, 6]}
    expect(tracer.stats == want, tracer.stats)
    names = [s[0] for s in tracer.spans]
    expect(names == ["top", "leaf", "leaf", "leaf", "failing"], names)
    expect([s[3] for s in tracer.spans] == [-1, 0, 0, 0, -1], tracer.spans)
    expect(tracer.spans[0][1:3] == (0, 21) and tracer.spans[4][1:3] == (21, 27), tracer.spans)
    expect(all(s[4] == 7 for s in tracer.spans), tracer.spans)


def check_absent() -> None:
    """A target that no longer exists is absent, and the metrics reading it are ABSENT."""
    tracer = Tracer()
    tracer.install([("linalg.int_mat_mul", "no_such_module", "int_mat_mul"), ("poly.mul", "poly", "NoSuchClass.__mul__")])
    expect(tracer.absent == ["linalg.int_mat_mul", "poly.mul"], tracer.absent)
    stats = {"linalg.mat_vec": [2, 10, 10]}
    absent = [t[0] for t in TARGETS if t[0] not in stats]
    trace = {"spans": [], "stats": stats, "counters": {}, "absent": absent, "hook_ns": 5, "wrapper_ns": {"aggregated": 2.5}}
    m = layer_metrics(trace, 100)
    expect(m["linalg.mat_vec.calls"] == 2 and m["linalg.mat_vec.self_s"] == 1e-8, m)
    expect(m["linalg.mat_vec.nonzero_ratio"] == 1.0, m)  # no entries counted: nothing wasted, not absent
    expect(m["trace.absent_targets"] == len(absent), m)
    expect(m["trace.overhead_s"] == 1e-8, m)  # 5 ns in hooks + 2 calls x 2.5 ns
    others = {k: v for k, v in m.items() if not k.startswith(("linalg.mat_vec", "trace."))}
    expect(all(v is ABSENT for v in others.values()), others)


def check_tracer() -> None:
    check_self_time()
    check_absent()


def check_workload(workload: str, seed: int) -> list:
    problems = []
    with run.SpeedSentinel() as sentinel:
        bench = run.BenchRun(workload, seed, sentinel, time.monotonic() + 3 * run.RUN_LIMIT_S)
        base = bench.invoke(0)
        traced = [bench.invoke(i, trace=True) for i in (0, 1)]
    for inv in (base, *traced):
        run.print_invocation(inv)
        problems += [f"{workload} {inv.child.tag}: {e}" for e in inv.errors]
    for inv in traced:
        if inv.report is not None and base.report is not None:
            if run.strip_timing(inv.report) != run.strip_timing(base.report):
                problems.append(f"{workload} {inv.child.tag}: report differs from the untraced one outside timing")
    if any(inv.trace is None for inv in traced):
        return problems
    layers = [layer_metrics(inv.trace, int(inv.child.wall_s * 1e9)) for inv in traced]
    for name in COUNT_METRICS:
        a, b = layers[0][name], layers[1][name]
        if a != b:
            problems.append(f"{workload}: {name} differs across traced runs ({a} vs {b})")
    for m in layers:
        if m["trace.covered_share"] < 0.95:
            problems.append(f"{workload}: trace.covered_share {m['trace.covered_share']:.4f} < 0.95")
    print(
        f"{workload}: covered_share {[round(m['trace.covered_share'], 4) for m in layers]}, "
        f"overhead {[round(inv.child.verdict_s - base.child.verdict_s, 3) for inv in traced]} s, "
        f"{len(traced[0].trace['spans'])} recorded spans"
    )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="self-checks for the layer tracer")
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args(argv)
    run.pin_to_one_cpu()
    check_tracer()
    print("synthetic call tree and absent targets: ok")
    problems = []
    for workload in args.workload or list(run.WORKLOADS):
        problems += check_workload(workload, args.seed)
    for p in problems:
        print("FAIL", p)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
