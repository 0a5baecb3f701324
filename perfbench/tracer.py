"""Outside-in layer tracer for octoverify.

The tracer wraps public functions of the program from outside: for each
target it rebinds every attribute of a loaded ``octoverify`` module (or the
target's class) that *is* the target function, so ``from .x import y``
copies are caught too, and it does the same for functions stored as values
of module-level dicts such as ``cli.SUITE_FUNCS``.  Nothing in the program is
edited.

Each call of a wrapped function is one span.  For every target the tracer
keeps the call count, the total time and the self time (the span's duration
minus the time its child spans cover), computed online from a stack.  Targets
called hundreds of thousands of times (``HOT``) are aggregated only; every
other call is also kept as a span record ``(name, start_ns, end_ns, parent,
run_id)`` in memory, where ``parent`` is the index of the nearest recorded
enclosing span (-1 for none).  ``Tracer.dump`` writes everything at exit,
together with the tracer's own cost: the time spent in argument and result
hooks, and the extra time per call of an empty wrapped function, measured
then on the same CPU.

A target that no longer exists is reported in ``absent`` and counted in
``trace.absent_targets``; the metrics that read it are then ``ABSENT``,
printed as ``absent`` and written as ``ABSENT_VALUE`` (-1, which no count,
time or ratio can be) in the JSON result, never 0 and never a crash.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time
from fractions import Fraction

PACKAGE = "octoverify"
SUITES = ("algebra", "clifford", "nom", "munzner", "mirror", "identities", "classify")
BATTERIES = ("identities.exchange_suite", "identities.skew_suite", "identities.anti_suite")

# Aggregated only: these run 10^4..10^6 times per workload, and one record per
# call would cost hundreds of megabytes.
HOT = frozenset(
    {
        "octonion.multiply",
        "octonion.inner",
        "circ.circ",
        "linalg.mat_vec",
        "linalg.mat_mul",
        "linalg.int_mat_mul",
        "poly.add",
        "poly.mul",
        "mirror.q_star_fkm_eval",
        "scalars.random_rational",
    }
)


_NUMBERS = (Fraction, int, float)


def _count_multiply(counters, args, kwargs):
    x, y = (*args, *kwargs.values())[:2]
    if not (isinstance(x[0], _NUMBERS) and isinstance(y[0], _NUMBERS)):
        counters["octonion.multiply.symbolic_calls"] += 1


def _count_mat_vec(counters, args, kwargs):
    a = args[0] if args else kwargs["a"]
    counters["linalg.mat_vec.entries"] += sum(len(row) for row in a)
    counters["linalg.mat_vec.nonzero"] += sum(1 for row in a for x in row if x)


def _distinct_key(name):
    def hook(counters, args, kwargs):
        counters.setdefault(name + ".keys", set()).add(hash(repr((args, sorted(kwargs.items())))))

    return hook


def _count_terms_out(counters, result):
    counters["poly.mul.terms_out"] += len(result.terms)


# (span name, module, attribute) -- "Class.method" attributes patch the class.
# Optional fourth/fifth entries: a hook called with the arguments before the
# span starts, and one called with the result after it ends.
TARGETS = [
    *[(f"cli.suite.{s}", "cli", f"suite_{s}") for s in SUITES],
    ("cli.sweep_theta", "cli", "sweep_theta"),
    ("octonion.multiply", "octonion", "multiply", _count_multiply),
    ("octonion.inner", "octonion", "inner"),
    ("circ.circ", "circ", "circ"),
    ("circ.verify_normalized", "circ", "verify_normalized"),
    ("linalg.mat_vec", "linalg", "mat_vec", _count_mat_vec),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.int_mat_mul", "linalg", "int_mat_mul"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("clifford.verify_symmetric_system", "clifford", "verify_symmetric_system"),
    ("clifford.find_intertwiner", "clifford", "find_intertwiner"),
    ("clifford.normalize_a_system", "clifford", "normalize_a_system"),
    ("poly.add", "poly", "MultiPoly.__add__"),
    ("poly.mul", "poly", "MultiPoly.__mul__", None, _count_terms_out),
    ("poly.substitute_linear", "poly", "MultiPoly.substitute_linear"),
    ("poly.munzner_verify", "poly", "munzner_verify"),
    ("systems.build_fkm_system", "systems", "build_fkm_system", _distinct_key("systems.build_fkm_system")),
    ("systems.fkm_polynomial", "systems", "fkm_polynomial", _distinct_key("systems.fkm_polynomial")),
    ("systems.extract_expansion_forms", "systems", "extract_expansion_forms"),
    ("systems.matrix_route_forms", "systems", "matrix_route_forms"),
    ("systems.condition_a_check", "systems", "condition_a_check"),
    ("systems.condition_b_check", "systems", "condition_b_check"),
    ("systems.perturb_mirror", "systems", "perturb_mirror"),
    ("mirror.q_star_fkm_eval", "mirror", "q_star_fkm_eval"),
    ("mirror.trilinearity_extract", "mirror", "trilinearity_extract"),
    ("mirror.verify_ot_equations", "mirror", "verify_ot_equations"),
    ("identities.exchange_suite", "identities", "exchange_suite"),
    ("identities.skew_suite", "identities", "skew_suite"),
    ("identities.anti_suite", "identities", "anti_suite"),
    ("identities.classify_q", "identities", "classify_q"),
    ("scalars.random_rational", "scalars", "random_rational"),
]


class Tracer:
    """Span stack plus per-name aggregates; ``clock`` returns integer nanoseconds."""

    def __init__(self, run_id: int = 0, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.stack: list[list[int]] = []  # frames: [child_ns, nearest recorded span index]
        self.spans: list = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.hook_ns = [0]  # time spent in before/after hooks

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack, spans, clock, run_id, counters, hook_ns = (
            self.stack, self.spans, self.clock, self.run_id, self.counters, self.hook_ns
        )
        st = self.stats.setdefault(name, [0, 0, 0])
        record = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(counters, args, kwargs)
                hook_ns[0] += clock() - h0
            parent = stack[-1][1] if stack else -1
            if record:
                idx = len(spans)
                spans.append(None)
                frame = [0, idx]
            else:
                frame = [0, parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans[idx] = (name, t0, t1, parent, run_id)
            if after is not None:
                h0 = clock()
                after(counters, result)
                hook_ns[0] += clock() - h0
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists in the loaded program."""
        for name, module, attr, *hooks in targets:
            before = hooks[0] if hooks else None
            after = hooks[1] if len(hooks) > 1 else None
            if not _patch(module, attr, lambda fn: self.wrap(name, fn, before, after)):
                self.absent.append(name)

    def result(self) -> dict:
        counters = {k: (len(v) if isinstance(v, set) else v) for k, v in self.counters.items()}
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "stats": self.stats,
            "counters": counters,
            "absent": self.absent,
        }

    def calibrate(self, calls: int = 2000, repeats: int = 5) -> dict:
        """Extra ns per call of a wrapper, recorded and aggregated only (best of ``repeats``)."""

        def noop():
            pass

        probe = Tracer(clock=self.clock)
        clock = self.clock
        out = {}
        for kind, name in (("recorded", "calibrate"), ("aggregated", min(HOT))):
            wrapped = probe.wrap(name, noop)
            costs = []
            for _ in range(repeats):
                probe.spans.clear()
                t0 = clock()
                for _ in range(calls):
                    noop()
                t1 = clock()
                for _ in range(calls):
                    wrapped()
                t2 = clock()
                costs.append((t2 - t1 - (t1 - t0)) / calls)
            out[kind] = max(min(costs), 0.0)
        return out

    def dump(self, path: str) -> None:
        result = self.result()
        result["hook_ns"] = self.hook_ns[0]
        result["wrapper_ns"] = self.calibrate()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


def _patch(module: str, attr: str, make_wrapper) -> bool:
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return False
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        target = vars(cls).get(meth) if isinstance(cls, type) else None
        if not callable(target):
            return False
        wrapper = make_wrapper(target)
        for key, value in list(vars(cls).items()):
            if value is target:  # catches aliases such as __radd__ = __add__
                setattr(cls, key, wrapper)
        return True
    target = getattr(mod, attr, None)
    if not callable(target):
        return False
    wrapper = make_wrapper(target)
    for mname, m in list(sys.modules.items()):
        if m is None or not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(m).items()):
            if value is target:
                setattr(m, key, wrapper)
            elif type(value) is dict:
                for dk, dv in list(value.items()):
                    if dv is target:
                        value[dk] = wrapper
    return True


# ---------------------------------------------------------------------------
# per-layer metrics from one traced invocation
# ---------------------------------------------------------------------------

# name -> unit; the order is the print order.
LAYER_UNITS = {
    **{f"cli.suite.{s}_s": "s" for s in SUITES},
    "cli.sweep_theta_s": "s",
    "octonion.multiply.calls": "count",
    "octonion.multiply.self_s": "s",
    "octonion.multiply.symbolic_calls": "count",
    "octonion.inner.calls": "count",
    "octonion.inner.self_s": "s",
    "circ.circ.calls": "count",
    "circ.circ.self_s": "s",
    "circ.verify_normalized_s": "s",
    "linalg.mat_vec.calls": "count",
    "linalg.mat_vec.self_s": "s",
    "linalg.mat_vec.entries": "count",
    "linalg.mat_vec.nonzero_ratio": "ratio",
    "linalg.mat_mul.self_s": "s",
    "linalg.int_mat_mul.self_s": "s",
    "linalg.kernel_basis.self_s": "s",
    "clifford.verify_symmetric_system.self_s": "s",
    "clifford.find_intertwiner.self_s": "s",
    "clifford.normalize_a_system.self_s": "s",
    "poly.add.calls": "count",
    "poly.add.self_s": "s",
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "poly.mul.terms_out": "count",
    "poly.substitute_linear.self_s": "s",
    "poly.munzner_verify.self_s": "s",
    "systems.build_fkm_system.calls": "count",
    "systems.build_fkm_system.distinct_ratio": "ratio",
    "systems.fkm_polynomial.calls": "count",
    "systems.fkm_polynomial.distinct_ratio": "ratio",
    "systems.extract_expansion_forms_s": "s",
    "systems.matrix_route_forms_s": "s",
    "systems.condition_a_check_s": "s",
    "systems.condition_b_check_s": "s",
    "systems.perturb_mirror_s": "s",
    "mirror.q_star_fkm_eval.calls": "count",
    "mirror.trilinearity_extract_s": "s",
    "mirror.verify_ot_equations_s": "s",
    "identities.battery.calls": "count",
    "identities.battery.s": "s",
    "identities.battery.in_classify_calls": "count",
    "identities.classify_q_s": "s",
    "scalars.random_rational.calls": "count",
    "trace.overhead_s": "s",
    "trace.covered_share": "ratio",
    "trace.absent_targets": "count",
}

# Work counts: identical across traced invocations of the same argv.
COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items() if u == "count")


class _Absent:
    def __repr__(self) -> str:
        return "absent"


# The value of a metric that reads a target the program no longer has.
ABSENT = _Absent()
# ABSENT in the JSON result, which holds only numbers.
ABSENT_VALUE = -1


def layer_metrics(trace: dict, wall_ns: int) -> dict:
    """Per-layer values of one traced invocation.

    A value is ``ABSENT`` when a target it reads is absent.  A ratio of useful
    to attempted work with nothing attempted (no calls, no entries) is 1.0:
    nothing was wasted.  ``wall_ns`` is the invocation's launch-to-exit time.
    ``trace.overhead_s`` is here the tracer's own cost (see ``tracer_cost_s``);
    the caller replaces it by traced minus untraced wall time when it has an
    untraced invocation of the same run.
    """
    stats, counters, absent = trace["stats"], trace["counters"], set(trace["absent"])

    def present(*names):
        return not absent.intersection(names)

    def calls(name):
        return stats[name][0] if present(name) else ABSENT

    def total_s(name):
        return stats[name][1] / 1e9 if present(name) else ABSENT

    def self_s(name):
        return stats[name][2] / 1e9 if present(name) else ABSENT

    def counter(name, target):
        return counters.get(name, 0) if present(target) else ABSENT

    def ratio(num, den):
        if ABSENT in (num, den):
            return ABSENT
        return num / den if den else 1.0

    def distinct_ratio(name):
        return ratio(counter(name + ".keys", name), calls(name))

    names = [s[0] for s in trace["spans"]]
    in_classify = 0
    for name, _, _, parent, _ in trace["spans"]:
        if name in BATTERIES and parent >= 0 and names[parent] == "cli.suite.classify":
            in_classify += 1
    covered = sum(e - s for name, s, e, parent, _ in trace["spans"] if parent < 0 and name.startswith("cli."))
    batteries_present = present(*BATTERIES)

    m = {f"cli.suite.{s}_s": total_s(f"cli.suite.{s}") for s in SUITES}
    m.update(
        {
            "cli.sweep_theta_s": total_s("cli.sweep_theta"),
            "octonion.multiply.calls": calls("octonion.multiply"),
            "octonion.multiply.self_s": self_s("octonion.multiply"),
            "octonion.multiply.symbolic_calls": counter("octonion.multiply.symbolic_calls", "octonion.multiply"),
            "octonion.inner.calls": calls("octonion.inner"),
            "octonion.inner.self_s": self_s("octonion.inner"),
            "circ.circ.calls": calls("circ.circ"),
            "circ.circ.self_s": self_s("circ.circ"),
            "circ.verify_normalized_s": total_s("circ.verify_normalized"),
            "linalg.mat_vec.calls": calls("linalg.mat_vec"),
            "linalg.mat_vec.self_s": self_s("linalg.mat_vec"),
            "linalg.mat_vec.entries": counter("linalg.mat_vec.entries", "linalg.mat_vec"),
            "linalg.mat_vec.nonzero_ratio": ratio(
                counter("linalg.mat_vec.nonzero", "linalg.mat_vec"),
                counter("linalg.mat_vec.entries", "linalg.mat_vec"),
            ),
            "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
            "linalg.int_mat_mul.self_s": self_s("linalg.int_mat_mul"),
            "linalg.kernel_basis.self_s": self_s("linalg.kernel_basis"),
            "clifford.verify_symmetric_system.self_s": self_s("clifford.verify_symmetric_system"),
            "clifford.find_intertwiner.self_s": self_s("clifford.find_intertwiner"),
            "clifford.normalize_a_system.self_s": self_s("clifford.normalize_a_system"),
            "poly.add.calls": calls("poly.add"),
            "poly.add.self_s": self_s("poly.add"),
            "poly.mul.calls": calls("poly.mul"),
            "poly.mul.self_s": self_s("poly.mul"),
            "poly.mul.terms_out": counter("poly.mul.terms_out", "poly.mul"),
            "poly.substitute_linear.self_s": self_s("poly.substitute_linear"),
            "poly.munzner_verify.self_s": self_s("poly.munzner_verify"),
            "systems.build_fkm_system.calls": calls("systems.build_fkm_system"),
            "systems.build_fkm_system.distinct_ratio": distinct_ratio("systems.build_fkm_system"),
            "systems.fkm_polynomial.calls": calls("systems.fkm_polynomial"),
            "systems.fkm_polynomial.distinct_ratio": distinct_ratio("systems.fkm_polynomial"),
            "systems.extract_expansion_forms_s": total_s("systems.extract_expansion_forms"),
            "systems.matrix_route_forms_s": total_s("systems.matrix_route_forms"),
            "systems.condition_a_check_s": total_s("systems.condition_a_check"),
            "systems.condition_b_check_s": total_s("systems.condition_b_check"),
            "systems.perturb_mirror_s": total_s("systems.perturb_mirror"),
            "mirror.q_star_fkm_eval.calls": calls("mirror.q_star_fkm_eval"),
            "mirror.trilinearity_extract_s": total_s("mirror.trilinearity_extract"),
            "mirror.verify_ot_equations_s": total_s("mirror.verify_ot_equations"),
            "identities.battery.calls": sum(stats[b][0] for b in BATTERIES) if batteries_present else ABSENT,
            "identities.battery.s": sum(stats[b][1] for b in BATTERIES) / 1e9 if batteries_present else ABSENT,
            "identities.battery.in_classify_calls": in_classify if batteries_present else ABSENT,
            "identities.classify_q_s": total_s("identities.classify_q"),
            "scalars.random_rational.calls": calls("scalars.random_rational"),
            "trace.overhead_s": tracer_cost_s(trace),
            "trace.covered_share": covered / wall_ns,
            "trace.absent_targets": len(absent),
        }
    )
    return m


def tracer_cost_s(trace: dict) -> float:
    """The tracer's cost in one traced invocation: hook time plus calls x wrapper cost."""
    per_call = trace["wrapper_ns"]
    ns = trace["hook_ns"]
    for name, (calls, _, _) in trace["stats"].items():
        ns += calls * per_call["aggregated" if name in HOT else "recorded"]
    return ns / 1e9
