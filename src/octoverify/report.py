"""Check/report containers with deterministic JSON serialization, and the two
drivers that check an identity stated as the values that must vanish:
``proved`` for polynomials in symbolic slots, ``sampled`` for seeded draws.

``sampled`` evaluates its residual function once per chunk of draws, on
slots whose coordinates are ``scalars.SampleBatch``es that hold every draw
of the chunk, so a residual must be a branch-free ring expression in its
slots (``+ - *`` with ints and Fractions, through the kernels' generic
paths) that draws nothing itself."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .scalars import SampleBatch, stack_vectors

SCHEMA_VERSION = "1"

# Draws evaluated together by ``sampled``: the batch amortises the per-call
# cost of the kernels, and the chunk bounds the memory held by the batch.
SAMPLES_PER_CHUNK = 100


def encode_value(v: Any) -> Any:
    """JSON-safe encoding; Fractions become 'p/q' strings."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    return str(v)


@dataclass
class Check:
    name: str
    passed: bool
    residual: Any = Fraction(0)
    detail: Any = None

    def to_json(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "residual": encode_value(self.residual)}
        if self.detail is not None:
            out["detail"] = encode_value(self.detail)
        return out


@dataclass
class Report:
    name: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, residual: Any = Fraction(0), detail: Any = None) -> Check:
        c = Check(name, bool(passed), residual, detail)
        self.checks.append(c)
        return c

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.notes.extend(other.notes)

    def max_residual(self):
        vals = [c.residual for c in self.checks if isinstance(c.residual, (Fraction, int, float))]
        return max((abs(v) for v in vals), default=Fraction(0))

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "max_residual": encode_value(self.max_residual()),
            "checks": [c.to_json() for c in self.checks],
            "notes": list(self.notes),
        }


_RUN_REPORT_KEYS = {"schema_version", "tool", "config", "suites", "pass", "timing"}
_SUITE_KEYS = {"name", "pass", "max_residual", "checks", "notes"}
_CHECK_KEYS = {"name", "pass", "residual", "detail"}


def validate_report(d: dict) -> None:
    """Schema check: versioned, with unknown fields forbidden at every level.

    No run-time caller: ``test_report_schema_validation`` checks the CLI's
    report against the schema with it."""
    if set(d) != _RUN_REPORT_KEYS:
        raise ValueError(f"unexpected top-level fields: {sorted(set(d) ^ _RUN_REPORT_KEYS)}")
    if d["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unknown schema version {d['schema_version']!r}")
    for s in d["suites"]:
        extra = set(s) - _SUITE_KEYS
        if extra:
            raise ValueError(f"unexpected suite fields: {sorted(extra)}")
        for c in s.get("checks", ()):
            extra = set(c) - _CHECK_KEYS
            if extra:
                raise ValueError(f"unexpected check fields: {sorted(extra)}")


@dataclass
class WitnessReport:
    """One verified identity instance: recorded inputs, both sides, residual."""

    identity_name: str
    inputs: Any
    lhs: Any
    rhs: Any
    residual: Any
    passed: bool

    def to_json(self) -> dict:
        return {
            "identity": self.identity_name,
            "inputs": encode_value(self.inputs),
            "lhs": encode_value(self.lhs),
            "rhs": encode_value(self.rhs),
            "residual": encode_value(self.residual),
            "pass": self.passed,
        }


def proved(name: str, residuals) -> WitnessReport:
    """The witness that every polynomial in ``residuals`` is zero: a proof of
    the identity when its slots are ``octonion.symbolic_octets``.
    ``instances`` counts the residuals; the recorded residual is 0 on a pass,
    1 on a failure."""
    count = 0
    ok = True
    for r in residuals:
        count += 1
        ok = r.is_zero() and ok
    return WitnessReport(name, {"instances": count}, None, None, 0 if ok else 1, ok)


def sampled(name: str, samples: int, draw, residuals) -> WitnessReport:
    """The witness that every value of ``residuals(*draw())`` vanishes on
    ``samples`` draws (typically of ``octonion.random_octets``, which draws
    each letter's coordinates in one ``scalars.random_rationals`` call).

    The draws are made in order, ``SAMPLES_PER_CHUNK`` at a time; each slot
    of a chunk is stacked by ``scalars.stack_vectors``, and ``residuals`` is
    called once per chunk on the stacked slots, so each value it returns is
    a ``SampleBatch`` holding that value for every draw of the chunk (a
    plain rational value counts once).  Every draw is made, also after a
    failing sample, so the generator behind ``draw`` ends at the same place
    either way; the recorded residual is the worst |value| over every
    sample.  ``samples`` < 1 raises ``ValueError``: a pass over no draws
    would witness nothing."""
    if samples < 1:
        raise ValueError(f"{name}: sampled needs at least one sample, not {samples}")
    worst = Fraction(0)
    for start in range(0, samples, SAMPLES_PER_CHUNK):
        draws = [draw() for _ in range(min(SAMPLES_PER_CHUNK, samples - start))]
        for v in residuals(*map(stack_vectors, zip(*draws))):
            if v:
                worst = max(worst, *map(abs, v.values() if isinstance(v, SampleBatch) else (v,)))
    return WitnessReport(name, {"instances": samples}, None, None, worst, worst == 0)
