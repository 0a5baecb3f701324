"""Check/report containers with deterministic JSON serialization, and
``proved``, the driver that checks an identity stated as the values that
must vanish: its residuals, polynomials in ``octonion.symbolic_octets``
slots, are zero exactly when the identity holds."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

SCHEMA_VERSION = "1"


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
    """The witness that every value in ``residuals`` is zero: a proof of the
    identity when its slots are ``octonion.symbolic_octets``.  A value is a
    polynomial or a plain rational (a term with no slot in it), and either
    is judged by its truth.  ``instances`` counts the residuals; the
    recorded residual is 0 on a pass, 1 on a failure."""
    count = 0
    ok = True
    for r in residuals:
        count += 1
        ok = not r and ok
    return WitnessReport(name, {"instances": count}, None, None, 0 if ok else 1, ok)

