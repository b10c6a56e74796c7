"""Line-oriented check reports shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional


def rat_str(x) -> str:
    """Exact rational rendering "p/q" (plain integer when q = 1)."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {status}" + (f" {self.detail}" if self.detail else "")


class RunReport:
    __slots__ = ("checks",)

    def __init__(self, checks: Optional[list[Check]] = None):
        self.checks = [] if checks is None else checks

    def __repr__(self) -> str:
        return f"RunReport(checks={self.checks!r})"

    def add(self, name: str, passed: bool, detail: str = "") -> Check:
        c = Check(name, bool(passed), detail)
        self.checks.append(c)
        return c

    def extend(self, other: "RunReport") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        return "\n".join(c.line() for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)
