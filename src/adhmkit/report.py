"""Structured validation reports.

A report is a tuple of named checks, each carrying a verdict (``pass``,
``fail`` or ``indeterminate``), an optional relative residual, and a short
human-readable detail string.  ``indeterminate`` marks checks whose verdict
could not be certified numerically (for example a co-stability test that was
refused because commutativity already failed).
"""

from __future__ import annotations

from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Check:
    name: str
    verdict: str
    residual: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self):
        out = {"name": self.name, "verdict": self.verdict}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple = ()
    chart_set: tuple | None = None

    @property
    def passed(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    @property
    def indeterminate(self) -> bool:
        return any(c.verdict == INDETERMINATE for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        out = {
            "passed": self.passed,
            "indeterminate": self.indeterminate,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.chart_set is not None:
            out["chart_set"] = list(self.chart_set)
        return out


def merge(*reports: ValidationReport) -> ValidationReport:
    """Concatenate several reports; the chart set of the last one wins."""
    checks = tuple(c for r in reports for c in r.checks)
    chart_set = None
    for r in reports:
        if r.chart_set is not None:
            chart_set = r.chart_set
    return ValidationReport(checks=checks, chart_set=chart_set)
