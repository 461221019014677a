"""Structured validation reports.

A report is a tuple of named checks, each carrying a verdict (``pass``,
``fail`` or ``indeterminate``), an optional relative residual, and a short
human-readable detail string.  ``indeterminate`` marks checks whose verdict
could not be certified numerically (for example a co-stability test that was
refused because commutativity already failed).

A report's verdict is ``fail`` when any check fails, else ``indeterminate``
when any check is, else ``pass``; ``require`` turns it into the exception an
operation that needs a valid input raises, so a failing check gives
``InvalidPointError`` and an uncertified one ``IndeterminateError``.  A check
refused because an earlier one did not pass has a detail starting with
``refused:``; the ``IndeterminateError`` names only the checks that caused it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IndeterminateError, InvalidPointError
from .linalg import _residual

__all__ = ["Check", "ValidationReport", "merge"]

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
        """Whether the verdict is indeterminate (false on a failing report)."""
        return self.verdict == INDETERMINATE

    @property
    def verdict(self) -> str:
        verdicts = {c.verdict for c in self.checks}
        return FAIL if FAIL in verdicts else INDETERMINATE if INDETERMINATE in verdicts else PASS

    def require(self, who: str, what: str = "input is not a valid point") -> ValidationReport:
        """The report itself when it passes; otherwise raise for caller ``who``."""
        verdict = self.verdict
        if verdict == FAIL:
            raise InvalidPointError(f"{who}: {what}")
        if verdict == INDETERMINATE:
            names = ", ".join(c.name for c in self.checks if c.verdict == INDETERMINATE
                              and not c.detail.startswith("refused:"))
            raise IndeterminateError(f"{who}: cannot certify {names}")
        return self

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


def _residual_check(name: str, diff, scale, bound: float, detail: str) -> Check:
    """Pass iff linalg._residual(diff, scale) <= bound; a nan residual certifies
    nothing, so its verdict is indeterminate and no residual is reported."""
    residual = _residual(diff, scale)
    if math.isnan(residual):
        return Check(name=name, verdict=INDETERMINATE, detail=f"{detail} (residual is not finite)")
    return Check(name=name, verdict=PASS if residual <= bound else FAIL, residual=residual,
                 detail=detail)


def merge(*reports: ValidationReport) -> ValidationReport:
    """Concatenate several reports; the chart set of the last one wins."""
    checks = tuple(c for r in reports for c in r.checks)
    chart_set = next((r.chart_set for r in reversed(reports) if r.chart_set is not None), None)
    return ValidationReport(checks=checks, chart_set=chart_set)
