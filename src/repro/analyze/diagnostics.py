"""Diagnostics framework for the constraint-system static analyzer.

Every analysis pass emits :class:`Diagnostic` records — severity, a stable
``ZKxxx`` code, a location (wire and/or constraint index), a human message
and a suggested fix — and the analyzer collects them into an
:class:`AnalysisReport` with text and JSON renderers.

There is no suppression and no baseline: a finding is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "AnalysisReport",
    "CircuitAnalysisError",
    "Diagnostic",
    "ERROR",
    "INFO",
    "WARNING",
    "render_reports",
    "reports_to_json",
]

#: Severity levels, most severe first.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}


class CircuitAnalysisError(ValueError):
    """Raised by ``compile_circuit(..., check=True)`` when the analyzer
    finds error-severity diagnostics.  Carries the offending report."""

    def __init__(self, report):
        self.report = report
        errors = report.errors()
        lines = [f"{len(errors)} error(s) in circuit {report.circuit!r}:"]
        lines += [f"  {d.format()}" for d in errors]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``code`` is stable across releases (``ZK1xx`` structural, ``ZK2xx``
    constraint coverage, ``ZK3xx`` redundancy, ``ZK4xx`` cost); tools
    may match on it.  ``wire`` / ``constraint`` locate the finding;
    ``suggestion`` says how to fix it.
    """

    code: str
    severity: str
    message: str
    wire: int | None = None
    constraint: int | None = None
    suggestion: str | None = None

    def location(self):
        """Human-readable location fragment (may be empty)."""
        parts = []
        if self.constraint is not None:
            parts.append(f"constraint {self.constraint}")
        if self.wire is not None:
            parts.append(f"wire {self.wire}")
        return ", ".join(parts)

    def format(self):
        """One-line rendering: ``ZK201 error [wire 5]: message``."""
        loc = self.location()
        loc = f" [{loc}]" if loc else ""
        text = f"{self.code} {self.severity}{loc}: {self.message}"
        if self.suggestion:
            text += f" ({self.suggestion})"
        return text

    def to_dict(self):
        d = {"code": self.code, "severity": self.severity, "message": self.message}
        if self.wire is not None:
            d["wire"] = self.wire
        if self.constraint is not None:
            d["constraint"] = self.constraint
        if self.suggestion:
            d["suggestion"] = self.suggestion
        return d

    def sort_key(self):
        return (
            _SEVERITY_RANK.get(self.severity, 9),
            self.code,
            self.constraint if self.constraint is not None else -1,
            self.wire if self.wire is not None else -1,
        )


@dataclass
class AnalysisReport:
    """All diagnostics for one circuit, plus its shape stats."""

    circuit: str
    stats: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def extend(self, diags):
        self.diagnostics.extend(diags)

    def finalize(self):
        """Sort diagnostics by severity, then code, then location."""
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    # -- queries -----------------------------------------------------------------

    def by_severity(self, severity):
        return [d for d in self.diagnostics if d.severity == severity]

    def errors(self):
        return self.by_severity(ERROR)

    def warnings(self):
        return self.by_severity(WARNING)

    @property
    def has_errors(self):
        return bool(self.errors())

    def codes(self):
        """Set of diagnostic codes present in the report."""
        return {d.code for d in self.diagnostics}

    # -- renderers ---------------------------------------------------------------

    def render(self):
        """Multi-line text rendering, clean circuits included."""
        head = (
            f"{self.circuit}: {self.stats.get('n_constraints', '?')} constraints, "
            f"{self.stats.get('n_wires', '?')} wires"
        )
        if not self.diagnostics:
            return f"{head} -- clean"
        lines = [f"{head} -- {self.summary()}"]
        lines += [f"  {d.format()}" for d in self.diagnostics]
        return "\n".join(lines)

    def summary(self):
        n_err = len(self.errors())
        n_warn = len(self.warnings())
        n_info = len(self.diagnostics) - n_err - n_warn
        return f"{n_err} error(s), {n_warn} warning(s), {n_info} info"

    def to_dict(self):
        return {
            "circuit": self.circuit,
            "stats": dict(self.stats),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def render_reports(reports):
    """Text rendering of several reports plus a totals line (``repro
    lint``)."""
    lines = [r.render() for r in reports]
    n_err = sum(len(r.errors()) for r in reports)
    n_warn = sum(len(r.warnings()) for r in reports)
    lines.append(
        f"{len(reports)} circuit(s) analyzed: "
        f"{n_err} error(s), {n_warn} warning(s)"
    )
    return "\n".join(lines)


def reports_to_json(reports):
    """JSON rendering (``repro lint --json``)."""
    return json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2)
