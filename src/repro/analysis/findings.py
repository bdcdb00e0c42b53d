"""Findings: the common currency of the static analysis subsystem.

Every analysis pass (typed verifier, instrumentation linter, call-graph
builder) reports :class:`Finding` records — severity, rule, owning
class/method, instruction index, message — collected into an
:class:`AnalysisReport` that renders as text or JSON and folds into the
metrics registry.  Error-severity findings gate execution (``repro
analyze`` exits non-zero; the classloader's ``--verify typed`` raises);
warnings and infos are advisory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class Severity(enum.Enum):
    """How bad a finding is."""

    ERROR = "error"      # the class must not run / the invariant is broken
    WARNING = "warning"  # suspicious but executable (e.g. unreachable code)
    INFO = "info"        # observation (e.g. unresolvable call target)


@dataclass(frozen=True)
class Finding:
    """One analysis result, anchored to a program point."""

    severity: Severity
    rule: str                 # machine-readable rule id, e.g. "type-confusion"
    class_name: str
    method: str               # name + descriptor ("" for class-level findings)
    message: str
    pc: Optional[int] = None  # instruction index, when instruction-level
    #: the instruction's mnemonic, when a structural failure named it
    #: (carried back into a VerifyError; not part of the rendering)
    mnemonic: Optional[str] = field(default=None, compare=False)

    def location(self) -> str:
        where = self.class_name
        if self.method:
            where += f".{self.method}"
        if self.pc is not None:
            where += f" @ {self.pc}"
        return where

    def render(self) -> str:
        return (f"{self.severity.value:7s} [{self.rule}] "
                f"{self.location()}: {self.message}")

    def to_json(self) -> dict:
        return {
            "severity": self.severity.value,
            "rule": self.rule,
            "class": self.class_name,
            "method": self.method,
            "pc": self.pc,
            "message": self.message,
        }


@dataclass
class AnalysisReport:
    """An ordered collection of findings plus coverage counters."""

    findings: List[Finding] = field(default_factory=list)
    classes_analyzed: int = 0
    methods_analyzed: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "AnalysisReport") -> None:
        self.findings.extend(other.findings)
        self.classes_analyzed += other.classes_analyzed
        self.methods_analyzed += other.methods_analyzed

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> Dict[str, int]:
        counts = {s.value: 0 for s in Severity}
        for finding in self.findings:
            counts[finding.severity.value] += 1
        return counts

    def format_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        counts = self.counts()
        lines.append(
            f"{self.classes_analyzed} classes, "
            f"{self.methods_analyzed} methods analyzed: "
            f"{counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} infos")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "classes_analyzed": self.classes_analyzed,
            "methods_analyzed": self.methods_analyzed,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
        }
