"""Structured lint findings.

A :class:`Finding` pins one rule violation to a file and line, carries a
severity, a human-readable message, and a fix hint. Findings sort by
location so reports are stable regardless of rule execution order.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from typing import Iterable, List


class Severity(enum.IntEnum):
    """Finding severity. All severities fail the lint gate; the grading
    only orders the report and signals how mechanical the fix is."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str
    fix_hint: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["severity"] = str(self.severity)
        return data


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable report order: by location, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def format_findings(findings: Iterable[Finding], fmt: str) -> str:
    """Render findings as a text report or a JSON document."""
    ordered = sort_findings(findings)
    if fmt == "json":
        return json.dumps([f.to_dict() for f in ordered], indent=2)
    if fmt != "text":
        raise ValueError(f"unknown findings format: {fmt!r}")
    lines = []
    for finding in ordered:
        lines.append(
            f"{finding.location}: {finding.rule_id} [{finding.severity}] "
            f"{finding.message}"
        )
        if finding.fix_hint:
            lines.append(f"    hint: {finding.fix_hint}")
    lines.append(f"{len(ordered)} finding(s)")
    return "\n".join(lines)
