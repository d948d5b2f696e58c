"""Rule registry, lint context, and suppression handling.

Rules are small classes registered with :func:`register_rule`; each gets
the :class:`~repro.analysis.program.Program` built from every linted
file (a single snippet is a one-module program) and yields
:class:`~repro.analysis.findings.Finding` objects, which the framework
filters through the suppressions of the file they anchor to.
Suppressions:

* ``# slinglint: disable=RULE1,RULE2`` on the offending line, or
* ``# slinglint: disable=all`` to silence every rule on that line, or
* ``# slinglint: disable-file=RULE`` (or ``all``) anywhere in the file.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (program -> registry)
    from repro.analysis.program import Program

_SUPPRESS_RE = re.compile(
    r"#\s*slinglint:\s*(disable|disable-file)=([A-Za-z0-9_,\s]+|all)"
)


def parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract per-line and whole-file suppressions from source comments.

    Uses the tokenizer (not a regex over raw lines) so directives inside
    string literals do not count. Returns ``(line -> rule ids, file-wide
    rule ids)``; the id ``"all"`` suppresses every rule.
    """
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            kind, spec = match.groups()
            rules = {part.strip() for part in spec.split(",") if part.strip()}
            if kind == "disable":
                per_line.setdefault(token.start[0], set()).update(rules)
            else:
                whole_file.update(rules)
    except tokenize.TokenError:  # pragma: no cover - only on broken source
        pass
    return per_line, whole_file


@dataclass
class LintContext:
    """Everything a rule needs to check one file."""

    #: Path as reported in findings (repo-relative when possible).
    path: str
    source: str
    tree: ast.Module
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)
    #: Path split into parts relative to the ``repro`` package root, e.g.
    #: ``("sim", "rng.py")``; empty when the file is outside the package.
    module_parts: Tuple[str, ...] = ()

    @classmethod
    def for_source(cls, source: str, path: str) -> "LintContext":
        per_line, whole_file = parse_suppressions(source)
        tree = ast.parse(source, filename=path)
        parts: Tuple[str, ...] = ()
        pieces = path.replace("\\", "/").split("/")
        if "repro" in pieces:
            parts = tuple(pieces[pieces.index("repro") + 1 :])
        return cls(
            path=path,
            source=source,
            tree=tree,
            line_suppressions=per_line,
            file_suppressions=whole_file,
            module_parts=parts,
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        if {"all", rule_id} & self.file_suppressions:
            return True
        at_line = self.line_suppressions.get(line, set())
        return bool({"all", rule_id} & at_line)


def location(node: ast.AST) -> Tuple[int, int]:
    """``(line, col)`` of an AST node, 1-based; ``(1, 1)`` for a module."""
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1


class LintRule:
    """Base class for one lint rule.

    Subclasses set ``rule_id``, ``title``, ``severity``, ``fix_hint`` and
    implement :meth:`check`, yielding findings (suppression filtering is
    applied by the framework, not the rule). A rule iterates the
    program's modules (or :meth:`Program.walk`) and anchors each finding
    to a file and line.
    """

    rule_id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    fix_hint: str = ""

    def check(self, program: "Program") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        """Build a finding at ``path:line:col`` (see :func:`location`)."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            fix_hint=self.fix_hint,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: add a rule to the global registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[LintRule]:
    """Fresh instances of every registered rule, in id order."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


@register_rule
class UnusedSuppressionRule(LintRule):
    """SUP001: suppression comments must still suppress something.

    A ``# slinglint: disable=RULE`` directive that no longer matches any
    finding is dead weight: it documents a violation that was fixed (or
    never existed) and will silently swallow a *future* violation on
    that line. The audit needs every other rule's findings, so
    :func:`run_rules` computes it last, on every run.
    """

    rule_id = "SUP001"
    title = "unused suppression directive"
    severity = Severity.WARNING
    fix_hint = "delete the stale # slinglint: disable comment"

    def check(self, program: "Program") -> Iterator[Finding]:
        # Not computable from the program alone; see unused().
        return iter(())

    def unused(self, ctx: LintContext, suppressed: Sequence[Finding]) -> List[Finding]:
        """Findings for the directives in ``ctx`` that suppressed nothing.

        ``suppressed`` is the set of findings (for this file) that rule
        execution dropped; a directive is *used* when at least one dropped
        finding matches its line and rule id.
        """

        def stale(line: int, rule_id: str, file_level: bool) -> Finding:
            scope = "file-wide " if file_level else ""
            return self.finding(
                ctx.path,
                line,
                1,
                f"{scope}suppression of {rule_id} no longer suppresses any finding",
            )

        dropped_by_line: Dict[int, Set[str]] = {}
        dropped_ids: Set[str] = set()
        for finding in suppressed:
            dropped_by_line.setdefault(finding.line, set()).add(finding.rule_id)
            dropped_ids.add(finding.rule_id)
        findings: List[Finding] = []
        for line in sorted(ctx.line_suppressions):
            at_line = dropped_by_line.get(line, set())
            for rule_id in sorted(ctx.line_suppressions[line]):
                used = bool(at_line) if rule_id == "all" else rule_id in at_line
                if not used:
                    findings.append(stale(line, rule_id, file_level=False))
        for rule_id in sorted(ctx.file_suppressions):
            used = bool(dropped_ids) if rule_id == "all" else rule_id in dropped_ids
            if not used:
                findings.append(stale(1, rule_id, file_level=True))
        return findings


def run_rules(program: "Program") -> List[Finding]:
    """Run every registered rule over the program, filter each finding
    through the suppressions of the file it anchors to, then audit the
    suppression directives against what they dropped (SUP001)."""
    results: List[Finding] = []
    dropped: Dict[str, List[Finding]] = {}
    for rule in all_rules():
        for finding in rule.check(program):
            ctx = program.context_for_path(finding.path)
            if ctx is not None and ctx.suppressed(finding.rule_id, finding.line):
                dropped.setdefault(finding.path, []).append(finding)
            else:
                results.append(finding)
    audit = UnusedSuppressionRule()
    for module in program.modules.values():
        ctx = module.context
        results.extend(audit.unused(ctx, dropped.get(ctx.path, [])))
    return results


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
