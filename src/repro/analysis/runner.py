"""Lint driver: file discovery, rule execution, CLI.

``python -m repro lint [paths...]`` — lints ``src/repro`` by default,
prints a text or JSON report, and exits 0 (clean), 1 (findings), or
2 (usage/parse error). The driver parses every file first, builds the
:class:`~repro.analysis.program.Program` whole-program model, runs every
rule over it once, and audits the ``# slinglint: disable=`` comments
for the ones that suppressed nothing (SUP001) — on every run: a stale
directive silently swallows the next violation on its line.
``--list-rules`` prints the rule catalog (id, severity, title).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import Finding, format_findings, sort_findings
from repro.analysis.program import Program
from repro.analysis.registry import LintContext, all_rules, run_rules


def _repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


def _default_target() -> Path:
    return Path(__file__).resolve().parents[1]


@dataclass
class LintReport:
    """Everything one lint invocation produced."""

    findings: List[Finding]
    program: Program


def _run_over_contexts(contexts: Sequence[LintContext]) -> LintReport:
    """Build the program from parsed contexts and run every rule over it."""
    program = Program(contexts)
    return LintReport(findings=sort_findings(run_rules(program)), program=program)


def _is_skippable(path: Path) -> bool:
    """True for files under ``__pycache__`` or hidden directories."""
    return any(
        part == "__pycache__" or part.startswith(".") for part in path.parts[:-1]
    ) or path.name.startswith(".")


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand directories into sorted ``*.py`` file lists.

    ``__pycache__`` and hidden directories are skipped, and overlapping
    arguments are deduplicated by resolved path — ``repro lint src
    src/repro`` lints (and reports) each file once.
    """
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if not _is_skippable(p)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _contexts_for_paths(paths: Optional[Sequence[Path]]) -> List[LintContext]:
    targets = [Path(p) for p in paths] if paths else [_default_target()]
    root = _repo_root()
    contexts: List[LintContext] = []
    for file_path in discover_files(targets):
        resolved = file_path.resolve()
        try:
            display = str(resolved.relative_to(root))
        except ValueError:
            display = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            contexts.append(LintContext.for_source(source, path=display))
        except (SyntaxError, ValueError) as exc:
            # ValueError: not UTF-8 (UnicodeDecodeError) or, on older
            # interpreters, a NUL byte; neither message names the file.
            raise ValueError(f"{display}: {exc}") from exc
    return contexts


def lint_report(paths: Optional[Sequence[Path]]) -> LintReport:
    """Full lint pass over files/directories (None: the default
    targets), returning the rich report.

    Finding paths are reported relative to the repository root when the
    file lives under it, so reports are stable across checkouts.
    """
    return _run_over_contexts(_contexts_for_paths(paths))


def rule_catalog() -> str:
    """The registered rule catalog, one ``ID severity title`` line each."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id:10s} {str(rule.severity):8s} {rule.title}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis for the Slingshot reproduction (slinglint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package source)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, severity, title) and exit",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.list_rules:
        print(rule_catalog())
        return 0
    try:
        report = lint_report(args.paths or None)
    except (OSError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    findings = report.findings
    try:
        print(format_findings(findings, fmt=args.format))
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe; the exit code
        # still reports the findings.
        sys.stderr.close()
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
