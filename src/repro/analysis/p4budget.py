"""P4 pipeline rule (P4R003) — the per-pass register-access bound.

The fronthaul middlebox (:mod:`repro.core.fh_middlebox`) models a Tofino
pipeline, and a Tofino imposes a hard limit that plain Python never
would: a stateful register array is bound to pipeline stages, so one
packet pass can touch it only a small fixed number of times. This module
recovers the pipeline's shape from the AST — table and register
declarations, plus a call graph of the ``_process_*`` packet passes — and
checks that bound; nothing else in the repo does. (The §8.6 fractional
SRAM/ALU/crossbar budget is arithmetic on the deployment scale, not on
the program text: :mod:`repro.net.p4.resources` computes it,
``tests/test_p4.py`` asserts it and ``fleet.composer`` enforces it at
run time.)

Modelling notes:

* A *pass* is one ``process``/``_process_*`` method plus the helpers it
  (transitively) calls. Dispatch between pass methods selects which pass
  a packet takes, so expansion does not descend from one pass method
  into another.
* Access counting is branch-insensitive: every ``.read()``/``.write()``
  in a reachable body counts, which over-approximates any single
  dynamic execution — exactly what a compiler placing stateful ALUs
  must provision for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import Program
from repro.analysis.registry import LintRule, dotted_name, register_rule

#: Stateful-ALU accesses to a single register array within one pass.
MAX_REGISTER_ACCESSES_PER_PASS = 4


@dataclass
class P4ProgramSummary:
    """Statically recovered shape of a switch-pipeline program."""

    #: Declared match-action tables, by attribute name.
    tables: Set[str] = field(default_factory=set)
    #: Declared register arrays, by attribute name.
    registers: Set[str] = field(default_factory=set)
    #: Per-pass, per-register access counts: pass name -> register -> count.
    pass_accesses: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def max_accesses(self, register: str) -> int:
        """Worst-case accesses to one register array over all passes."""
        return max(
            (counts.get(register, 0) for counts in self.pass_accesses.values()),
            default=0,
        )


def _is_pass_method(name: str) -> bool:
    return name == "process" or name.startswith("_process")


def summarize_program(tree: ast.Module) -> P4ProgramSummary:
    """Recover tables, registers, and per-pass access counts from a module."""
    summary = P4ProgramSummary()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods: Dict[str, ast.FunctionDef] = {
            item.name: item
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        # Declarations: self.<attr> = MatchActionTable(...)/RegisterArray(...)
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            ctor = dotted_name(node.value.func)
            if ctor is None:
                continue
            ctor = ctor.rpartition(".")[2]
            if ctor not in ("MatchActionTable", "RegisterArray"):
                continue
            for target in node.targets:
                attr = dotted_name(target)
                if attr is None:
                    continue
                attr = attr.rpartition(".")[2]
                if ctor == "MatchActionTable":
                    summary.tables.add(attr)
                else:
                    summary.registers.add(attr)
        if not summary.registers and not summary.tables:
            continue
        # Per-method direct register accesses and intra-class call edges.
        direct: Dict[str, Dict[str, int]] = {}
        calls: Dict[str, Set[str]] = {}
        for name, fn in methods.items():
            counts: Dict[str, int] = {}
            edges: Set[str] = set()
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                target = dotted_name(node.func)
                if target is None:
                    continue
                parts = target.split(".")
                if (
                    len(parts) == 3
                    and parts[0] == "self"
                    and parts[1] in summary.registers
                    and parts[2] in ("read", "write")
                ):
                    counts[parts[1]] = counts.get(parts[1], 0) + 1
                elif len(parts) == 2 and parts[0] == "self" and parts[1] in methods:
                    edges.add(parts[1])
            direct[name] = counts
            calls[name] = edges
        # Expand each pass: sum direct counts over its transitive helpers,
        # never crossing into another pass method (that edge is dispatch).
        for name in methods:
            if not _is_pass_method(name):
                continue
            totals: Dict[str, int] = {}
            seen: Set[str] = set()
            stack: List[str] = [name]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                for register, count in direct[current].items():
                    totals[register] = totals.get(register, 0) + count
                for callee in calls[current]:
                    if callee != name and _is_pass_method(callee):
                        continue
                    stack.append(callee)
            summary.pass_accesses[name] = totals
    return summary


@register_rule
class RegisterAccessRule(LintRule):
    """P4R003: bounded register accesses per packet pass.

    A stateful register array is bound to pipeline stages; one packet
    pass can only touch it a small fixed number of times. Counts
    ``.read()``/``.write()`` over the branch-insensitive call graph of
    each ``process``/``_process_*`` pass.
    """

    rule_id = "P4R003"
    title = "register accessed too often in one pass"
    severity = Severity.ERROR
    fix_hint = (
        "cache the value in packet metadata (one read per pass) or split "
        "the logic across recirculation passes"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for module in program.modules.values():
            summary = summarize_program(module.context.tree)
            for pass_name in sorted(summary.pass_accesses):
                counts = summary.pass_accesses[pass_name]
                for register in sorted(counts):
                    if counts[register] > MAX_REGISTER_ACCESSES_PER_PASS:
                        yield self.finding(
                            module.context.path,
                            1,
                            1,
                            f"register {register!r} accessed {counts[register]}x "
                            f"in pass {pass_name}() "
                            f"(limit {MAX_REGISTER_ACCESSES_PER_PASS})",
                        )
