"""Scheduling-lane rule (PERF002).

A periodic tick that re-schedules itself through the heap pops exactly
as many events as one riding the slot wheel, so no digest, event count
or ``--check`` gate notices the difference. This rule does.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import Program
from repro.analysis.registry import LintRule, dotted_name, location, register_rule

#: Scheduling entry points a self-rescheduler goes through.
_SCHEDULE_METHODS = ("schedule", "at")

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_static_delay(node: ast.AST) -> bool:
    """True for the delays a periodic tick uses: a literal, a stored
    period (``self.period``, ``config.slot_duration_ns``), or a local
    name. Computed delays (``deadline - self.now``, ``clock.until(...)``)
    are deadline-driven, not periodic, and stay on the heap."""
    return isinstance(node, (ast.Constant, ast.Attribute, ast.Name))


@register_rule
class PeriodicSelfRescheduleRule(LintRule):
    """PERF002: periodic self-rescheduling outside the wheel lane.

    Flags ``<sim>.schedule(<period>, self.<method>, ...)`` (and ``.at``)
    appearing *inside* ``<method>`` itself when the delay is a static
    expression — the pre-wheel periodic idiom that pays a full heap push
    per occurrence. Such ticks belong on ``schedule_periodic`` (the slot
    wheel: O(1) re-arm, epoch cancellation, compaction accounting).
    Deadline-based re-arms whose delay is computed stay unflagged, and so
    does ``.at(<parameter>, self.<method>)``: an absolute time the caller
    passed in is that caller's deadline (a one-shot deferral to it), not
    a period.
    """

    rule_id = "PERF002"
    title = "periodic self-reschedule through the heap"
    severity = Severity.ERROR
    fix_hint = (
        "use sim.schedule_periodic(period, callback) — the slot-wheel "
        "lane re-arms in O(1); self-rescheduling through schedule()/at() "
        "pays a heap push per occurrence"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for module, func in program.walk():
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_method(module.context.path, func)

    def _check_method(self, path: str, func: _FuncDef) -> Iterator[Finding]:
        for node in ast.walk(func):
            if node is func or not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not (
                isinstance(callee, ast.Attribute)
                and callee.attr in _SCHEDULE_METHODS
                and len(node.args) >= 2
            ):
                continue
            callback = node.args[1]
            if not (
                isinstance(callback, ast.Attribute)
                and isinstance(callback.value, ast.Name)
                and callback.value.id == "self"
                and callback.attr == func.name
            ):
                continue
            when = node.args[0]
            if not _is_static_delay(when):
                continue
            if (
                callee.attr == "at"
                and isinstance(when, ast.Name)
                and when.id in {arg.arg for arg in func.args.args}
            ):
                continue
            owner = dotted_name(callee.value) or "<sim>"
            yield self.finding(
                path,
                *location(node),
                f"{owner}.{callee.attr}(..., self.{func.name}) inside "
                f"{func.name}(): periodic self-reschedule bypasses the "
                "wheel lane",
            )
