"""Perf-package rules (PERF0xx).

The perf subsystem is the one part of the tree that *must* read the host
wall clock — that is what a benchmark harness does — but letting each
benchmark call ``time.*`` directly would scatter ad-hoc clock choices
(``time.time`` vs ``monotonic`` vs ``perf_counter``) through measurement
code and make the DET001 allowlist unauditable. So all wall-time reads
inside ``repro/perf/`` flow through the sanctioned helper module
:mod:`repro.perf.timing` (itself carrying the DET001 suppression), and
PERF001 enforces the funnel.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import LintContext, LintRule, dotted_name, register_rule

#: The single module inside repro/perf allowed to touch ``time``.
_SANCTIONED = ("perf", "timing.py")


@register_rule
class PerfTimingFunnelRule(LintRule):
    """PERF001: perf code reads wall time only via ``repro.perf.timing``.

    Flags any ``import time`` / ``from time import ...`` and any
    ``time.<fn>()`` call in ``repro/perf/`` outside ``timing.py``.
    """

    rule_id = "PERF001"
    title = "direct time.* use in perf package"
    severity = Severity.ERROR
    fix_hint = (
        "call repro.perf.timing.wall_ns() / wall_seconds_since(); only "
        "perf/timing.py may touch the time module"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.module_parts or ctx.module_parts[0] != "perf":
            return
        if ctx.in_module(*_SANCTIONED):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" or alias.name.startswith("time."):
                        yield self.finding(
                            ctx, node, "import of the time module in perf code"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    yield self.finding(
                        ctx, node, "import from the time module in perf code"
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and (
                    name == "time" or name.startswith("time.")
                ):
                    yield self.finding(
                        ctx, node, f"direct wall-clock call {name}() in perf code"
                    )


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

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_method(ctx, func)

    def _check_method(self, ctx: LintContext, func: _FuncDef) -> Iterator[Finding]:
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
                ctx,
                node,
                f"{owner}.{callee.attr}(..., self.{func.name}) inside "
                f"{func.name}(): periodic self-reschedule bypasses the "
                "wheel lane",
            )
