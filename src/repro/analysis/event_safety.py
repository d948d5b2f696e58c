"""Event-safety rules (EVT0xx).

Complement to the dynamic tie-order race detector
(``Simulator(tie_shuffle_seed=...)``): these rules flag the two static
patterns that most often *create* tie-order races — late-binding loop
captures in scheduled callbacks, and zero-delay scheduling whose effect
depends on FIFO ordering of the current instant.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import Program
from repro.analysis.registry import LintRule, dotted_name, location, register_rule

#: The scheduling entry points whose lambda arguments EVT001 reads.
SCHEDULING_METHODS = {"schedule", "at", "run_until", "run_for"}


def _lambda_free_names(node: ast.Lambda) -> Set[str]:
    """Names the lambda reads that it does not itself bind."""
    bound = {arg.arg for arg in node.args.args}
    bound.update(arg.arg for arg in node.args.kwonlyargs)
    bound.update(arg.arg for arg in node.args.posonlyargs)
    if node.args.vararg:
        bound.add(node.args.vararg.arg)
    if node.args.kwarg:
        bound.add(node.args.kwarg.arg)
    free: Set[str] = set()
    for child in ast.walk(node.body):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in bound:
                free.add(child.id)
    return free


def _target_names(target: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


@register_rule
class LoopCaptureRule(LintRule):
    """EVT001: scheduled lambdas must not capture the loop variable.

    A lambda scheduled inside a ``for`` loop that reads the loop variable
    sees its value *at fire time* (the last iteration), not at schedule
    time — the classic late-binding bug, and a silent source of
    same-timestamp callbacks that all act on one item.
    """

    rule_id = "EVT001"
    title = "loop-variable capture in scheduled callback"
    severity = Severity.ERROR
    fix_hint = (
        "bind the loop variable eagerly: pass it as a callback argument "
        "(sim.schedule(d, fn, item)) or a lambda default (lambda item=item: ...)"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for module, loop in program.walk():
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            loop_vars = _target_names(loop.target)
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name.rpartition(".")[2] not in SCHEDULING_METHODS:
                    continue
                values: List[ast.expr] = list(node.args)
                values.extend(k.value for k in node.keywords)
                for value in values:
                    if isinstance(value, ast.Lambda):
                        captured = _lambda_free_names(value) & loop_vars
                        if captured:
                            yield self.finding(
                                module.context.path,
                                *location(value),
                                "scheduled lambda captures loop variable(s) "
                                + ", ".join(sorted(captured)),
                            )


@register_rule
class ZeroDelayRule(LintRule):
    """EVT002: zero-delay scheduling leans on FIFO tie order.

    ``schedule(0, ...)`` runs the callback at the *current* timestamp,
    after whatever else is queued there — semantics that evaporate under
    tie shuffling unless the callback is genuinely order-independent.
    Sites that are order-independent (verified by the tie-shuffle trace
    test) carry an inline suppression saying so.
    """

    rule_id = "EVT002"
    title = "zero-delay scheduling"
    severity = Severity.WARNING
    fix_hint = (
        "verify order-independence with Simulator(tie_shuffle_seed=...) and "
        "suppress, or schedule at an explicit later time"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for module, node in program.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            method = name.rpartition(".")[2]
            if method != "schedule":
                continue
            if node.args and (
                isinstance(node.args[0], ast.Constant) and node.args[0].value == 0
            ):
                yield self.finding(
                    module.context.path,
                    *location(node),
                    f"zero-delay {method}() depends on FIFO tie order",
                )
