"""Time-unit rules (TIMX0xx): float-seconds taint over the whole program.

The simulator clock is integer nanoseconds (:mod:`repro.sim.units`):
float time makes event ordering inexact and breaks TTI arithmetic. One
dataflow pass is the only time-unit check, whether the float is visible
in the scheduling call itself or arrives there through a rename, a
helper's return value or a chain of parameters:

* **sources** — float literals, seconds-suffixed identifiers
  (``duration_s``, ``timeout_secs``, ``gap_seconds``), and the known
  float-time producers ``ns_to_s``/``ns_to_ms``/``ns_to_us``;
* **propagation** — through local assignments, function returns, and
  call arguments, using :meth:`Program.resolve_call`; per-function
  summaries (param reaches sink, param reaches return, returns seconds)
  are iterated to a fixpoint so taint crosses any number of call hops.
  Module-level statements, closures and lambdas are walked too;
* **sanitizers** — the integer-producing conversions (``int``,
  ``round``, ``s_to_ns``, ``ms_to_ns``, ``us_to_ns``, ``seconds``)
  clear taint for their whole subtree;
* **sinks** — the scheduling APIs (``schedule``, ``at``, ``run_until``,
  ``run_for``, ``run_for_ns``, ``run_until_ns``).

TIMX001 fires wherever tainted dataflow reaches a sink, after zero hops
or many; TIMX002 fires where a seconds-tainted value is bound to a
``*_ns`` name (a unit lie that poisons every later reader).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import FunctionInfo, ModuleInfo, Program
from repro.analysis.registry import LintRule, dotted_name, location, register_rule

#: Methods whose first positional argument is a time/delay in ns.
SCHEDULING_METHODS = {"schedule", "at", "run_until", "run_for"}

#: Boundary helpers from :mod:`repro.sim.units` whose *second* positional
#: argument is the time/duration in ns (the first is the run target).
_BOUNDARY_HELPERS = {"run_for_ns": 1, "run_until_ns": 1}

#: Conversions that legitimately produce integer ns from float input.
_INT_PRODUCERS = {"int", "round", "s_to_ns", "ms_to_ns", "us_to_ns", "seconds"}

#: Identifier suffixes conventionally denoting float seconds.
_SECONDS_SUFFIXES = ("_s", "_secs", "_seconds")


def _time_argument(node: ast.Call) -> Optional[ast.expr]:
    """The time/delay argument of a scheduling call, if this is one."""
    name = dotted_name(node.func)
    if name is None:
        return None
    method = name.rpartition(".")[2]
    if method in _BOUNDARY_HELPERS:
        index = _BOUNDARY_HELPERS[method]
        if len(node.args) > index:
            return node.args[index]
        for keyword in node.keywords:
            if keyword.arg in ("duration_ns", "time_ns"):
                return keyword.value
        return None
    if method not in SCHEDULING_METHODS:
        return None
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg in ("delay", "time", "end_time", "duration"):
            return keyword.value
    return None


#: Known float-time producers outside the seconds-suffix convention.
_SECONDS_PRODUCER_QUALNAMES = frozenset(
    {
        "repro.sim.units.ns_to_s",
        "repro.sim.units.ns_to_ms",
        "repro.sim.units.ns_to_us",
    }
)
_SECONDS_PRODUCER_TAILS = frozenset({"ns_to_s", "ns_to_ms", "ns_to_us"})


def _is_seconds_name(name: str) -> bool:
    return any(name.endswith(suffix) for suffix in _SECONDS_SUFFIXES)


#: Taint roots: ``("param", name)`` — flowed from a parameter;
#: ``("seconds", name)`` — a seconds-suffixed identifier;
#: ``("producer", qualname)`` — returned by a float-time producer;
#: ``("literal", text)`` — a float literal.
Root = Tuple[str, str]

#: The root kinds that carry the seconds unit, and those that are a float
#: in their own right (a ``param`` root only matters through the caller's
#: argument). A literal has no unit: it must not reach the scheduler, but
#: binding it to a ``*_ns`` name or returning it says nothing about
#: seconds — most floats a function returns are rates and probabilities.
_SECONDS_KINDS = ("seconds", "producer")
_FLOAT_KINDS = (*_SECONDS_KINDS, "literal")


@dataclass
class Summary:
    """Interprocedural facts about one function, iterated to fixpoint."""

    params_to_sink: Set[str] = field(default_factory=set)
    params_to_return: Set[str] = field(default_factory=set)
    returns_seconds: bool = False

    def key(self) -> Tuple[Tuple[str, ...], Tuple[str, ...], bool]:
        return (
            tuple(sorted(self.params_to_sink)),
            tuple(sorted(self.params_to_return)),
            self.returns_seconds,
        )


@dataclass(frozen=True)
class SinkRecord:
    """One tainted value reaching a sink inside some function."""

    function: str
    call: ast.Call
    sink_name: str
    roots: Tuple[Root, ...]
    #: For interprocedural sinks: the callee and parameter the value
    #: disappears into, e.g. ``("repro.x.y.helper", "delay")``.
    via: Optional[Tuple[str, str]] = None
    path: str = ""


class _ScopeTaint:
    """One pass of taint propagation through one scope: the body of a
    program function, or (``function=None``) a module's top level."""

    def __init__(
        self,
        program: Program,
        module: ModuleInfo,
        function: Optional[FunctionInfo],
        summaries: Dict[str, Summary],
        own_pass: Set[int],
    ) -> None:
        self.program = program
        self.module = module
        #: ``id`` of every def node that is a program function.
        self.own_pass = own_pass
        self.qualname = module.name if function is None else function.qualname
        self.class_name = None if function is None else function.class_name
        self.body: Sequence[ast.stmt] = (
            module.context.tree.body if function is None else function.node.body
        )
        self.summaries = summaries
        self.env: Dict[str, Set[Root]] = {}
        if function is not None:
            for param in (*function.params, *function.kwonly):
                self.env[param] = {("param", param)}
        #: Depth of closures being walked inline: their ``return`` is not
        #: this scope's.
        self._closures = 0
        self.return_roots: Set[Root] = set()
        self.sinks: List[SinkRecord] = []
        self.ns_bindings: List[Tuple[ast.stmt, str, Tuple[Root, ...]]] = []

    # ------------------------------------------------------------------
    # Expression taint
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr) -> Set[Root]:
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                return {("literal", repr(node.value))}
            return set()
        if isinstance(node, ast.Name):
            roots = set(self.env.get(node.id, set()))
            if _is_seconds_name(node.id):
                roots.add(("seconds", node.id))
            return roots
        if isinstance(node, ast.Attribute):
            # A literal taints the number it builds, not every field of
            # an object that number was stored in.
            roots = {r for r in self.eval(node.value) if r[0] != "literal"}
            if _is_seconds_name(node.attr):
                roots.add(("seconds", node.attr))
            return roots
        if isinstance(node, ast.Lambda):
            return set()
        roots = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                roots |= self.eval(child)
        return roots

    def _eval_call(self, node: ast.Call) -> Set[Root]:
        func_name = dotted_name(node.func)
        tail = func_name.rpartition(".")[2] if func_name else ""
        if tail in _INT_PRODUCERS:
            # Sanitizer: the whole subtree produces integer ns.
            return set()
        resolved = self.program.resolve_call(
            node, self.module, class_name=self.class_name
        )
        arg_roots = [self.eval(arg) for arg in node.args]
        kw_roots = {
            kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg
        }
        if resolved is not None:
            summary = self.summaries.setdefault(resolved.qualname, Summary())
            self._record_call_sinks(node, resolved, summary, arg_roots, kw_roots)
            roots: Set[Root] = set()
            if summary.returns_seconds or (
                resolved.qualname in _SECONDS_PRODUCER_QUALNAMES
            ):
                roots.add(("producer", resolved.qualname))
            for position, taint in enumerate(arg_roots):
                if position < len(resolved.params):
                    param = resolved.params[position]
                    if param in summary.params_to_return and taint:
                        roots |= taint
            for keyword, taint in kw_roots.items():
                if keyword in summary.params_to_return and taint:
                    roots |= taint
            return roots
        if tail in _SECONDS_PRODUCER_TAILS:
            return {("producer", tail)}
        # Unresolved call (builtin, third-party, dynamic dispatch): what
        # goes in may come out.
        roots = set()
        for taint in arg_roots:
            roots |= taint
        for taint in kw_roots.values():
            roots |= taint
        return roots

    def _record_call_sinks(
        self,
        node: ast.Call,
        resolved: FunctionInfo,
        summary: Summary,
        arg_roots: List[Set[Root]],
        kw_roots: Dict[str, Set[Root]],
    ) -> None:
        """A tainted argument handed to a param that reaches a sink."""
        if _time_argument(node) is not None:
            # The call is itself a recognized scheduling sink; the
            # direct-sink pass owns it.
            return
        sink_name = dotted_name(node.func) or resolved.qualname
        for position, taint in enumerate(arg_roots):
            if not taint or position >= len(resolved.params):
                continue
            param = resolved.params[position]
            if param in summary.params_to_sink:
                self.sinks.append(
                    SinkRecord(
                        function=self.qualname,
                        call=node,
                        sink_name=sink_name,
                        roots=tuple(sorted(taint)),
                        via=(resolved.qualname, param),
                        path=self.module.context.path,
                    )
                )
        for keyword, taint in kw_roots.items():
            if taint and keyword in summary.params_to_sink:
                self.sinks.append(
                    SinkRecord(
                        function=self.qualname,
                        call=node,
                        sink_name=sink_name,
                        roots=tuple(sorted(taint)),
                        via=(resolved.qualname, keyword),
                        path=self.module.context.path,
                    )
                )

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------
    def run(self) -> None:
        self._walk(self.body)

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A program function (top-level, or a method of a top-level
            # class) has a pass and a summary of its own; any other def
            # is a closure, walked here in the environment it closes over.
            if id(stmt) not in self.own_pass:
                self._closure(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            self._walk(stmt.body)
            return
        self._scan_sinks(stmt)
        if isinstance(stmt, ast.Assign):
            roots = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(stmt, target, roots)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt, stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            roots = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name) and roots:
                self.env.setdefault(stmt.target.id, set()).update(roots)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            roots = self.eval(stmt.value)
            if not self._closures:
                self.return_roots |= roots
        else:
            # Expression statements, conditions, with-items: evaluate so
            # calls inside them feed the interprocedural sink records.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
                elif isinstance(child, ast.withitem):
                    self.eval(child.context_expr)
        for child_body in self._inner_bodies(stmt):
            self._walk(child_body)

    def _closure(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.env[arg.arg] = set()
        self._closures += 1
        self._walk(node.body)
        self._closures -= 1

    @staticmethod
    def _inner_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        bodies = []
        for attr in ("body", "orelse", "finalbody"):
            value = getattr(stmt, attr, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                bodies.append(value)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    def _bind(self, stmt: ast.stmt, target: ast.expr, roots: Set[Root]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(stmt, element, roots)
            return
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
            self.env[name] = set(roots)
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if (
            name is not None
            and name.endswith("_ns")
            and any(kind in _SECONDS_KINDS for kind, _ in roots)
        ):
            self.ns_bindings.append((stmt, name, tuple(sorted(roots))))

    def _scan_sinks(self, stmt: ast.stmt) -> None:
        """Direct sinks in the statement's own expressions — not in the
        statements nested under it, which get their own turn, with the
        environment as it is by then."""
        pending = list(ast.iter_child_nodes(stmt))
        while pending:
            node = pending.pop()
            if isinstance(node, ast.stmt):
                continue
            pending.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            time_arg = _time_argument(node)
            if time_arg is None:
                continue
            roots = self.eval(time_arg)
            if not roots:
                continue
            self.sinks.append(
                SinkRecord(
                    function=self.qualname,
                    call=node,
                    sink_name=dotted_name(node.func) or "<sink>",
                    roots=tuple(sorted(roots)),
                    path=self.module.context.path,
                )
            )


@dataclass
class TaintAnalysis:
    """Fixpoint result over one program."""

    summaries: Dict[str, Summary]
    sinks: List[SinkRecord]
    ns_bindings: List[Tuple[str, ast.stmt, str, Tuple[Root, ...], str]]


def analyze(program: Program, max_rounds: int = 8) -> TaintAnalysis:
    """Iterate per-scope taint passes until the function summaries
    stabilize.

    Memoized per Program: TIMX001 and TIMX002 share one fixpoint run.
    """
    cached = program.analysis_cache.get("taint")
    if isinstance(cached, TaintAnalysis):
        return cached
    summaries: Dict[str, Summary] = {}
    for producer in _SECONDS_PRODUCER_QUALNAMES:
        summaries[producer] = Summary(returns_seconds=True)
    scopes: List[Tuple[ModuleInfo, Optional[FunctionInfo]]] = [
        (program.modules[function.module], function)
        for function in program.functions()
    ]
    scopes.extend((module, None) for module in program.modules.values())
    own_pass = {id(function.node) for _, function in scopes if function}
    sinks: List[SinkRecord] = []
    bindings: List[Tuple[str, ast.stmt, str, Tuple[Root, ...], str]] = []
    for _ in range(max_rounds):
        sinks = []
        bindings = []
        changed = False
        for module, function in scopes:
            walker = _ScopeTaint(program, module, function, summaries, own_pass)
            walker.run()
            sinks.extend(walker.sinks)
            for stmt, name, roots in walker.ns_bindings:
                bindings.append(
                    (walker.qualname, stmt, name, roots, module.context.path)
                )
            if function is None or function.qualname in _SECONDS_PRODUCER_QUALNAMES:
                continue
            summary = summaries.setdefault(function.qualname, Summary())
            before = summary.key()
            param_names = set(function.params) | set(function.kwonly)
            for record in walker.sinks:
                for kind, value in record.roots:
                    if kind == "param" and value in param_names:
                        summary.params_to_sink.add(value)
            for kind, value in walker.return_roots:
                if kind == "param" and value in param_names:
                    summary.params_to_return.add(value)
                elif kind in _SECONDS_KINDS:
                    summary.returns_seconds = True
            if summary.key() != before:
                changed = True
        if not changed:
            break
    result = TaintAnalysis(summaries=summaries, sinks=sinks, ns_bindings=bindings)
    program.analysis_cache["taint"] = result
    return result


def _describe_roots(roots: Tuple[Root, ...]) -> str:
    names = sorted({value for kind, value in roots if kind in _FLOAT_KINDS})
    return ", ".join(names) if names else "tainted value"


@register_rule
class SecondsIntoSchedulerRule(LintRule):
    """TIMX001: float-seconds dataflow reaching the scheduler.

    A float literal, a seconds-suffixed identifier or a float-time
    producer's result that arrives at ``schedule``/``run_until``/...
    unconverted — written in the call itself, renamed through a local,
    returned from a helper, or passed down a call chain. Each leak is
    reported once, at the call where the value leaves the caller's hands.
    """

    rule_id = "TIMX001"
    title = "float-seconds flow into the scheduler"
    severity = Severity.ERROR
    fix_hint = (
        "convert at the boundary with seconds()/s_to_ns()/round() before "
        "the value crosses a call or assignment on its way to the engine"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        analysis = analyze(program)
        seen: Set[Tuple[str, int, int, str]] = set()
        for record in analysis.sinks:
            if not any(kind in _FLOAT_KINDS for kind, _ in record.roots):
                continue
            line, col = location(record.call)
            key = (record.path, line, col, record.sink_name)
            if key in seen:
                continue
            seen.add(key)
            source = _describe_roots(record.roots)
            if record.via is not None:
                callee, param = record.via
                message = (
                    f"float-seconds value ({source}) passed to parameter "
                    f"{param!r} of {callee}(), which forwards it to the "
                    "scheduler"
                )
            else:
                message = (
                    f"float-seconds value ({source}) reaches "
                    f"{record.sink_name}() unconverted"
                )
            yield self.finding(record.path, line, col, message)


@register_rule
class SecondsBoundToNsNameRule(LintRule):
    """TIMX002: seconds-tainted values must not be bound to ``*_ns`` names.

    A ``timeout_ns = response_timeout_s`` assignment launders a float
    seconds value into the integer-ns naming convention; every later
    reader will trust the suffix.
    """

    rule_id = "TIMX002"
    title = "float-seconds value bound to a *_ns name"
    severity = Severity.ERROR
    fix_hint = "convert first: timeout_ns = seconds(timeout_s) / s_to_ns(...)"

    def check(self, program: Program) -> Iterator[Finding]:
        analysis = analyze(program)
        seen: Set[Tuple[str, int, str]] = set()
        for scope, stmt, name, roots, path in analysis.ns_bindings:
            line, col = location(stmt)
            key = (path, line, name)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                path,
                line,
                col,
                f"{name!r} in {scope} is assigned a float-seconds value "
                f"({_describe_roots(roots)}) without conversion",
            )
