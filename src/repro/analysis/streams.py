"""RNG-stream ownership rules (STREAM0xx) and the static stream map.

Every :class:`repro.sim.rng.RngRegistry` stream name is a seed in
disguise: the draws a component sees are a pure function of
``(scenario seed, stream name)``. Two components sharing a name share a
bit stream (a determinism-breaking coupling); a component drawing a
stream that another subsystem owns couples their replay behaviour just
as silently. This module lifts the stream-name discipline from the old
per-file DET005 check ("``faults/`` stays inside ``faults.*``") to a
whole-program ownership model:

* every ``.stream(...)`` call site in the program is extracted with
  its statically-resolvable name (a literal, or the constant prefix of
  an f-string);
* each name's leading component (its *namespace head*) must be declared
  in :data:`NAMESPACES`, which maps the head to the subsystem that owns
  those draws;
* draw sites must sit in the owning subsystem — or in a *composition
  root* (``cell``, ``experiments``: the wiring layers that thread
  streams into components at build time) for non-strict namespaces.
  Strict namespaces (``faults``, ``perf``) may only ever be drawn by
  their owner, in either direction — the DET005 contract, now enforced
  program-wide;
* the same exact stream name drawn from two different subsystems is a
  collision, unless one side is a private fallback registry
  (``RngRegistry(seed=0).stream(...)`` — its own seed universe).

The extracted :func:`stream_sites` map doubles as the static half of the
``--sanitize`` runtime cross-check (:mod:`repro.analysis.sanitize`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import ModuleInfo, Program
from repro.analysis.registry import LintRule, dotted_name, location, register_rule

#: Method-name tails that acquire a named stream from a registry.
_STREAM_METHODS = ("stream",)


@dataclass(frozen=True)
class StreamNamespace:
    """One declared stream namespace: head -> owning subsystem."""

    head: str
    owner: str
    #: Strict namespaces may only be drawn by their owner — composition
    #: roots get no pass. ``faults`` is strict so fault injection can
    #: never share a bit stream with the system under test.
    strict: bool = False
    description: str = ""


#: The stream-namespace ownership table. Adding a stream family to the
#: simulation means declaring its namespace here; STREAM002 fails on
#: undeclared heads so the table cannot silently rot.
NAMESPACES: Tuple[StreamNamespace, ...] = (
    StreamNamespace("app", "apps", description="application traffic sources"),
    StreamNamespace(
        "baseline", "baselines", description="non-Slingshot baseline models"
    ),
    StreamNamespace("core", "corenet", description="core-network attach jitter"),
    StreamNamespace(
        "faults",
        "faults",
        strict=True,
        description="chaos fault plans (reserved for fault injection)",
    ),
    StreamNamespace(
        "fleet",
        "fleet",
        strict=True,
        description="fleet composition draws (tracer-cell sampling)",
    ),
    StreamNamespace(
        "perf", "perf", strict=True, description="benchmark input corpora"
    ),
    StreamNamespace("phy", "cell", description="per-PHY processing jitter"),
    StreamNamespace("ptp", "net", description="PTP clock noise"),
    StreamNamespace("p4", "net", description="switch control-plane latency"),
    StreamNamespace("ue", "cell", description="per-UE channel and modem"),
)

#: Subsystems allowed to draw any non-strict namespace: the wiring
#: layers that build cells and experiments thread streams into the
#: components that consume them.
COMPOSITION_ROOTS = frozenset({"cell", "experiments"})

_NAMESPACE_BY_HEAD: Dict[str, StreamNamespace] = {ns.head: ns for ns in NAMESPACES}


@dataclass(frozen=True)
class StreamSite:
    """One static ``.stream(...)`` call site."""

    #: Static stream name (``exact=True``) or constant prefix of an
    #: f-string name (``exact=False``). Empty when unresolvable.
    name: str
    exact: bool
    module: str
    subsystem: str
    path: str
    line: int
    col: int
    method: str
    #: True when the receiver is a freshly constructed private registry
    #: (``RngRegistry(...)...``) rather than the scenario registry.
    private_registry: bool

    def matches(self, stream_name: str) -> bool:
        """Whether a concrete runtime stream name maps to this site."""
        if self.exact:
            return stream_name == self.name
        return stream_name.startswith(self.name)


def namespace_head(name: str) -> str:
    """Leading namespace component of a stream name or prefix.

    ``"faults.link."`` -> ``"faults"``; ``"phy"`` -> ``"phy"``. A
    trailing digit run is stripped when that leaves a plausible head
    (``"phy3"`` -> ``"phy"``) but short heads keep their digits
    (``"p4"`` stays ``"p4"``).
    """
    head = name.split(".", 1)[0]
    stripped = head.rstrip("0123456789")
    if stripped != head and len(stripped) >= 2:
        return stripped
    return head


def _static_stream_name(node: ast.expr) -> Optional[Tuple[str, bool]]:
    """``(name, exact)`` for a stream-name argument, if resolvable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, False
    return None


def _is_private_registry(func: ast.expr) -> bool:
    """True for ``RngRegistry(...).stream(...)``-shaped receivers."""
    if not isinstance(func, ast.Attribute):
        return False
    receiver = func.value
    if not isinstance(receiver, ast.Call):
        return False
    name = dotted_name(receiver.func)
    return name is not None and name.rpartition(".")[2] == "RngRegistry"


def _module_sites(info: ModuleInfo) -> Iterator[StreamSite]:
    ctx = info.context
    if ctx.in_module("sim", "rng.py"):
        # The registry itself forwards names it is handed; its internal
        # ``self.stream(name)`` call is not a draw site.
        return
    if info.subsystem == "analysis":
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        # Match on the attribute tail directly (not dotted_name, which
        # cannot render call receivers like ``RngRegistry(0).stream``).
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _STREAM_METHODS:
            continue
        method = func.attr
        static: Optional[Tuple[str, bool]] = None
        if node.args:
            static = _static_stream_name(node.args[0])
        elif node.keywords:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    static = _static_stream_name(keyword.value)
                    break
        stream_name, exact = static if static is not None else ("", True)
        line, col = location(node)
        yield StreamSite(
            name=stream_name,
            exact=exact,
            module=info.name,
            subsystem=info.subsystem,
            path=ctx.path,
            line=line,
            col=col,
            method=method,
            private_registry=_is_private_registry(node.func),
        )


def stream_sites(program: Program) -> List[StreamSite]:
    """Every static stream-acquisition site in the program, in stable
    (path, line, col) order. Sites outside the package are skipped;
    memoized per Program (four rules and the sanitizer share it)."""
    cached = program.analysis_cache.get("stream_sites")
    if isinstance(cached, list):
        return cached
    sites: List[StreamSite] = []
    for info in program.modules.values():
        if not info.context.module_parts:
            continue
        sites.extend(_module_sites(info))
    ordered = sorted(sites, key=lambda s: (s.path, s.line, s.col))
    program.analysis_cache["stream_sites"] = ordered
    return ordered


def ownership_map(program: Program) -> Dict[str, Dict[str, object]]:
    """Stream name/prefix -> {owner, subsystem draw sites} (JSON-able).

    The machine-readable static half of the ``--sanitize`` cross-check.
    """
    result: Dict[str, Dict[str, object]] = {}
    for site in stream_sites(program):
        if not site.name:
            continue
        head = namespace_head(site.name)
        namespace = _NAMESPACE_BY_HEAD.get(head)
        key = site.name if site.exact else site.name + "*"
        entry = result.setdefault(
            key,
            {
                "head": head,
                "owner": namespace.owner if namespace is not None else None,
                "sites": [],
            },
        )
        sites = entry["sites"]
        assert isinstance(sites, list)
        sites.append(
            {
                "module": site.module,
                "subsystem": site.subsystem,
                "line": site.line,
                "private_registry": site.private_registry,
            }
        )
    return result


@register_rule
class StreamNameResolvableRule(LintRule):
    """STREAM001: every stream name must be statically resolvable.

    A stream acquired through a fully dynamic name cannot be assigned an
    owner, audited for collisions, or checked by the runtime sanitizer —
    the whole ownership model goes dark at that call site.
    """

    rule_id = "STREAM001"
    title = "stream name not statically resolvable"
    severity = Severity.ERROR
    fix_hint = (
        "pass a string literal or an f-string whose constant prefix "
        'carries the namespace, e.g. rng.stream(f"p4.{name}")'
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for site in stream_sites(program):
            if not site.name:
                yield self.finding(
                    site.path,
                    site.line,
                    site.col,
                    f"{site.method}() name in {site.module} has no static "
                    "literal or f-string prefix; its owner cannot be proven",
                )


@register_rule
class StreamNamespaceDeclaredRule(LintRule):
    """STREAM002: stream names live in a declared namespace.

    The ownership table (:data:`NAMESPACES`) is the single registry of
    who owns which stream family; an undeclared head is a stream with no
    owner on record.
    """

    rule_id = "STREAM002"
    title = "stream namespace not declared in the ownership table"
    severity = Severity.ERROR
    fix_hint = (
        "prefix the stream with its owning namespace (app./core./faults./"
        "phy/ptp/ue/...) or declare a new namespace in "
        "repro.analysis.streams.NAMESPACES"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for site in stream_sites(program):
            if not site.name:
                continue
            head = namespace_head(site.name)
            if head not in _NAMESPACE_BY_HEAD:
                yield self.finding(
                    site.path,
                    site.line,
                    site.col,
                    f"stream {site.name!r}{'' if site.exact else '...'} has "
                    f"undeclared namespace head {head!r} (drawn from "
                    f"{site.module})",
                )


@register_rule
class StreamOwnershipRule(LintRule):
    """STREAM003: draw sites sit in the namespace's owning subsystem.

    Non-strict namespaces may also be drawn from a composition root
    (``cell``/``experiments`` wiring); strict namespaces (``faults``,
    ``perf``) are owner-only in both directions — the generalization of
    the old DET005 rule.
    """

    rule_id = "STREAM003"
    title = "cross-subsystem stream draw"
    severity = Severity.ERROR
    fix_hint = (
        "draw the stream from its owning subsystem or thread it through "
        "the cell/experiment wiring; strict namespaces (faults.*, perf.*) "
        "may only be drawn by their owner"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for site in stream_sites(program):
            if not site.name:
                continue
            namespace = _NAMESPACE_BY_HEAD.get(namespace_head(site.name))
            if namespace is None:
                continue
            if site.subsystem == namespace.owner:
                continue
            if not namespace.strict and site.subsystem in COMPOSITION_ROOTS:
                continue
            kind = "strict " if namespace.strict else ""
            yield self.finding(
                site.path,
                site.line,
                site.col,
                f"stream {site.name!r}{'' if site.exact else '...'} belongs "
                f"to the {kind}{namespace.head}.* namespace owned by "
                f"{namespace.owner!r}, but is drawn from {site.subsystem!r} "
                f"({site.module})",
            )


@register_rule
class StreamCollisionRule(LintRule):
    """STREAM004: one stream name, one owning subsystem.

    Two subsystems drawing the same (scenario-registry) stream name
    share one bit stream: each consumes draws the other expected,
    coupling their behaviour through the RNG. Private fallback
    registries (``RngRegistry(seed=0)``) are their own seed universe and
    do not collide with scenario-registry draws.
    """

    rule_id = "STREAM004"
    title = "stream name drawn from multiple subsystems"
    severity = Severity.ERROR
    fix_hint = (
        "give each subsystem its own stream name; shared draws couple "
        "components through the RNG bit stream"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        shared = [
            s for s in stream_sites(program) if s.name and not s.private_registry
        ]
        for index, site in enumerate(shared):
            for other in shared[index + 1 :]:
                if other.subsystem == site.subsystem:
                    continue
                if not self._overlaps(site, other):
                    continue
                for flagged, peer in ((site, other), (other, site)):
                    yield self.finding(
                        flagged.path,
                        flagged.line,
                        flagged.col,
                        f"stream {flagged.name!r}"
                        f"{'' if flagged.exact else '...'} in "
                        f"{flagged.subsystem!r} collides with "
                        f"{peer.name!r}{'' if peer.exact else '...'} drawn "
                        f"from {peer.subsystem!r} ({peer.path}:{peer.line})",
                    )

    @staticmethod
    def _overlaps(a: StreamSite, b: StreamSite) -> bool:
        if a.exact and b.exact:
            return a.name == b.name
        if a.exact:
            return a.name.startswith(b.name)
        if b.exact:
            return b.name.startswith(a.name)
        return a.name.startswith(b.name) or b.name.startswith(a.name)
