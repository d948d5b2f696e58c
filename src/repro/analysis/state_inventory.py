"""Checkpointability state inventory (CKPT0xx) and its report.

Slingshot's whole resilience story (paper §5) rests on knowing *what
state a component carries*: the nanoPU-attached state store can only
checkpoint state it can see. This module builds the static analogue — a
whole-program inventory of every mutable attribute on every runtime
component class, classified as:

* **checkpointable** — initialized in ``__init__``/``__post_init__`` (or
  a dataclass field) and mutated later: real evolving state a checkpoint
  must capture;
* **derived** — declared in the class's ``_checkpoint_derived_`` tuple:
  caches and cursors recomputable from checkpointable state, explicitly
  exempted by the author;
* **unregistered** — mutated outside ``__init__`` but never initialized
  there and not declared derived. This is state a checkpoint silently
  misses (CKPT001): after restore the attribute may not exist at all.

The inventory is pinned in exactly one place: the generated
``repro/checkpoint/manifest.py`` (``python -m repro lint
--write-manifest``), the literal the checkpoint layer walks at capture /
restore time and CKPT003 compares against, so the checkpointable surface
of the system is reviewed like any other contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import ClassInfo, Program
from repro.analysis.registry import LintRule, dotted_name, register_rule

#: Subsystems whose classes model runtime components (and therefore
#: carry state a checkpoint/restore cycle must reason about). Tooling
#: layers (analysis, perf harness, parallel driver, telemetry, CLI) are
#: out of scope: they never live inside a restored simulation.
RUNTIME_SUBSYSTEMS = frozenset(
    {
        "apps",
        "baselines",
        "cell",
        "core",
        "corenet",
        "fapi",
        "faults",
        "fleet",
        "fronthaul",
        "l2",
        "net",
        "phy",
        "sim",
        "transport",
        "ue",
    }
)

#: Methods that count as initialization: attributes first assigned here
#: are part of the constructed shape, not late-appearing state.
_INIT_METHODS = ("__init__", "__post_init__")

#: Class-level declaration naming attributes that are recomputable
#: caches rather than checkpointable state.
DERIVED_DECLARATION = "_checkpoint_derived_"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None and name.rpartition(".")[2] == "dataclass":
            return True
    return False


#: Method names that mutate a container in place: calling one on a
#: ``self`` attribute evolves that attribute's state just as surely as
#: rebinding it.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "remove",
        "rotate",
        "setdefault",
        "update",
    }
)


def _self_attr_of(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` is ``self.X`` (or ``self.X[...]``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attr_targets(stmt: ast.stmt) -> Iterator[Tuple[str, int]]:
    """``(attr, line)`` for every ``self.X`` mutation target in ``stmt``.

    Covers rebinding (``self.x = ...``), augmented and subscript
    assignment (``self.x += 1``, ``self.x[k] = v``), loop targets, and
    deletion (``del self.x`` — the sharpest checkpoint hazard of all).
    """

    def targets_of(node: ast.expr) -> Iterator[ast.expr]:
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from targets_of(element)
        elif isinstance(node, ast.Starred):
            yield from targets_of(node.value)
        else:
            yield node

    if isinstance(stmt, ast.Assign):
        candidates = [t for target in stmt.targets for t in targets_of(target)]
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        candidates = list(targets_of(stmt.target))
    elif isinstance(stmt, ast.For):
        candidates = list(targets_of(stmt.target))
    elif isinstance(stmt, ast.Delete):
        candidates = list(stmt.targets)
    else:
        return
    for node in candidates:
        attr = _self_attr_of(node)
        if attr is not None:
            yield attr, getattr(node, "lineno", 1)


def _method_self_attrs(node: ast.FunctionDef) -> Iterator[Tuple[str, int]]:
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.stmt):
            yield from _self_attr_targets(stmt)
        elif (
            isinstance(stmt, ast.Call)
            and isinstance(stmt.func, ast.Attribute)
            and stmt.func.attr in _MUTATOR_METHODS
        ):
            attr = _self_attr_of(stmt.func.value)
            if attr is not None:
                yield attr, getattr(stmt, "lineno", 1)


def _assignment_to(
    body: Sequence[ast.stmt], name: str
) -> Optional[Union[ast.Assign, ast.AnnAssign]]:
    """The first statement of ``body`` that assigns the bare name ``name``
    (plain or annotated)."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return stmt
    return None


def _declared_derived(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    declaration = _assignment_to(node.body, DERIVED_DECLARATION)
    if declaration is not None and isinstance(
        declaration.value, (ast.Tuple, ast.List, ast.Set)
    ):
        for element in declaration.value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.add(element.value)
    return names


def _dataclass_fields(node: ast.ClassDef) -> Set[str]:
    if not _is_dataclass(node):
        return set()
    fields: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if not stmt.target.id.startswith("__"):
                fields.add(stmt.target.id)
    return fields


@dataclass
class ClassState:
    """The classified mutable-attribute surface of one class."""

    qualname: str
    subsystem: str
    path: str
    line: int
    checkpointable: Tuple[str, ...]
    derived: Tuple[str, ...]
    unregistered: Tuple[str, ...]
    #: attr -> first mutation line, for finding anchors.
    first_mutation: Dict[str, int]
    #: Derived declarations that match no initialized/mutated attribute.
    stale_derived: Tuple[str, ...]
    derived_decl_line: int

    @property
    def has_state(self) -> bool:
        return bool(self.checkpointable or self.derived or self.unregistered)


def _class_state(program: Program, klass: ClassInfo) -> ClassState:
    module = program.modules[klass.module]
    lineage = [klass, *program.base_classes(klass)]
    init_attrs: Set[str] = set()
    derived_declared: Set[str] = set()
    for ancestor in lineage:
        init_attrs |= _dataclass_fields(ancestor.node)
        derived_declared |= _declared_derived(ancestor.node)
        for method_name in _INIT_METHODS:
            method = ancestor.methods.get(method_name)
            if method is not None:
                for attr, _ in _method_self_attrs(method.node):
                    init_attrs.add(attr)
    mutated: Dict[str, int] = {}
    for method in klass.methods.values():
        if method.node.name in _INIT_METHODS:
            continue
        for attr, line in _method_self_attrs(method.node):
            if attr not in mutated or line < mutated[attr]:
                mutated[attr] = line
    touched = set(mutated) | init_attrs
    checkpointable = sorted((set(mutated) & init_attrs) - derived_declared)
    derived = sorted(derived_declared & touched)
    unregistered = sorted(set(mutated) - init_attrs - derived_declared)
    declaration = _assignment_to(klass.node.body, DERIVED_DECLARATION)
    return ClassState(
        qualname=klass.qualname,
        subsystem=module.subsystem,
        path=module.context.path,
        line=klass.node.lineno,
        checkpointable=tuple(checkpointable),
        derived=tuple(derived),
        unregistered=tuple(unregistered),
        first_mutation=mutated,
        stale_derived=tuple(sorted(_declared_derived(klass.node) - touched)),
        derived_decl_line=(declaration or klass.node).lineno,
    )


def class_states(program: Program) -> List[ClassState]:
    """Classified state for every runtime component class, in qualname
    order. Classes outside :data:`RUNTIME_SUBSYSTEMS` are skipped;
    memoized per Program (both CKPT rules and the report share it)."""
    cached = program.analysis_cache.get("class_states")
    if isinstance(cached, list):
        return cached
    states: List[ClassState] = []
    for klass in program.classes():
        module = program.modules.get(klass.module)
        if module is None or module.subsystem not in RUNTIME_SUBSYSTEMS:
            continue
        if not module.context.module_parts:
            continue
        states.append(_class_state(program, klass))
    program.analysis_cache["class_states"] = states
    return states


def build_inventory(program: Program) -> Dict[str, object]:
    """The JSON-able whole-program state inventory."""
    classes: Dict[str, Dict[str, object]] = {}
    totals = {"checkpointable": 0, "derived": 0, "unregistered": 0}
    for state in class_states(program):
        if not state.has_state:
            continue
        classes[state.qualname] = {
            "subsystem": state.subsystem,
            "checkpointable": list(state.checkpointable),
            "derived": list(state.derived),
            "unregistered": list(state.unregistered),
        }
        totals["checkpointable"] += len(state.checkpointable)
        totals["derived"] += len(state.derived)
        totals["unregistered"] += len(state.unregistered)
    return {
        "classes": classes,
        "totals": {**totals, "classes": len(classes)},
    }


#: Module holding the checkpoint layer's generated state manifest.
MANIFEST_MODULE = "repro.checkpoint.manifest"

#: The manifest literal's name inside that module.
MANIFEST_NAME = "STATE_MANIFEST"

_MANIFEST_HEADER = '''"""Checkpointable-state manifest (GENERATED — do not edit by hand).

One entry per runtime component class that carries checkpointable
state: ``qualname -> tuple of attribute names``. The checkpoint layer
(:mod:`repro.checkpoint.snapshot`) walks every captured/restored object
graph and asserts each listed instance still carries all of its listed
attributes; lint rule CKPT003 asserts this literal matches the static
state inventory. Regenerate with::

    python -m repro lint --write-manifest

after adding or removing mutable state on any runtime class.
"""

from __future__ import annotations

from typing import Dict, Tuple

'''


def render_manifest(inventory: Dict[str, object]) -> str:
    """Render the generated ``manifest.py`` source from an inventory.

    Pure literal, deterministically ordered, so the module can be
    AST-parsed by CKPT003 and diffed by git like any other contract.
    Only classes with checkpointable attributes appear — a class whose
    state is all derived has nothing a serializer must carry.
    """
    classes = inventory["classes"]
    assert isinstance(classes, dict)
    lines = [f"{MANIFEST_NAME}: Dict[str, Tuple[str, ...]] = {{"]
    for qualname in sorted(classes):
        attrs = classes[qualname]["checkpointable"]
        if not attrs:
            continue
        rendered = ", ".join(repr(a) for a in sorted(attrs))
        if len(attrs) == 1:
            rendered += ","
        lines.append(f"    {qualname!r}: ({rendered}),")
    lines.append("}")
    return _MANIFEST_HEADER + "\n".join(lines) + "\n"


def write_manifest(program: Program, path: Path) -> None:
    """Regenerate the checkpoint manifest module from the program."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_manifest(build_inventory(program)))


def _parse_manifest_literal(
    tree: ast.Module,
) -> Optional[Tuple[Dict[str, Tuple[str, ...]], int]]:
    """``(manifest, line)`` from the module's STATE_MANIFEST assignment."""
    stmt = _assignment_to(tree.body, MANIFEST_NAME)
    if stmt is None or stmt.value is None:
        return None
    try:
        literal = ast.literal_eval(stmt.value)
    except ValueError:
        return None
    if not isinstance(literal, dict):
        return None
    return (
        {str(k): tuple(str(a) for a in v) for k, v in literal.items()},
        stmt.lineno,
    )


@register_rule
class ManifestDriftRule(LintRule):
    """CKPT003: the checkpoint manifest must match the state inventory.

    The manifest literal in :data:`MANIFEST_MODULE` is what the
    checkpoint serializers actually verify against at capture/restore
    time; the state inventory is what the source tree actually carries.
    Any divergence — a class gaining or losing checkpointable
    attributes, a new stateful class missing entirely, a stale entry for
    a deleted class — means checkpoints are silently under- or
    over-specified. Regenerate with ``python -m repro lint
    --write-manifest``.

    Skipped when the linted file set does not include the manifest
    module (per-file invocations); the whole-package tier-1 lint always
    does.
    """

    rule_id = "CKPT003"
    title = "checkpoint manifest out of sync with state inventory"
    severity = Severity.ERROR
    fix_hint = (
        "regenerate src/repro/checkpoint/manifest.py with "
        "`python -m repro lint --write-manifest`"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        module = program.modules.get(MANIFEST_MODULE)
        if module is None:
            return
        path = module.context.path
        parsed = _parse_manifest_literal(module.context.tree)
        if parsed is None:
            yield self.finding(
                path,
                1,
                1,
                f"{MANIFEST_MODULE} must assign {MANIFEST_NAME} a pure "
                "dict literal of qualname -> attribute tuples",
            )
            return
        manifest, line = parsed
        classes = build_inventory(program)["classes"]
        assert isinstance(classes, dict)
        expected = {
            qualname: tuple(sorted(entry["checkpointable"]))
            for qualname, entry in classes.items()
            if entry["checkpointable"]
        }
        for qualname in sorted(set(expected) - set(manifest)):
            yield self.finding(
                path,
                line,
                1,
                f"manifest is missing {qualname} "
                f"(checkpointable: {', '.join(expected[qualname])})",
            )
        for qualname in sorted(set(manifest) - set(expected)):
            yield self.finding(
                path,
                line,
                1,
                f"manifest lists {qualname}, which has no checkpointable "
                "state in the inventory",
            )
        for qualname in sorted(set(manifest) & set(expected)):
            if tuple(sorted(manifest[qualname])) != expected[qualname]:
                yield self.finding(
                    path,
                    line,
                    1,
                    f"manifest attrs for {qualname} "
                    f"({', '.join(sorted(manifest[qualname]))}) != inventory "
                    f"({', '.join(expected[qualname])})",
                )


@register_rule
class UnregisteredStateRule(LintRule):
    """CKPT001: runtime state must exist from construction.

    An attribute first assigned outside ``__init__`` is invisible to any
    checkpoint taken before that assignment and may be absent entirely
    after a restore — ``hasattr`` guards breed, and replay diverges.
    Initialize it in ``__init__`` (checkpointable) or declare it in
    ``_checkpoint_derived_`` (recomputable cache).
    """

    rule_id = "CKPT001"
    title = "mutable attribute not initialized in __init__"
    severity = Severity.ERROR
    fix_hint = (
        "initialize the attribute in __init__ (checkpointable state) or "
        "list it in the class's _checkpoint_derived_ tuple (recomputable)"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for state in class_states(program):
            for attr in state.unregistered:
                yield self.finding(
                    state.path,
                    state.first_mutation.get(attr, state.line),
                    1,
                    f"{state.qualname} mutates attribute {attr!r} outside "
                    "__init__ but never initializes it; checkpoints will "
                    "miss it",
                )


@register_rule
class StaleDerivedDeclarationRule(LintRule):
    """CKPT002: ``_checkpoint_derived_`` entries must name real state.

    A derived declaration that matches no initialized or mutated
    attribute is dead documentation — usually a rename that forgot the
    tuple, which would silently re-expose the renamed attribute as
    checkpointable.
    """

    rule_id = "CKPT002"
    title = "stale _checkpoint_derived_ declaration"
    severity = Severity.WARNING
    fix_hint = "remove the entry or fix the attribute name it refers to"

    def check(self, program: Program) -> Iterator[Finding]:
        for state in class_states(program):
            for attr in state.stale_derived:
                yield self.finding(
                    state.path,
                    state.derived_decl_line,
                    1,
                    f"{state.qualname} declares derived attribute {attr!r} "
                    "that is never initialized or mutated",
                )
