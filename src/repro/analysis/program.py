"""Whole-program model: module table, import aliases, symbols, call resolution.

One AST at a time is exactly where the determinism contract leaks (a
float-seconds value returned from one module and scheduled in another, a
stream name drawn far from the subsystem that owns it, a clock imported
under another name). :class:`Program` lifts the linted file set into one
queryable object, and every rule receives it:

* **module table** — every file keyed by its dotted module name
  (``repro.cell.deployment``), with the file's :class:`LintContext`;
* **import aliases** — per-module alias table (``run_for_ns`` ->
  ``repro.sim.units.run_for_ns``), through which :meth:`ModuleInfo.origin`
  names what a call target really is (``now`` ->
  ``time.perf_counter_ns``, ``np.random.default_rng`` ->
  ``numpy.random.default_rng``);
* **symbol table** — top-level functions, classes, and class methods,
  each with its AST node and defining module;
* **call resolution** — best-effort resolution of ``Call`` nodes to program
  functions: bare names through the local symbol table and import
  aliases, ``self.method()`` within a class, and ``module.func()``
  through ``import``/``from`` aliases. Unresolvable calls (builtins,
  third-party, dynamic dispatch) resolve to ``None`` — the analyses
  built on top are *may* analyses over the resolvable subset.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.registry import LintContext, dotted_name

#: Functions and methods share one qualname space:
#: ``repro.cell.deployment.build_slingshot_cell`` (module function) or
#: ``repro.apps.video.VideoSender._send_frame`` (method).
FunctionNode = ast.FunctionDef


def module_name_for(ctx: LintContext) -> str:
    """Dotted module name for a linted file.

    Files inside the package map from their ``module_parts``
    (``("cell", "deployment.py")`` -> ``repro.cell.deployment``); files
    outside it fall back to the display path with separators dotted, so
    every context gets a unique, stable name.
    """
    if ctx.module_parts:
        parts = list(ctx.module_parts)
        leaf = parts.pop()
        if leaf != "__init__.py":
            parts.append(leaf[:-3] if leaf.endswith(".py") else leaf)
        return ".".join(["repro", *parts])
    cleaned = ctx.path.replace("\\", "/").strip("/")
    if cleaned.endswith(".py"):
        cleaned = cleaned[:-3]
    return cleaned.replace("/", ".") or "<string>"


@dataclass
class FunctionInfo:
    """One program function or method."""

    qualname: str
    module: str
    #: Enclosing class name for methods, ``None`` for module functions.
    class_name: Optional[str]
    node: FunctionNode
    #: Positional parameter names (posonly + regular), ``self`` excluded
    #: for methods so argument positions line up with call sites.
    params: Tuple[str, ...]
    #: Keyword-only parameter names.
    kwonly: Tuple[str, ...]


@dataclass
class ClassInfo:
    """One top-level class definition."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Base-class expressions as dotted strings (unresolved).
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One linted file inside the program."""

    name: str
    context: LintContext
    #: Local alias -> fully dotted target. Covers ``import a.b as c``
    #: (``c`` -> ``a.b``) and ``from a.b import f as g`` (``g`` ->
    #: ``a.b.f``).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Top-level function name -> info.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Top-level class name -> info.
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def subsystem(self) -> str:
        """Top-level package within ``repro`` (``"cell"``, ``"faults"``,
        ...); the module's own stem for package-root files."""
        parts = self.context.module_parts
        if not parts:
            return ""
        if len(parts) == 1:
            leaf = parts[0]
            return leaf[:-3] if leaf.endswith(".py") else leaf
        return parts[0]

    def origin(self, node: ast.AST) -> Optional[str]:
        """Dotted name of ``node`` with its head resolved through this
        module's imports; ``None`` for anything but a name chain.

        ``t.time`` after ``import time as t`` is ``time.time``; ``dt.now``
        after ``from datetime import datetime as dt`` is
        ``datetime.datetime.now``. A head that no import binds is kept as
        written, so policy tables match on what a name *is*, never on how
        a file chose to spell it.
        """
        name = dotted_name(node)
        if name is None:
            return None
        head, dot, rest = name.partition(".")
        return self.aliases.get(head, head) + dot + rest


def _function_params(node: FunctionNode, is_method: bool) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    return tuple(positional), tuple(a.arg for a in args.kwonlyargs)


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            # The repo uses absolute imports only; relative imports
            # (level > 0) are skipped rather than mis-resolved.
            if node.module is None or node.level != 0:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


class Program:
    """Queryable whole-program view over a set of lint contexts."""

    def __init__(self, contexts: Sequence[LintContext]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_path: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            info = self._index_module(ctx)
            self.modules[info.name] = info
            self._by_path[ctx.path] = info
        self._functions: Dict[str, FunctionInfo] = {}
        self._classes: Dict[str, ClassInfo] = {}
        for info in self.modules.values():
            for function in info.functions.values():
                self._functions[function.qualname] = function
            for klass in info.classes.values():
                self._classes[klass.qualname] = klass
                for method in klass.methods.values():
                    self._functions[method.qualname] = method
        #: Shared memo for derived whole-program analyses (taint
        #: fixpoint, stream sites): several rules consume
        #: the same analysis, which only depends on the immutable
        #: context set, so each is computed once per Program.
        self.analysis_cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_module(self, ctx: LintContext) -> ModuleInfo:
        name = module_name_for(ctx)
        info = ModuleInfo(name=name, context=ctx, aliases=_collect_aliases(ctx.tree))
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef):
                params, kwonly = _function_params(node, is_method=False)
                info.functions[node.name] = FunctionInfo(
                    qualname=f"{name}.{node.name}",
                    module=name,
                    class_name=None,
                    node=node,
                    params=params,
                    kwonly=kwonly,
                )
            elif isinstance(node, ast.ClassDef):
                klass = ClassInfo(
                    qualname=f"{name}.{node.name}",
                    module=name,
                    node=node,
                    bases=tuple(
                        base
                        for base in (dotted_name(b) for b in node.bases)
                        if base is not None
                    ),
                )
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        params, kwonly = _function_params(item, is_method=True)
                        klass.methods[item.name] = FunctionInfo(
                            qualname=f"{klass.qualname}.{item.name}",
                            module=name,
                            class_name=node.name,
                            node=item,
                            params=params,
                            kwonly=kwonly,
                        )
                info.classes[node.name] = klass
        return info

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Tuple[ModuleInfo, ast.AST]]:
        """Every AST node of every module, with the module it sits in."""
        for module in self.modules.values():
            for node in ast.walk(module.context.tree):
                yield module, node

    def context_for_path(self, path: str) -> Optional[LintContext]:
        info = self._by_path.get(path)
        return info.context if info is not None else None

    def functions(self) -> Iterator[FunctionInfo]:
        """All program functions and methods, in qualname order."""
        for qualname in sorted(self._functions):
            yield self._functions[qualname]

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self._functions.get(qualname)

    def resolve_class(self, name: str, module: ModuleInfo) -> Optional[ClassInfo]:
        """Resolve a (possibly imported) class name seen in ``module``."""
        if name in module.classes:
            return module.classes[name]
        target = module.aliases.get(name)
        if target is not None:
            return self._classes.get(target)
        return self._classes.get(name)

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, call: ast.Call, module: ModuleInfo, class_name: Optional[str] = None
    ) -> Optional[FunctionInfo]:
        """Best-effort: the program function a ``Call`` node invokes.

        Handles bare names (local defs, then import aliases),
        ``self.method()`` inside a known class, and one-level attribute
        access through a module alias (``units.run_for_ns(...)``).
        Constructors resolve to the class's ``__init__`` when present.
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, module)
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and class_name is not None
            ):
                klass = module.classes.get(class_name)
                if klass is not None:
                    return self._method_on(klass, func.attr)
                return None
            name = dotted_name(func)
            if name is None:
                return None
            head, _, attr = name.rpartition(".")
            target = module.aliases.get(head)
            if target is not None:
                resolved = self._functions.get(f"{target}.{attr}")
                if resolved is not None:
                    return resolved
                klass = self._classes.get(f"{target}.{attr}")
                if klass is not None:
                    return klass.methods.get("__init__")
            return self._functions.get(name)
        return None

    def _resolve_name(self, name: str, module: ModuleInfo) -> Optional[FunctionInfo]:
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name].methods.get("__init__")
        target = module.aliases.get(name)
        if target is None:
            return None
        resolved = self._functions.get(target)
        if resolved is not None:
            return resolved
        klass = self._classes.get(target)
        if klass is not None:
            return klass.methods.get("__init__")
        return None

    def _method_on(self, klass: ClassInfo, method: str) -> Optional[FunctionInfo]:
        """Method lookup following in-program base classes (MRO order)."""
        seen = set()
        queue: List[ClassInfo] = [klass]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            module = self.modules.get(current.module)
            if module is None:
                continue
            for base in current.bases:
                resolved = self.resolve_class(base.split(".")[-1], module)
                if resolved is not None:
                    queue.append(resolved)
        return None
