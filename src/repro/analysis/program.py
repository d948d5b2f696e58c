"""Program model: module table and import aliases.

One AST at a time is where the determinism contract leaks: a clock
imported under another name reads like any other call. :class:`Program`
lifts the linted file set into one queryable object, and every rule
receives it:

* **module table** — every file keyed by its dotted module name
  (``repro.cell.deployment``), with the file's :class:`LintContext`;
* **import aliases** — per-module alias table (``now`` ->
  ``time.perf_counter_ns``), through which :meth:`ModuleInfo.origin`
  names what a call target really is (``np.random.default_rng`` ->
  ``numpy.random.default_rng``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.analysis.registry import LintContext, dotted_name


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
class ModuleInfo:
    """One linted file inside the program."""

    name: str
    context: LintContext
    #: Local alias -> fully dotted target. Covers ``import a.b as c``
    #: (``c`` -> ``a.b``) and ``from a.b import f as g`` (``g`` ->
    #: ``a.b.f``).
    aliases: Dict[str, str] = field(default_factory=dict)

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
    """Queryable view over a set of lint contexts."""

    def __init__(self, contexts: Sequence[LintContext]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_path: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            name = module_name_for(ctx)
            info = ModuleInfo(
                name=name, context=ctx, aliases=_collect_aliases(ctx.tree)
            )
            self.modules[name] = info
            self._by_path[ctx.path] = info

    def walk(self) -> Iterator[Tuple[ModuleInfo, ast.AST]]:
        """Every AST node of every module, with the module it sits in."""
        for module in self.modules.values():
            for node in ast.walk(module.context.tree):
                yield module, node

    def context_for_path(self, path: str) -> Optional[LintContext]:
        info = self._by_path.get(path)
        return info.context if info is not None else None
