"""The one static reader of ``src/repro``, shared by every guard that
reads the tree without running it (``tests/test_tree_policy.py``,
``tests/test_wiring_site.py``, ``tests/test_sim_engine.py``).

Each file is parsed once a session (:func:`parsed`). A name chain
renders as its dotted text (:func:`dotted_name`) and resolves through
the imports of the module it sits in (:func:`origin`), so a guard
matches on what a name *is*, not on how a file spelled it.
:data:`SCHEDULING_CALLS` is the one table of ``Simulator`` entry points
that take a callback.
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``Simulator`` entry points whose second argument is a callback and
#: whose arguments after it are the callback's own:
#: ``sim.at(t, phy.hang, "chaos")`` calls ``hang("chaos")``.
SCHEDULING_CALLS = frozenset({"at", "schedule", "schedule_periodic"})


@functools.lru_cache(maxsize=None)
def parsed(path: Path) -> ast.Module:
    """``path`` parsed, once for every guard of the session."""
    return ast.parse(path.read_text(), filename=str(path))


def module_name(path: Path) -> str:
    """``path``'s dotted name under ``src/repro`` (``apps.ping``,
    ``perf.__init__``): the head of every qualified name a guard's
    ``KEPT_*`` table is keyed by."""
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def modules() -> Iterator[Tuple[str, ast.Module]]:
    """``(module name, tree)`` for every module under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        yield module_name(path), parsed(path)


def callee(call: ast.Call) -> Optional[str]:
    """The last name of what ``call`` calls (``sim.at(...)`` -> ``at``)."""
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a name / attribute chain; None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@functools.lru_cache(maxsize=None)
def _aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> what it is, for every absolute import in ``tree``:
    ``import a.b as c`` binds ``c`` to ``a.b``, ``import a.b`` binds
    ``a`` to ``a``, ``from a.b import f as g`` binds ``g`` to ``a.b.f``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def origin(tree: ast.Module, node: ast.AST) -> Optional[str]:
    """``node``'s dotted name with its head resolved through ``tree``'s
    imports (``now`` after ``from time import perf_counter_ns as now`` is
    ``time.perf_counter_ns``); a head no import binds stays as written,
    and anything but a name chain is None."""
    name = dotted_name(node)
    if name is None:
        return None
    head, dot, rest = name.partition(".")
    return _aliases(tree).get(head, head) + dot + rest
