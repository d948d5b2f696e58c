"""Determinism rules (DET0xx): one table of ambient nondeterminism.

The simulation must be a pure function of its scenario seed: identical
runs produce identical traces. That dies the moment anything samples a
wall clock or a generator whose seed is not derived from the scenario.
All randomness flows through :class:`repro.sim.rng.RngRegistry` named
streams; all timing flows from the :class:`repro.sim.engine.Simulator`
clock; the one host clock is :mod:`repro.perf.timing`.

Each DET rule is a row of :data:`AMBIENT_SOURCES`: the origins it bans,
which use of them is the violation, and the modules sanctioned to use
them anyway. Rows are matched against what a name *resolves to* through
the module's imports (:meth:`~repro.analysis.program.ModuleInfo.origin`),
so ``from time import time``, ``import time as t`` and ``from numpy
import random as r`` are the same violation as the spelled-out call — in
every package, tooling included: telemetry, perf and whatever functions
a campaign hands to the shard pool need no rule of their own because
this table already binds them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import ModuleInfo, Program
from repro.analysis.registry import LintRule, location, register_rule


@dataclass(frozen=True)
class AmbientSource:
    """One row of the ambient-nondeterminism table."""

    rule_id: str
    title: str
    #: Banned origins; ``"pkg.*"`` bans ``pkg`` and every name under it.
    banned: Tuple[str, ...]
    #: Which use of a banned origin is the violation: ``"call"``,
    #: ``"import"`` (the import alone, called or not), or
    #: ``"literal-seed"`` (a call given no seed or a literal one — a
    #: derived seed, a parameter or content, is allowed).
    use: str
    #: The modules allowed to do it anyway.
    sanctioned: Tuple[str, ...]
    fix_hint: str
    #: Origins under a banned wildcard that belong to another row.
    exempt: Tuple[str, ...] = ()

    def bans(self, origin: str) -> bool:
        if origin in self.exempt:
            return False
        for pattern in self.banned:
            if pattern.endswith(".*"):
                if origin == pattern[:-2] or origin.startswith(pattern[:-1]):
                    return True
            elif origin == pattern:
                return True
        return False


#: Every constructor of a numpy generator or bit generator: called with
#: no seed they read OS entropy, with a literal they start a private
#: stream the scenario seed does not reach.
_GENERATOR_CONSTRUCTORS = tuple(
    f"numpy.random.{name}"
    for name in (
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    )
)

AMBIENT_SOURCES: Tuple[AmbientSource, ...] = (
    AmbientSource(
        "DET001",
        "wall-clock read",
        banned=(
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        ),
        use="call",
        sanctioned=("repro.perf.timing",),
        fix_hint=(
            "use Simulator.now (simulated ns); host tooling that must time "
            "itself calls repro.perf.timing.wall_ns(), the one sanctioned "
            "host-clock module"
        ),
    ),
    AmbientSource(
        "DET002",
        "stdlib random import",
        banned=("random.*",),
        use="import",
        sanctioned=(),
        fix_hint="draw from an RngRegistry named stream (repro.sim.rng) instead",
    ),
    AmbientSource(
        "DET003",
        "private numpy generator",
        banned=_GENERATOR_CONSTRUCTORS,
        use="literal-seed",
        sanctioned=("repro.sim.rng",),
        fix_hint=(
            "thread an RngRegistry stream through the deployment wiring "
            "(rng.stream(name)); a generator built anywhere else takes a "
            "derived seed — a parameter, or content such as a transport "
            "block id"
        ),
    ),
    AmbientSource(
        "DET004",
        "numpy global RNG",
        banned=("numpy.random.*",),
        use="call",
        sanctioned=("repro.sim.rng",),
        fix_hint="use a Generator object from an RngRegistry stream",
        exempt=_GENERATOR_CONSTRUCTORS,
    ),
)


def _import_origins(node: ast.AST) -> List[str]:
    """What an import statement binds, as origins (absolute imports only)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed of a generator construction: the first positional
    argument, else the first keyword's value (``seed=``, ``entropy=``,
    ``bit_generator=``); ``None`` when the call has no argument at all."""
    if call.args:
        return call.args[0]
    return call.keywords[0].value if call.keywords else None


def _banned_uses(
    row: AmbientSource, module: ModuleInfo, node: ast.AST
) -> Iterator[str]:
    """How ``node`` uses an origin ``row`` bans, once per use."""
    if row.use == "import":
        for origin in _import_origins(node):
            if row.bans(origin):
                yield origin
        return
    if not isinstance(node, ast.Call):
        return
    origin = module.origin(node.func)
    if origin is None or not row.bans(origin):
        return
    if row.use == "call":
        yield f"{origin}()"
        return
    seed = _seed_argument(node)
    if seed is None:
        yield f"unseeded {origin}()"
    elif isinstance(seed, ast.Constant):
        yield f"constant-seeded {origin}({seed.value!r})"


class AmbientSourceRule(LintRule):
    """A DET rule: its row of :data:`AMBIENT_SOURCES`, evaluated on every
    import and call outside the row's sanctioned modules."""

    row: AmbientSource

    def check(self, program: Program) -> Iterator[Finding]:
        row = self.row
        for module in program.modules.values():
            if module.name in row.sanctioned:
                continue
            for node in ast.walk(module.context.tree):
                for used in _banned_uses(row, module, node):
                    yield self.finding(
                        module.context.path, *location(node), f"{row.title}: {used}"
                    )


for _row in AMBIENT_SOURCES:
    register_rule(
        type(
            _row.rule_id,
            (AmbientSourceRule,),
            {
                "row": _row,
                "rule_id": _row.rule_id,
                "title": _row.title,
                "fix_hint": _row.fix_hint,
            },
        )
    )
