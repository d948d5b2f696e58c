"""Tree policy: a run is a pure function of its seed, and no event
callback leans on an order the engine does not promise.

What a run can see is checked where it runs: ``RngRegistry.stream``
refuses a draw from a stream its caller's subsystem does not own, every
``Simulator`` entry point refuses a time that is not an ``int`` of
nanoseconds (``tests/test_sim_engine.py``), and the switch program's
register accesses are counted per pass (``tests/test_fh_middlebox.py``).
These guards keep what no run can notice, on every module of
``src/repro`` through the shared reader (``tests/tree_reader.py``):

* **DET001–004** — one table of ambient nondeterminism,
  :data:`AMBIENT_SOURCES`: the origins a row bans, which use of them is
  the violation, and the module sanctioned to use them anyway. Names
  resolve through the module's imports first, so ``from time import
  time`` and ``import numpy.random as r`` are the spelled-out call.
* **EVT001** — a lambda handed to a scheduling call inside a ``for``
  loop reads the loop variable at fire time, not at schedule time.
* **EVT002** — ``schedule(0, ...)`` runs after whatever else is queued
  at the current instant: it leans on FIFO tie order.
* **ENM001** — a member read of an ``enum.Enum`` subclass
  (``EtherType.ECPRI``) inside a function body of a per-slot module,
  :data:`PER_SLOT_MODULES`. On CPython 3.11 the class-attribute lookup
  costs ~130 ns where a module constant bound once (``ETH_ECPRI``)
  costs ~10, and an idle cell-slot made ~25 of them. A default
  argument or a module-level binding is evaluated once and is clean.

A finding is ``(qualified scope, rule id)``. Every exemption is a row
of :data:`KEPT_FINDINGS` with its reason, and a row that excuses
nothing fails as SUP001, so the exemptions cannot rot.
:class:`TestRuleCensus` pins, case by case, exactly the rule ids that
fire; a rule that never fires alone duplicates another.
"""

import ast
import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from tests.tree_reader import (
    SCHEDULING_CALLS,
    SRC,
    _aliases,
    callee,
    module_name,
    modules,
    origin,
)


@dataclass(frozen=True)
class AmbientSource:
    """One row of the ambient-nondeterminism table."""

    rule_id: str
    #: Banned origins; ``"pkg.*"`` bans ``pkg`` and every name under it.
    banned: Tuple[str, ...]
    #: Which use is the violation: ``"call"``, ``"import"`` (the import
    #: alone, called or not), or ``"literal-seed"`` (a call given no seed
    #: or a literal one; a derived seed, a parameter or content, is fine).
    use: str
    #: The modules allowed to do it anyway.
    sanctioned: Tuple[str, ...]
    #: Origins under a banned wildcard that belong to another row.
    exempt: Tuple[str, ...] = ()

    def bans(self, name: str) -> bool:
        return name not in self.exempt and any(
            name == pattern[:-2] or name.startswith(pattern[:-1])
            if pattern.endswith(".*")
            else name == pattern
            for pattern in self.banned
        )


#: Every constructor of a numpy generator or bit generator: called with
#: no seed they read OS entropy, with a literal they start a private
#: stream the scenario seed does not reach.
GENERATOR_CONSTRUCTORS = tuple(
    f"numpy.random.{name}"
    for name in (
        "default_rng", "Generator", "RandomState", "SeedSequence",
        "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    )
)

AMBIENT_SOURCES = (
    # A wall-clock read: use Simulator.now; host tooling that times
    # itself calls perf.timing.wall_ns(), the one host-clock module.
    AmbientSource(
        "DET001",
        banned=(
            "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
            "time.perf_counter", "time.perf_counter_ns", "datetime.datetime.now",
            "datetime.datetime.utcnow", "datetime.datetime.today", "datetime.date.today",
        ),
        use="call",
        sanctioned=("perf.timing",),
    ),
    # The stdlib generator: draw from an RngRegistry stream instead.
    AmbientSource("DET002", banned=("random.*",), use="import", sanctioned=()),
    # A private numpy generator: thread an RngRegistry stream through
    # the wiring, or seed it from a parameter or from content.
    AmbientSource(
        "DET003", banned=GENERATOR_CONSTRUCTORS, use="literal-seed", sanctioned=("sim.rng",)
    ),
    # numpy's hidden global generator.
    AmbientSource(
        "DET004",
        banned=("numpy.random.*",),
        use="call",
        sanctioned=("sim.rng",),
        exempt=GENERATOR_CONSTRUCTORS,
    ),
)


def _ambient(module: str, tree: ast.Module, node: ast.AST) -> set:
    """The DET rule ids ``node`` violates in ``module``."""
    if isinstance(node, ast.Import):
        names, uses = [alias.name for alias in node.names], {"import"}
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        names, uses = [f"{node.module}.{alias.name}" for alias in node.names], {"import"}
    elif isinstance(node, ast.Call):
        names, uses = [origin(tree, node.func)], {"call"}
        if names[0] is None:
            return set()
        # The seed: the first positional argument, else the first keyword.
        seed = node.args[0] if node.args else next(
            (keyword.value for keyword in node.keywords), None
        )
        if seed is None or isinstance(seed, ast.Constant):
            uses.add("literal-seed")
    else:
        return set()
    return {
        row.rule_id
        for row in AMBIENT_SOURCES
        if row.use in uses and module not in row.sanctioned and any(map(row.bans, names))
    }


def _late_capture(loop: ast.AST) -> bool:
    """Whether a lambda handed to a scheduling call inside ``loop`` reads
    the loop's variable without binding it itself."""
    loop_names = {node.id for node in ast.walk(loop.target) if isinstance(node, ast.Name)}
    for call in ast.walk(loop):
        if not (isinstance(call, ast.Call) and callee(call) in SCHEDULING_CALLS):
            continue
        for value in [*call.args, *(keyword.value for keyword in call.keywords)]:
            if not isinstance(value, ast.Lambda):
                continue
            args = value.args
            bound = {
                arg.arg
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg)
                if arg is not None
            }
            read = {
                node.id
                for node in ast.walk(value.body)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            if (read - bound) & loop_names:
                return True
    return False


def _zero_delay(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and callee(node) == "schedule"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 0
    )


#: The modules a healthy slot runs through (a package covers every
#: module under it): ENM001 holds their function bodies.
PER_SLOT_MODULES = (
    "net", "core", "fapi.channels", "phy.process", "fronthaul", "l2", "ue.ue",
)

#: The bases that make a class an enum.
ENUM_BASES = frozenset(
    f"enum.{name}" for name in ("Enum", "IntEnum", "Flag", "IntFlag", "StrEnum")
)


def _per_slot(module: str) -> bool:
    return any(
        module == name or module.startswith(f"{name}.") for name in PER_SLOT_MODULES
    )


def _qualified(module: str, name: str) -> str:
    """``name`` as :func:`origin` resolved it in ``module``, made absolute:
    a name no import binds is the module's own."""
    if name.startswith(("repro.", "enum.")):
        return name
    return f"repro.{module.removesuffix('.__init__')}.{name}"


def enum_members(trees, known=None) -> Dict[str, frozenset]:
    """Qualified enum class -> its member names, for the classes defined
    at the top of ``trees`` (``(module, tree)`` pairs) that subclass an
    enum base or a class of ``known`` (the same shape)."""
    found = dict(known or {})
    classes = [
        (module, tree, node)
        for module, tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    ]
    grown = True
    while grown:  # An enum may subclass an enum defined further on.
        grown = False
        for module, tree, node in classes:
            name = _qualified(module, node.name)
            if name in found or not any(
                (base := origin(tree, expr)) is not None
                and (_qualified(module, base) in found or base in ENUM_BASES)
                for expr in node.bases
            ):
                continue
            found[name] = frozenset(
                target.id
                for statement in node.body
                if isinstance(statement, (ast.Assign, ast.AnnAssign))
                for target in (
                    statement.targets if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                if isinstance(target, ast.Name) and not target.id.startswith("_")
            )
            grown = True
    return found


@functools.lru_cache(maxsize=None)
def tree_enums() -> Dict[str, frozenset]:
    """Every enum class of ``src/repro`` and its members."""
    return enum_members(list(modules()))


def _member_read(module: str, tree: ast.Module, node: ast.AST, enums) -> bool:
    if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
        return False
    owner = origin(tree, node.value)
    return owner is not None and node.attr in enums.get(_qualified(module, owner), ())


def findings(module: str, tree: ast.Module) -> set:
    """``(qualified scope, rule id)`` for every violation in ``tree``: the
    scope is the function or class it sits in (``apps.ping.PingClient.start``),
    or the module."""
    found = set()
    per_slot = _per_slot(module)
    enums = enum_members([(module, tree)], tree_enums()) if per_slot else {}
    # (scope, node, whether the node runs on every call of a function of
    # a per-slot module)
    stack = [(module, tree, False)]
    while stack:
        scope, node, hot = stack.pop()
        found |= {(scope, rule) for rule in _ambient(module, tree, node)}
        if isinstance(node, (ast.For, ast.AsyncFor)) and _late_capture(node):
            found.add((scope, "EVT001"))
        if _zero_delay(node):
            found.add((scope, "EVT002"))
        if hot and _member_read(module, tree, node, enums):
            found.add((scope, "ENM001"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators, defaults and annotations run once, at the def.
            body = {id(statement) for statement in node.body}
            stack.extend(
                (scope, child, hot or (per_slot and id(child) in body))
                for child in ast.iter_child_nodes(node)
            )
        else:
            stack.extend((scope, child, hot) for child in ast.iter_child_nodes(node))
    return found


def verdict(found: set, kept: Dict[Tuple[str, str], str]) -> set:
    """The rule ids that fire: each finding no row of ``kept`` excuses,
    and SUP001 when a row of ``kept`` excuses no finding."""
    fired = {rule for _, rule in found - set(kept)}
    return fired | ({"SUP001"} if set(kept) - found else set())


TIE_SHUFFLE = (
    "order-independent: the first send of a flow its start() opens at the "
    "current instant, as in tests/test_tie_shuffle.py::"
    "test_fig8_trace_identical_under_tie_shuffle, whose digest holds across tie seeds"
)
#: Findings kept on purpose: ``(qualified scope, rule id)`` and why. A
#: row that excuses nothing is stale (SUP001); anything else is fixed.
KEPT_FINDINGS = {
    ("l2.mac.McsTable.__init__", "ENM001"): (
        "cold: the MCS table is built once, with its L2 process"
    ),
    ("apps.ping.PingClient.start", "EVT002"): TIE_SHUFFLE,
    ("apps.video.VideoSender.start", "EVT002"): TIE_SHUFFLE,
    ("transport.udp.UdpSender.start", "EVT002"): TIE_SHUFFLE,
}


def test_the_tree_keeps_the_policy():
    """Every ``src/repro`` module, tooling included: no finding outside
    :data:`KEPT_FINDINGS`, and no row of it that excuses nothing."""
    found = set()
    for module, tree in modules():
        found |= findings(module, tree)
    assert verdict(found, KEPT_FINDINGS) == set(), (
        f"findings: {sorted(found - set(KEPT_FINDINGS))}; KEPT_FINDINGS rows "
        f"that excuse nothing (SUP001): {sorted(set(KEPT_FINDINGS) - found)}"
    )


def test_origin_resolves_names_through_imports():
    tree = ast.parse(
        "from time import perf_counter_ns as now\n"
        "import numpy as np\n"
        "import numpy.random as r\n"
        "from datetime import datetime as dt\n"
        "a = now()\n"
        "b = np.random.default_rng(1)\n"
        "c = r.rand()\n"
        "d = dt.now()\n"
        "e = helper.run()\n"
        "f = make()()\n"
    )
    calls = [stmt.value.func for stmt in tree.body if isinstance(stmt, ast.Assign)]
    assert [origin(tree, func) for func in calls] == [
        "time.perf_counter_ns",
        "numpy.random.default_rng",
        "numpy.random.rand",
        "datetime.datetime.now",
        "helper.run",  # no import binds it: kept as written
        None,  # not a name chain
    ]


def test_aliases():
    tree = ast.parse(
        "import a.b as c\n"
        "import d.e\n"
        "from f.g import h as i\n"
        "from j import k\n"
        "from . import sibling\n"
        "from .m import n\n"
    )
    # A relative import binds a module of the package itself: no alias.
    assert _aliases(tree) == {"c": "a.b", "d": "d", "i": "f.g.h", "k": "j.k"}


def test_module_naming():
    assert module_name(SRC / "apps" / "ping.py") == "apps.ping"
    assert module_name(SRC / "perf" / "__init__.py") == "perf.__init__"
    assert module_name(SRC / "cli.py") == "cli"
    with pytest.raises(ValueError):
        module_name(SRC.parents[1] / "bench" / "run.py")


def test_the_reader_parses_each_module_once():
    first = list(modules())
    names = [name for name, _ in first]
    assert len(names) == len(set(names)) == len(list(SRC.rglob("*.py")))
    assert {"cli", "sim.engine", "sim.rng", "perf.timing"} <= set(names)
    assert all(a is b for (_, a), (_, b) in zip(first, modules()))


def test_rule_ids_unique_and_rows_name_what_exists():
    """The table's rows are distinct rules over real modules: a
    sanctioned module or a kept scope that names no module of the tree,
    or an exempt origin no ban covers, is dead data."""
    ids = [row.rule_id for row in AMBIENT_SOURCES]
    assert len(ids) == len(set(ids))
    names = {name for name, _ in modules()}
    for row in AMBIENT_SOURCES:
        assert row.use in {"call", "import", "literal-seed"}
        assert set(row.sanctioned) <= names
        unexempt = dataclasses.replace(row, exempt=())
        assert all(map(unexempt.bans, row.exempt))
    rules = set(ids) | {"EVT001", "EVT002", "ENM001"}
    for (scope, rule), reason in KEPT_FINDINGS.items():
        assert rule in rules and reason
        assert any(scope.startswith(f"{name}.") for name in names)


def test_a_finding_names_its_qualified_scope():
    tree = ast.parse(
        "import time\n"
        "a = time.time()\n"
        "class P:\n"
        "    b = time.time()\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return time.time()\n"
        "        return time.time()\n"
        "async def h(sim):\n"
        "    sim.schedule(0, print)\n"
    )
    assert findings("l2.mac", tree) == {
        ("l2.mac", "DET001"),
        ("l2.mac.P", "DET001"),
        ("l2.mac.P.f", "DET001"),
        ("l2.mac.P.f.g", "DET001"),
        ("l2.mac.h", "EVT002"),
    }


RUNTIME = "src/repro/l2/mac.py"
TELEMETRY = "src/repro/telemetry/collect.py"
PERF = "src/repro/perf/__init__.py"
PARALLEL = "src/repro/parallel/pool.py"
TIMING = "src/repro/perf/timing.py"
RNG = "src/repro/sim/rng.py"
LINK = "src/repro/net/link.py"
ETHERTYPE = "from repro.net.packet import EtherType\n"

#: The determinism holes string matching left open, each with the DET
#: row that owns it and the module that row sanctions.
HOLES = [
    ("from time import time\nt = time()\n", "DET001", TIMING),
    ("import time as t\nx = t.time()\n", "DET001", TIMING),
    ("from datetime import datetime as dt\nx = dt.now()\n", "DET001", TIMING),
    ("from time import perf_counter_ns as now\nx = now()\n", "DET001", TIMING),
    ("from numpy import random as r\nx = r.rand()\n", "DET004", RNG),
    ("import numpy.random as r\nx = r.rand()\n", "DET004", RNG),
    (
        "import numpy as np\ng = np.random.Generator(np.random.PCG64())\n",
        "DET003",
        RNG,
    ),
    (
        "import numpy as np\ng = np.random.Generator(np.random.PCG64(0))\n",
        "DET003",
        RNG,
    ),
    ("import numpy as np\ng = np.random.RandomState(0)\n", "DET003", RNG),
]


def _pipeline_class(table_count=1, accesses=2):
    lines = ["class P:", "    def __init__(self, cfg):"]
    for i in range(table_count):
        lines.append(
            f"        self.t{i} = MatchActionTable('t{i}', cfg.max_rus, 48, 8)"
        )
    lines.append("        self.reg = RegisterArray('reg', cfg.max_rus, 8)")
    lines.append("    def _process_pkt(self, frame):")
    for _ in range(accesses):
        lines.append("        self.reg.read(0)")
    lines.append("        return frame")
    return "\n".join(lines) + "\n"


def test_enum_member_read_in_the_switch_pipeline_fires():
    """The mutant: ``FronthaulMiddlebox.process`` reads
    ``EtherType.ECPRI`` again, and ENM001 names its scope."""
    path = SRC / "core" / "fh_middlebox.py"
    source = path.read_text()
    constant = "if frame.ethertype == ETH_ECPRI:"
    assert source.count(constant) == 1
    mutant = source.replace(constant, "if frame.ethertype == EtherType.ECPRI:").replace(
        "from repro.net.packet import ", "from repro.net.packet import EtherType, ", 1
    )
    scope = ("core.fh_middlebox.FronthaulMiddlebox.process", "ENM001")
    assert scope not in findings("core.fh_middlebox", ast.parse(source))
    assert scope in findings("core.fh_middlebox", ast.parse(mutant))


def _census():
    """``(label, exactly the rule ids that fire, (path, source) files,
    kept rows)``."""

    def row(label, expected, source, path=RUNTIME, kept=None):
        return (label, set(expected), [(path, source)], kept or {})

    def keep(scope, rule):
        return {(scope, rule): "census case"}

    time_call = "import time\nstart = time.time()\n"
    rows = [
        # (a) every rule fires alone somewhere.
        row("DET001 alone", ["DET001"], "import time\nt = time.time()\n"),
        row("DET002 alone", ["DET002"], "import random\n"),
        row(
            "DET003 alone",
            ["DET003"],
            "import numpy as np\nrng = np.random.default_rng(0)\n",
        ),
        row(
            "DET004 alone",
            ["DET004"],
            "import numpy as np\nx = np.random.uniform(0, 1)\n",
        ),
        row(
            "EVT001 alone",
            ["EVT001"],
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, lambda: print(item))\n",
        ),
        row("EVT002 alone", ["EVT002"], "def f(sim):\n    sim.schedule(0, print)\n"),
        row("SUP001 alone", ["SUP001"], "x = 1\n", kept=keep("l2.mac", "DET001")),
        # What each rule does not flag, and a kept row silencing it.
        row(
            "datetime.datetime.now()",
            ["DET001"],
            "import datetime\nt = datetime.datetime.now()\n",
        ),
        row("kept DET001", [], time_call, kept=keep("l2.mac", "DET001")),
        row("from random import choice", ["DET002"], "from random import choice\n"),
        row("import random as r", ["DET002"], "import random as r\n"),
        row(
            "from numpy import random, never called",
            [],
            "from numpy import random\n",
        ),
        row("kept DET002", [], "import random\n", kept=keep("l2.mac", "DET002")),
        row(
            "unseeded default_rng()",
            ["DET003"],
            "import numpy as np\nrng = np.random.default_rng()\n",
        ),
        row(
            "default_rng(seed=0)",
            ["DET003"],
            "import numpy as np\nrng = np.random.default_rng(seed=0)\n",
        ),
        row(
            "default_rng(seed=seed)",
            [],
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed=seed)\n",
        ),
        row(
            "default_rng(seed)",
            [],
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n",
        ),
        row(
            "default_rng(0) in sim/rng.py",
            [],
            "import numpy as np\nrng = np.random.default_rng(0)\n",
            RNG,
        ),
        row(
            "rng.uniform(0, 1) on a Generator",
            [],
            "def f(rng):\n    return rng.uniform(0, 1)\n",
        ),
        row(
            "loop item bound as a lambda default",
            [],
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, lambda item=item: print(item))\n",
        ),
        row(
            "loop item passed as a callback argument",
            [],
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, print, item)\n",
        ),
        row(
            "EVT001 through sim.at",
            ["EVT001"],
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.at(item.t, lambda: print(item))\n",
        ),
        row(
            "EVT001 through schedule_periodic",
            ["EVT001"],
            "def f(sim, phys):\n"
            "    for phy in phys:\n"
            "        sim.schedule_periodic(10, lambda: phy.tick())\n",
        ),
        row(
            "loop item read by a lambda passed by keyword",
            ["EVT001"],
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, callback=lambda: print(item))\n",
        ),
        row(
            "one name of a tuple loop target captured",
            ["EVT001"],
            "def f(sim, pairs):\n"
            "    for name, phy in pairs:\n"
            "        sim.schedule(10, lambda: phy.kill())\n",
        ),
        row(
            "a lambda outside any loop",
            [],
            "def f(sim, item):\n    sim.schedule(10, lambda: print(item))\n",
        ),
        row(
            "a loop lambda not handed to a scheduling call",
            [],
            "def f(handlers, items):\n"
            "    for item in items:\n"
            "        handlers.append(lambda: print(item))\n",
        ),
        row("sim.at(0, cb): an instant, not a delay", [], "def f(sim):\n    sim.at(0, print)\n"),
        row(
            "kept EVT002",
            [],
            "def f(sim):\n    sim.schedule(0, print)\n",
            kept=keep("l2.mac.f", "EVT002"),
        ),
        row(
            "EVT002 kept in another scope",
            ["EVT002", "SUP001"],
            "def f(sim):\n    sim.schedule(0, print)\n",
            kept=keep("l2.mac", "EVT002"),
        ),
        row(
            "stale row on a function scope",
            ["SUP001"],
            "def f(sim):\n    sim.schedule(10, print)\n",
            kept=keep("l2.mac.f", "EVT002"),
        ),
        row(
            "time.time() in a string literal",
            [],
            'DOC = "start = time.time()"\n',
        ),
        (
            "kept row excuses its own module only",
            {"DET001"},
            [("src/repro/apps/a.py", time_call), ("src/repro/ue/b.py", time_call)],
            keep("apps.a", "DET001"),
        ),
        # (b) what the retired rules' positive cases do now (DESIGN §7).
        row(
            "telemetry: time.monotonic_ns()",
            ["DET001"],
            "import time\nt = time.monotonic_ns()\n",
            TELEMETRY,
        ),
        row(
            "telemetry: time.monotonic_ns() in a function",
            ["DET001"],
            "import time\ndef f():\n    return time.monotonic_ns()\n",
            TELEMETRY,
        ),
        row("telemetry: import random", ["DET002"], "import random\n", TELEMETRY),
        row(
            "telemetry: default_rng()",
            ["DET003"],
            "from numpy.random import default_rng\nrng = default_rng()\n",
            TELEMETRY,
        ),
        row("telemetry: bare import time", [], "import time\n", TELEMETRY),
        row(
            "telemetry: sim-time arithmetic",
            [],
            "def span(t_start_ns, t_end_ns):\n    return t_end_ns - t_start_ns\n",
            TELEMETRY,
        ),
        row(
            "kept row naming retired OBS001",
            ["SUP001"],
            "import time\n",
            TELEMETRY,
            keep("telemetry.collect", "OBS001"),
        ),
        row("perf: bare import time", [], "import time\n", PERF),
        row(
            "perf: time.perf_counter()",
            ["DET001"],
            "import time\nt = time.perf_counter()\n",
            PERF,
        ),
        row(
            "perf: time.perf_counter_ns()",
            ["DET001"],
            "import time\nstart = time.perf_counter_ns()\n",
            PERF,
        ),
        row(
            "perf: from time import perf_counter",
            ["DET001"],
            "from time import perf_counter\nt = perf_counter()\n",
            PERF,
        ),
        row(
            "runtime: from time import perf_counter",
            ["DET001"],
            "from time import perf_counter\nt = perf_counter()\n",
        ),
        row("sim/engine.py: time.time()", ["DET001"], time_call, "src/repro/sim/engine.py"),
        row(
            "perf/timing.py: wall_ns()",
            [],
            "import time\ndef wall_ns():\n    return time.perf_counter_ns()\n",
            TIMING,
        ),
        row(
            "perf/timing.py: time.monotonic_ns()",
            [],
            "import time\nstart = time.monotonic_ns()\n",
            TIMING,
        ),
        row(
            "kept DET001 where it is sanctioned",
            ["SUP001"],
            "import time\ndef wall_ns():\n    return time.perf_counter_ns()\n",
            TIMING,
            keep("perf.timing.wall_ns", "DET001"),
        ),
        row(
            "perf: wall_ns() from perf.timing",
            [],
            "from repro.perf.timing import wall_ns\nstart = wall_ns()\n",
            PERF,
        ),
        row("perf: time.sleep(1)", [], "import time\ntime.sleep(1)\n", PERF),
        row(
            "a tick that re-schedules itself",
            [],
            "class P:\n"
            "    def _tick(self):\n"
            "        self.sim.schedule(self.period, self._tick)\n",
            "src/repro/phy/process.py",
        ),
        row(
            "*_shard: default_rng(payload)",
            [],
            "import numpy as np\n"
            "def run_sweep_shard(payload):\n"
            "    return np.random.default_rng(payload).integers(0, 2)\n",
            "src/repro/experiments/sweep.py",
        ),
        row(
            "*_shard: default_rng(7)",
            ["DET003"],
            "import numpy as np\n"
            "def run_sweep_shard(payload):\n"
            "    return np.random.default_rng(7).integers(0, 2)\n",
            "src/repro/experiments/sweep.py",
        ),
        row(
            "*_shard: RngRegistry(payload).stream",
            [],
            "from repro.sim.rng import RngRegistry\n"
            "def run_sweep_shard(payload):\n"
            "    rng = RngRegistry(payload).stream('app.sweep')\n"
            "    return int(rng.integers(0, 2))\n",
            "src/repro/experiments/sweep.py",
        ),
        row(
            "experiments/: default_rng(seed) outside a shard",
            [],
            "import numpy as np\n"
            "def helper(seed):\n"
            "    return np.random.default_rng(seed)\n",
            "src/repro/experiments/sweep.py",
        ),
        row(
            "parallel/: module-level {} and global",
            [],
            "_CACHE = {}\n"
            "_COUNT = 0\n"
            "def bump():\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n",
            PARALLEL,
        ),
        row("parallel/: annotated module-level list", [], "_SEEN: list = []\n", PARALLEL),
        row(
            "parallel/: immutable module constants",
            [],
            "NAMES = ('a', 'b')\nLIMIT = 4\n__all__ = ['run_shards']\n",
            PARALLEL,
        ),
        row(
            "kept row naming retired PAR001",
            ["SUP001"],
            "_CACHE = {}\n",
            PARALLEL,
            keep("parallel.pool", "PAR001"),
        ),
        # Float time and stream ownership are the runtime's: the
        # Simulator refuses a non-int time and RngRegistry.stream a
        # draw its namespace table forbids (tests/test_sim_engine.py).
        row(
            "sim.schedule(delay_s, cb)",
            [],
            "def f(sim, delay_s):\n    sim.schedule(delay_s, print)\n",
        ),
        row("sim.schedule(1.5, cb)", [], "sim.schedule(1.5, print)\n"),
        row(
            "wait = 0.5; sim.schedule(wait, cb)",
            [],
            "def f(sim):\n    wait = 0.5\n    sim.schedule(wait, print)\n",
        ),
        row(
            "timeout_ns = timeout_s",
            [],
            "def f(timeout_s):\n    timeout_ns = timeout_s\n    return timeout_ns\n",
        ),
        row("rng.stream(name)", [], "def f(rng, name):\n    return rng.stream(name)\n"),
        row(
            "rng.stream('channel.snr')",
            [],
            'def f(rng):\n    return rng.stream("channel.snr")\n',
        ),
        row(
            "apps: rng.stream('ue1.channel')",
            [],
            'def f(rng):\n    return rng.stream("ue1.channel")\n',
            "src/repro/apps/video.py",
        ),
        (
            "app.shared from cell and experiments",
            set(),
            [
                (
                    "src/repro/cell/a.py",
                    'def f(rng):\n    return rng.stream("app.shared")\n',
                ),
                (
                    "src/repro/experiments/b.py",
                    'def g(rng):\n    return rng.stream("app.shared")\n',
                ),
            ],
            {},
        ),
        row(
            "sim.schedule(500_000, cb)",
            [],
            "def f(sim):\n    sim.schedule(500_000, print)\n",
        ),
        row(
            "more than 32 tables",
            [],
            _pipeline_class(table_count=33),
            "src/repro/core/fh_middlebox.py",
        ),
        # Counted per process() call by tests/test_fh_middlebox.py.
        row(
            "5 register accesses in one pass",
            [],
            _pipeline_class(accesses=5),
            "src/repro/core/fh_middlebox.py",
        ),
        row(
            "runtime: attribute first set outside __init__",
            [],
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def poke(self):\n"
            "        self.count += 1\n"
            "        self.last_poke = 42\n",
        ),
        # ENM001: an enum member read where a slot runs it, every call.
        row(
            "ENM001 alone",
            ["ENM001"],
            f"{ETHERTYPE}def f(frame):\n    return frame.ethertype == EtherType.ECPRI\n",
            LINK,
        ),
        row(
            "ENM001: the member bound once at module level",
            [],
            f"{ETHERTYPE}ECPRI = EtherType.ECPRI\n"
            "def f(frame):\n    return frame.ethertype == ECPRI\n",
            LINK,
        ),
        row(
            "ENM001: a module that runs in no slot",
            [],
            f"{ETHERTYPE}def f(frame):\n    return frame.ethertype == EtherType.ECPRI\n",
            "src/repro/experiments/fig9_ping.py",
        ),
        row(
            "ENM001 in a package module of a per-slot package",
            ["ENM001"],
            "from repro.phy.numerology import SlotType\n"
            "def f(kind):\n    return kind is SlotType.UPLINK\n",
            "src/repro/net/p4/tables.py",
        ),
        row(
            "ENM001 through an aliased import",
            ["ENM001"],
            "from repro.net.packet import EtherType as ET\n"
            "def f(frame):\n    return frame.ethertype == ET.IPV4\n",
            LINK,
        ),
        row(
            "ENM001 through a module import",
            ["ENM001"],
            "from repro.net import packet\n"
            "class N:\n    def f(self, frame):\n"
            "        return frame.ethertype == packet.EtherType.SLINGSHOT\n",
            LINK,
        ),
        row(
            "ENM001 on an enum the module defines",
            ["ENM001"],
            "import enum\nclass Mode(enum.Enum):\n    A = 1\n    B = 2\n"
            "def f(mode):\n    return mode is Mode.B\n",
            "src/repro/core/standby.py",
        ),
        row(
            "ENM001 in a nested function",
            ["ENM001"],
            f"{ETHERTYPE}def f(frames):\n"
            "    def g(frame):\n        return frame.ethertype == EtherType.ECPRI\n"
            "    return [g(frame) for frame in frames]\n",
            LINK,
        ),
        row(
            "ENM001: a default argument and a class attribute run once",
            [],
            "from repro.l2.rlc import RlcMode\n"
            "class C:\n    MODE = RlcMode.AM\n"
            "    def f(self, mode=RlcMode.UM):\n        return mode\n",
            "src/repro/l2/rlc.py",
        ),
        row(
            "ENM001: the enum's own methods and non-member attributes",
            [],
            "from repro.phy.numerology import SlotType, NUMEROLOGY\n"
            "def f(ch):\n    return SlotType(ch), SlotType.__members__, NUMEROLOGY.mu\n",
            "src/repro/phy/process.py",
        ),
        row(
            "kept ENM001",
            [],
            f"{ETHERTYPE}def f(frame):\n    return frame.ethertype == EtherType.ECPRI\n",
            LINK,
            keep("net.link.f", "ENM001"),
        ),
    ]
    # No stream namespace is owned by ``telemetry``: six declared heads
    # belong to someone else, two undeclared ones to nobody. No guard
    # fires; RngRegistry.stream refuses each draw at run time.
    for name in (
        "app.x", "core.x", "faults.x", "phy1", "baseline.x", "ue1.channel",
        "telemetry", "metrics.flush",
    ):
        rows.append(
            row(
                f"telemetry: stream({name!r})",
                [],
                f"def f(registry):\n    return registry.stream({name!r})\n",
                TELEMETRY,
            )
        )
    # (c) the holes: closed in every package, clean where sanctioned.
    for source, rule_id, sanctioned in HOLES:
        first_line = source.splitlines()[0]
        for path in (RUNTIME, TELEMETRY, PERF, PARALLEL):
            rows.append(row(f"hole {first_line!r} at {path}", [rule_id], source, path))
        rows.append(row(f"hole {first_line!r} sanctioned", [], source, sanctioned))
    # Seeded from a variable (sim/engine.py's tie stream) or from content
    # (phy/codec.representative_bits): derived, so clean without a row.
    rows.append(
        row(
            "variable-seeded bit generator",
            [],
            "import numpy as np\n"
            "def f(tie_shuffle_seed, block):\n"
            "    np.random.Generator(np.random.PCG64(tie_shuffle_seed))\n"
            "    return np.random.default_rng(block.tb_id)\n",
            "src/repro/sim/engine.py",
        )
    )
    return rows


CENSUS = _census()


class TestRuleCensus:
    """One table: case -> exactly the set of rule ids that fire.

    The acceptance test for any future rule: a rule that never fires
    alone duplicates another, and a retired rule's case keeps the
    verdict DESIGN §7 records for it.
    """

    @pytest.mark.parametrize(
        "expected, files, kept",
        [
            pytest.param(expected, files, kept, id=label)
            for label, expected, files, kept in CENSUS
        ],
    )
    def test_exactly_these_rules_fire(self, expected, files, kept):
        found = set()
        for path, source in files:
            found |= findings(module_name(SRC.parents[1] / path), ast.parse(source))
        assert verdict(found, kept) == expected

    def test_every_rule_fires_alone_somewhere(self):
        alone = {
            next(iter(expected)) for _, expected, _, _ in CENSUS if len(expected) == 1
        }
        rules = {row.rule_id for row in AMBIENT_SOURCES} | {
            "EVT001", "EVT002", "ENM001", "SUP001",
        }
        assert rules <= alone
