"""Per-rule slinglint fixtures: each rule fires on a minimal violation
and is silenced by its suppression comment; the rule census pins, case
by case, exactly which rules fire."""

import pytest

from repro.analysis import Severity, all_rules
from repro.analysis.findings import sort_findings
from repro.analysis.program import Program
from repro.analysis.registry import LintContext, parse_suppressions, run_rules


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path="src/repro/somewhere/mod.py"):
    """Every rule over a one-module program of ``source``."""
    context = LintContext.for_source(source, path=path)
    return sort_findings(run_rules(Program([context])))


class TestDeterminismRules:
    def test_det001_wall_clock(self):
        findings = lint("import time\nstart = time.time()\n")
        assert "DET001" in rule_ids(findings)

    def test_det001_datetime_now(self):
        findings = lint("import datetime\nt = datetime.datetime.now()\n")
        assert "DET001" in rule_ids(findings)

    def test_det001_suppressed(self):
        findings = lint(
            "import time\nstart = time.time()  # slinglint: disable=DET001\n"
        )
        assert "DET001" not in rule_ids(findings)

    def test_det002_stdlib_random_import(self):
        assert "DET002" in rule_ids(lint("import random\n"))
        assert "DET002" in rule_ids(lint("from random import choice\n"))

    def test_det002_suppressed_file_wide(self):
        findings = lint(
            "# slinglint: disable-file=DET002\nimport random\n"
        )
        assert "DET002" not in rule_ids(findings)

    def test_det003_unseeded_and_constant_seeded(self):
        assert "DET003" in rule_ids(
            lint("import numpy as np\nrng = np.random.default_rng()\n")
        )
        assert "DET003" in rule_ids(
            lint("import numpy as np\nrng = np.random.default_rng(0)\n")
        )

    def test_det003_variable_seed_allowed(self):
        findings = lint(
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert "DET003" not in rule_ids(findings)

    def test_det003_exempt_in_rng_module(self):
        findings = lint(
            "import numpy as np\nrng = np.random.default_rng(0)\n",
            path="src/repro/sim/rng.py",
        )
        assert "DET003" not in rule_ids(findings)

    def test_det004_numpy_global_rng(self):
        findings = lint("import numpy as np\nx = np.random.uniform(0, 1)\n")
        assert "DET004" in rule_ids(findings)

    def test_det004_generator_method_allowed(self):
        findings = lint("def f(rng):\n    return rng.uniform(0, 1)\n")
        assert "DET004" not in rule_ids(findings)


class TestEventSafetyRules:
    def test_evt001_loop_capture(self):
        findings = lint(
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, lambda: print(item))\n"
        )
        assert "EVT001" in rule_ids(findings)

    def test_evt001_default_binding_allowed(self):
        findings = lint(
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, lambda item=item: print(item))\n"
        )
        assert "EVT001" not in rule_ids(findings)

    def test_evt001_argument_passing_allowed(self):
        findings = lint(
            "def f(sim, items):\n"
            "    for item in items:\n"
            "        sim.schedule(10, print, item)\n"
        )
        assert "EVT001" not in rule_ids(findings)

    def test_evt002_zero_delay(self):
        findings = lint("def f(sim):\n    sim.schedule(0, print)\n")
        assert "EVT002" in rule_ids(findings)

    def test_evt002_suppressed(self):
        findings = lint(
            "def f(sim):\n"
            "    sim.schedule(0, print)  # slinglint: disable=EVT002\n"
        )
        assert "EVT002" not in rule_ids(findings)


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


class TestPerfRules:
    """PERF001 is retired: its cases are DET001's, with ``perf/timing.py``
    the row's one sanctioned module. PERF002 is retired with the second
    scheduling lane it policed: a tick that re-schedules itself costs
    what ``schedule_periodic`` costs."""

    PERF_PATH = "src/repro/perf/__init__.py"

    def test_perf001_direct_time_call(self):
        findings = lint(
            "import time\nstart = time.perf_counter_ns()\n", path=self.PERF_PATH
        )
        assert rule_ids(findings) == ["DET001"]

    def test_perf001_timing_module_exempt(self):
        source = (
            "import time\n"
            "def wall_ns():\n"
            "    return time.perf_counter_ns()\n"
        )
        assert lint(source, path="src/repro/perf/timing.py") == []
        # Sanctioned by the table, so a suppression there is stale.
        findings = lint(
            source.rstrip("\n") + "  # slinglint: disable=DET001\n",
            path="src/repro/perf/timing.py",
        )
        assert rule_ids(findings) == ["SUP001"]

    def test_perf001_inactive_outside_perf_package(self):
        findings = lint(
            "import time\nstart = time.time()\n", path="src/repro/sim/engine.py"
        )
        assert rule_ids(findings) == ["DET001"]

    def test_perf001_sanctioned_helper_clean(self):
        findings = lint(
            "from repro.perf.timing import wall_ns\nstart = wall_ns()\n",
            path=self.PERF_PATH,
        )
        assert findings == []

    def test_perf002_self_reschedule_is_not_a_lint_matter(self):
        source = (
            "class P:\n"
            "    def _tick(self):\n"
            "        self.sim.schedule(self.period, self._tick)\n"
        )
        assert lint(source, path="src/repro/phy/process.py") == []


class TestObservabilityRules:
    """OBS001 is retired: telemetry is bound by the same DET rows as every
    other package, which already fired on each of its clock and RNG cases."""

    TELEMETRY_PATH = "src/repro/telemetry/collect.py"

    def test_obs001_time_import_in_telemetry(self):
        # An import reads no clock; the call is the violation.
        assert lint("import time\n", path=self.TELEMETRY_PATH) == []

    def test_obs001_wall_clock_call_in_telemetry(self):
        findings = lint(
            "import time\n"
            "def f():\n"
            "    return time.monotonic_ns()\n",
            path=self.TELEMETRY_PATH,
        )
        assert rule_ids(findings) == ["DET001"]

    def test_obs001_random_import_in_telemetry(self):
        assert rule_ids(
            lint("import random\n", path=self.TELEMETRY_PATH)
        ) == ["DET002"]
        assert rule_ids(
            lint(
                "from numpy.random import default_rng\nrng = default_rng()\n",
                path=self.TELEMETRY_PATH,
            )
        ) == ["DET003"]

    def test_obs001_inactive_outside_telemetry(self):
        findings = lint(
            "import time\nstart = time.monotonic_ns()\n",
            path="src/repro/perf/timing.py",
        )
        assert findings == []

    def test_obs001_sim_time_arithmetic_allowed(self):
        findings = lint(
            "def span(t_start_ns, t_end_ns):\n"
            "    return t_end_ns - t_start_ns\n",
            path=self.TELEMETRY_PATH,
        )
        assert findings == []

    def test_obs001_suppressed(self):
        # A directive naming a retired rule suppresses nothing.
        findings = lint(
            "import time  # slinglint: disable=OBS001\n",
            path=self.TELEMETRY_PATH,
        )
        assert rule_ids(findings) == ["SUP001"]


class TestParallelRules:
    """PAR001 is retired: serial == ``--jobs`` N is pinned dynamically on
    every campaign, and the DET rows bind ``parallel/`` and the
    ``*_shard`` workers like any other code."""

    POOL_PATH = "src/repro/parallel/pool.py"

    def test_par001_module_level_mutable_state_in_parallel(self):
        assert lint("_CACHE = {}\n_SEEN: list = []\n", path=self.POOL_PATH) == []

    def test_par001_global_statement_in_parallel(self):
        source = (
            "_COUNT = 0\n"
            "def bump():\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"
        )
        assert lint(source, path=self.POOL_PATH) == []

    def test_par001_immutable_module_constants_allowed(self):
        source = "NAMES = ('a', 'b')\nLIMIT = 4\n__all__ = ['run_shards']\n"
        assert lint(source, path=self.POOL_PATH) == []

    def test_par001_rng_in_shard_worker_anywhere(self):
        # A pure function of the payload: DET003 allows a derived seed
        # and refuses a literal one, in a worker as anywhere.
        source = (
            "import numpy as np\n"
            "def run_sweep_shard(payload):\n"
            "    rng = np.random.default_rng({seed})\n"
            "    return rng.integers(0, 2)\n"
        )
        path = "src/repro/experiments/sweep.py"
        assert lint(source.format(seed="payload"), path=path) == []
        assert rule_ids(lint(source.format(seed="7"), path=path)) == ["DET003"]

    def test_par001_registry_stream_in_shard_worker_clean(self):
        source = (
            "from repro.sim.rng import RngRegistry\n"
            "def run_sweep_shard(payload):\n"
            "    rng = RngRegistry(payload).stream('app.sweep')\n"
            "    return int(rng.integers(0, 2))\n"
        )
        assert lint(source, path="src/repro/experiments/sweep.py") == []

    def test_par001_rng_outside_shard_scope_not_flagged(self):
        source = (
            "import numpy as np\n"
            "def helper(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint(source, path="src/repro/experiments/sweep.py") == []

    def test_par001_suppression(self):
        source = "_CACHE = {}  # slinglint: disable=PAR001\n"
        assert rule_ids(lint(source, path=self.POOL_PATH)) == ["SUP001"]


RUNTIME = "src/repro/l2/mac.py"
TELEMETRY = "src/repro/telemetry/collect.py"
PERF = "src/repro/perf/__init__.py"
PARALLEL = "src/repro/parallel/pool.py"
TIMING = "src/repro/perf/timing.py"
RNG = "src/repro/sim/rng.py"

#: The determinism holes string matching left open, each with the DET
#: row that owns it and the module that row sanctions.
HOLES = [
    ("from time import time\nt = time()\n", "DET001", TIMING),
    ("import time as t\nx = t.time()\n", "DET001", TIMING),
    ("from datetime import datetime as dt\nx = dt.now()\n", "DET001", TIMING),
    ("from time import perf_counter_ns as now\nx = now()\n", "DET001", TIMING),
    ("from numpy import random as r\nx = r.rand()\n", "DET004", RNG),
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


def _census():
    """``(label, exactly the rule ids that fire, (path, source) files)``."""

    def row(label, expected, source, path=RUNTIME):
        return (label, set(expected), [(path, source)])

    rows = [
        # (a) every surviving rule fires alone somewhere.
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
        row("SUP001 alone", ["SUP001"], "x = 1  # slinglint: disable=DET001\n"),
        # (b) what the retired rules' positive cases do now (DESIGN §7).
        row(
            "telemetry: time.monotonic_ns()",
            ["DET001"],
            "import time\nt = time.monotonic_ns()\n",
            TELEMETRY,
        ),
        row("telemetry: import random", ["DET002"], "import random\n", TELEMETRY),
        row("telemetry: bare import time", [], "import time\n", TELEMETRY),
        row("perf: bare import time", [], "import time\n", PERF),
        row(
            "perf: time.perf_counter()",
            ["DET001"],
            "import time\nt = time.perf_counter()\n",
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
        row("perf: time.sleep(1)", [], "import time\ntime.sleep(1)\n", PERF),
        row(
            "*_shard: default_rng(payload)",
            [],
            "import numpy as np\n"
            "def run_sweep_shard(payload):\n"
            "    return np.random.default_rng(payload).integers(0, 2)\n",
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
    ]
    # No stream namespace is owned by ``telemetry``: six declared heads
    # belong to someone else, two undeclared ones to nobody. The lint is
    # silent; RngRegistry.stream refuses each draw at run time.
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
    # (phy/codec.representative_bits): derived, so clean without a comment.
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
    alone duplicates another, and a retired rule's case must keep the
    verdict DESIGN §7 records for it.
    """

    @pytest.mark.parametrize(
        "expected, files",
        [pytest.param(expected, files, id=label) for label, expected, files in CENSUS],
    )
    def test_exactly_these_rules_fire(self, expected, files):
        program = Program(
            [LintContext.for_source(source, path=path) for path, source in files]
        )
        assert {f.rule_id for f in run_rules(program)} == expected

    def test_every_rule_fires_alone_somewhere(self):
        alone = {
            next(iter(expected))
            for _, expected, _ in CENSUS
            if len(expected) == 1
        }
        assert {rule.rule_id for rule in all_rules()} <= alone


class TestFramework:
    def test_rule_ids_unique_and_titled(self):
        rules = all_rules()
        ids = [r.rule_id for r in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert rule.title and rule.fix_hint
            assert isinstance(rule.severity, Severity)

    def test_suppression_in_string_literal_ignored(self):
        per_line, whole_file = parse_suppressions(
            's = "# slinglint: disable=DET001"\n'
        )
        assert per_line == {} and whole_file == set()

    def test_findings_carry_location_and_hint(self):
        findings = lint("import time\nt = time.time()\n", path="pkg/mod.py")
        (finding,) = [f for f in findings if f.rule_id == "DET001"]
        assert finding.location == "pkg/mod.py:2:5"
        assert finding.fix_hint
        assert finding.to_dict()["severity"] == "error"

    def test_unknown_format_rejected(self):
        from repro.analysis import format_findings

        with pytest.raises(ValueError):
            format_findings([], fmt="xml")
