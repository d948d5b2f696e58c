"""Per-rule slinglint fixtures: each rule fires on a minimal violation
and is silenced by its suppression comment; the rule census pins, case
by case, exactly which rules fire."""

import pytest

from repro.analysis import Severity, all_rules, lint_source
from repro.analysis.p4budget import (
    MAX_REGISTER_ACCESSES_PER_PASS,
    summarize_program,
)
from repro.analysis.program import Program
from repro.analysis.registry import LintContext, parse_suppressions, run_rules

import ast


def rule_ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path="src/repro/somewhere/mod.py"):
    return lint_source(source, path=path)


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


class TestStreamRules:
    """STREAM001-004 replace the old per-file DET005 namespace check."""

    def test_stream_namespaced_draw_in_owner_allowed(self):
        findings = lint(
            'def f(rng):\n    return rng.stream("faults.link.fh")\n',
            path="src/repro/faults/injector.py",
        )
        assert not [r for r in rule_ids(findings) if r.startswith("STREAM")]

    def test_stream_fstring_prefix_allowed(self):
        findings = lint(
            "def f(rng, link):\n"
            '    return rng.stream(f"faults.link.{link.name}")\n',
            path="src/repro/faults/injector.py",
        )
        assert not [r for r in rule_ids(findings) if r.startswith("STREAM")]

    def test_stream001_dynamic_name_flagged(self):
        """A fully dynamic stream name can't be assigned an owner."""
        findings = lint(
            "def f(rng, name):\n    return rng.stream(name)\n",
            path="src/repro/faults/link_faults.py",
        )
        assert "STREAM001" in rule_ids(findings)

    def test_stream001_fstring_without_static_prefix_flagged(self):
        findings = lint(
            "def f(rng, name):\n"
            '    return rng.stream(f"{name}.jitter")\n',
            path="src/repro/faults/injector.py",
        )
        assert "STREAM001" in rule_ids(findings)

    def test_stream002_undeclared_namespace_flagged_anywhere(self):
        """Unlike DET005, the ownership table binds every subsystem."""
        for path in (
            "src/repro/faults/injector.py",
            "src/repro/phy/channel.py",
        ):
            findings = lint(
                'def f(rng):\n    return rng.stream("channel.snr")\n',
                path=path,
            )
            assert "STREAM002" in rule_ids(findings), path

    def test_stream003_strict_namespace_owner_only(self):
        # cell is a composition root, but faults.* is strict: only
        # faults/ itself may draw fault-plan streams.
        findings = lint(
            'def f(rng):\n    return rng.stream("faults.link.fh")\n',
            path="src/repro/cell/deployment.py",
        )
        assert "STREAM003" in rule_ids(findings)

    def test_stream003_composition_root_may_wire_non_strict(self):
        findings = lint(
            'def f(rng):\n    return rng.stream("ue1.channel")\n',
            path="src/repro/cell/deployment.py",
        )
        assert "STREAM003" not in rule_ids(findings)

    def test_stream003_foreign_subsystem_draw_flagged(self):
        findings = lint(
            'def f(rng):\n    return rng.stream("ue1.channel")\n',
            path="src/repro/apps/video.py",
        )
        assert "STREAM003" in rule_ids(findings)

    def test_stream_suppressed(self):
        findings = lint(
            "def f(rng, name):\n"
            "    return rng.stream(name)  # slinglint: disable=STREAM001\n",
            path="src/repro/faults/injector.py",
        )
        assert "STREAM001" not in rule_ids(findings)


class TestTimeUnitRules:
    """The TIM001 / TIM003 behaviours, now the zero-hop case of TIMX001;
    TIM002 (a style warning) is retired and its cases lint clean."""

    def test_tim001_float_literal_delay(self):
        findings = lint("def f(sim):\n    sim.schedule(1.5, print)\n")
        assert rule_ids(findings) == ["TIMX001"]

    def test_tim001_float_inside_expression(self):
        findings = lint("def f(sim, n):\n    sim.at(n * 0.5, print)\n")
        assert rule_ids(findings) == ["TIMX001"]

    def test_tim001_converted_float_allowed(self):
        findings = lint(
            "from repro.sim.units import s_to_ns\n"
            "def f(sim):\n"
            "    sim.schedule(s_to_ns(1.5), print)\n"
        )
        assert findings == []

    def test_tim001_suppressed(self):
        findings = lint(
            "def f(sim):\n"
            "    sim.schedule(1.5, print)  # slinglint: disable=TIMX001\n"
        )
        assert findings == []

    def test_tim002_magic_duration(self):
        # An integer literal carries no float, whatever its size.
        assert lint("def f(sim):\n    sim.schedule(500_000, print)\n") == []

    def test_tim002_small_offsets_allowed(self):
        assert lint("def f(sim):\n    sim.schedule(100, print)\n") == []

    def test_tim002_units_expression_allowed(self):
        findings = lint(
            "from repro.sim.units import US\n"
            "def f(sim):\n"
            "    sim.schedule(500 * US, print)\n"
        )
        assert findings == []

    def test_tim003_seconds_identifier_into_scheduler(self):
        findings = lint(
            "def f(sim, duration_s):\n"
            "    sim.run_for(duration_s)\n"
        )
        assert rule_ids(findings) == ["TIMX001"]

    def test_tim003_seconds_attribute_into_boundary_helper(self):
        findings = lint(
            "from repro.sim.units import run_for_ns\n"
            "def f(cell, config):\n"
            "    run_for_ns(cell, config.gap_seconds)\n"
        )
        assert rule_ids(findings) == ["TIMX001"]

    def test_tim003_converted_seconds_allowed(self):
        findings = lint(
            "from repro.sim.units import run_for_ns, seconds\n"
            "def f(cell, duration_s):\n"
            "    run_for_ns(cell, seconds(duration_s))\n"
        )
        assert findings == []

    def test_tim003_ns_identifier_allowed(self):
        findings = lint(
            "def f(sim, duration_ns):\n"
            "    sim.run_for(duration_ns)\n"
        )
        assert findings == []

    def test_tim003_suppressed(self):
        findings = lint(
            "def f(sim, delay_s):\n"
            "    sim.schedule(delay_s, print)  # slinglint: disable=TIMX001\n"
        )
        assert findings == []


class TestInterproceduralTaintRules:
    """TIMX001/002: float-seconds dataflow across assignments and calls."""

    def test_timx001_renamed_local_reaches_sink(self):
        findings = lint(
            "def f(sim):\n"
            "    delay_s = 0.5\n"
            "    wait = delay_s\n"
            "    sim.schedule(wait, print)\n"
        )
        assert "TIMX001" in rule_ids(findings)

    def test_timx001_seconds_returned_from_helper(self):
        findings = lint(
            "def gap():\n"
            "    gap_seconds = 2.5\n"
            "    return gap_seconds\n"
            "def f(sim):\n"
            "    sim.schedule(gap(), print)\n"
        )
        assert "TIMX001" in rule_ids(findings)

    def test_timx001_tainted_argument_crosses_call(self):
        findings = lint(
            "def helper(sim, delay):\n"
            "    sim.schedule(delay, print)\n"
            "def f(sim, timeout_s):\n"
            "    helper(sim, timeout_s)\n"
        )
        assert "TIMX001" in rule_ids(findings)

    def test_timx001_two_hop_chain(self):
        findings = lint(
            "def inner(sim, d):\n"
            "    sim.schedule(d, print)\n"
            "def middle(sim, v):\n"
            "    inner(sim, v)\n"
            "def f(sim):\n"
            "    interval_s = 1.5\n"
            "    middle(sim, interval_s)\n"
        )
        assert "TIMX001" in rule_ids(findings)

    def test_timx001_ns_to_s_result_is_tainted(self):
        findings = lint(
            "from repro.sim.units import ns_to_s\n"
            "def f(sim, t_ns):\n"
            "    sim.schedule(ns_to_s(t_ns), print)\n"
        )
        assert "TIMX001" in rule_ids(findings)

    def test_timx001_sanitized_flow_clean(self):
        findings = lint(
            "def helper(sim, delay):\n"
            "    sim.schedule(delay, print)\n"
            "def f(sim, timeout_s):\n"
            "    helper(sim, int(timeout_s * 1e9))\n"
        )
        assert "TIMX001" not in rule_ids(findings)

    def test_timx001_converted_local_clean(self):
        findings = lint(
            "from repro.sim.units import seconds\n"
            "def f(sim, delay_s):\n"
            "    wait = seconds(delay_s)\n"
            "    sim.schedule(wait, print)\n"
        )
        assert "TIMX001" not in rule_ids(findings)

    def test_timx001_does_not_duplicate_tim003(self):
        """Inverted with TIM003's retirement: the zero-hop flow is the
        taint pass's own finding, reported once."""
        findings = lint(
            "def f(sim, duration_s):\n"
            "    sim.run_for(duration_s)\n"
            "    sim.run_for(duration_s)\n"
        )
        assert [(f.rule_id, f.line) for f in findings] == [
            ("TIMX001", 2),
            ("TIMX001", 3),
        ]

    def test_timx001_sees_closures_lambdas_and_module_level(self):
        findings = lint(
            "sim.schedule(1.5, print)\n"
            "def f(sim, delay_s):\n"
            "    def later():\n"
            "        sim.schedule(delay_s, print)\n"
            "    sim.schedule(1, lambda: sim.at(0.5, print))\n"
        )
        assert [(f.rule_id, f.line) for f in findings] == [
            ("TIMX001", 1),
            ("TIMX001", 4),
            ("TIMX001", 5),
        ]

    def test_timx001_literal_does_not_taint_the_object_it_configures(self):
        findings = lint(
            "def f(sim, make):\n"
            "    cell = make(snr_db=16.0)\n"
            "    sim.schedule(6 * cell.slot_ns, print)\n"
        )
        assert findings == []

    def test_timx001_suppressed(self):
        findings = lint(
            "def f(sim):\n"
            "    delay_s = 0.5\n"
            "    wait = delay_s\n"
            "    sim.schedule(wait, print)  # slinglint: disable=TIMX001\n"
        )
        assert "TIMX001" not in rule_ids(findings)

    def test_timx002_seconds_bound_to_ns_name(self):
        findings = lint(
            "def f(timeout_s):\n"
            "    timeout_ns = timeout_s\n"
            "    return timeout_ns\n"
        )
        assert "TIMX002" in rule_ids(findings)

    def test_timx002_converted_binding_clean(self):
        findings = lint(
            "from repro.sim.units import seconds\n"
            "def f(timeout_s):\n"
            "    timeout_ns = seconds(timeout_s)\n"
            "    return timeout_ns\n"
        )
        assert "TIMX002" not in rule_ids(findings)


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


class TestP4BudgetRules:
    def test_p4r002_table_count(self):
        # The table count is not a lint matter any more (P4R002 retired).
        assert lint(_pipeline_class(table_count=33)) == []

    def test_p4r003_register_accesses_per_pass(self):
        findings = lint(
            _pipeline_class(accesses=MAX_REGISTER_ACCESSES_PER_PASS + 1)
        )
        assert "P4R003" in rule_ids(findings)
        findings = lint(
            _pipeline_class(accesses=MAX_REGISTER_ACCESSES_PER_PASS)
        )
        assert "P4R003" not in rule_ids(findings)

    def test_rules_inactive_without_pipeline_state(self):
        findings = lint("x = 1\n")
        assert not [f for f in findings if f.rule_id.startswith("P4R")]

    def test_summary_helpers(self):
        tree = ast.parse(_pipeline_class(table_count=2, accesses=3))
        summary = summarize_program(tree)
        assert summary.tables == {"t0", "t1"}
        assert summary.registers == {"reg"}
        assert summary.max_accesses("reg") == 3


class TestObservabilityRules:
    """OBS001 is retired: telemetry is bound by the same DET / STREAM rows
    as every other package, which already fired on each of its cases."""

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

    def test_obs001_rng_stream_acquisition_in_telemetry(self):
        findings = lint(
            "def f(registry):\n"
            "    return registry.stream('telemetry')\n",
            path=self.TELEMETRY_PATH,
        )
        assert rule_ids(findings) == ["STREAM002"]

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
        row(
            "P4R003 alone",
            ["P4R003"],
            _pipeline_class(accesses=MAX_REGISTER_ACCESSES_PER_PASS + 1),
            "src/repro/somewhere/mod.py",
        ),
        row(
            "STREAM001 alone",
            ["STREAM001"],
            "def f(rng, name):\n    return rng.stream(name)\n",
        ),
        row(
            "STREAM002 alone",
            ["STREAM002"],
            'def f(rng):\n    return rng.stream("channel.snr")\n',
        ),
        row(
            "STREAM003 alone",
            ["STREAM003"],
            'def f(rng):\n    return rng.stream("ue1.channel")\n',
            "src/repro/apps/video.py",
        ),
        (
            "STREAM004 alone",
            {"STREAM004"},
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
        row("SUP001 alone", ["SUP001"], "x = 1  # slinglint: disable=DET001\n"),
        row(
            "TIMX001 alone",
            ["TIMX001"],
            "def f(sim):\n    wait = 0.5\n    sim.schedule(wait, print)\n",
        ),
        row(
            "TIMX002 alone",
            ["TIMX002"],
            "def f(timeout_s):\n    timeout_ns = timeout_s\n    return timeout_ns\n",
        ),
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
        row(
            "sim.schedule(delay_s, cb)",
            ["TIMX001"],
            "def f(sim, delay_s):\n    sim.schedule(delay_s, print)\n",
        ),
        row("sim.schedule(1.5, cb)", ["TIMX001"], "sim.schedule(1.5, print)\n"),
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
    # belong to someone else, two undeclared ones to nobody.
    for name in ("app.x", "core.x", "faults.x", "phy1", "ptp", "ue1.channel"):
        rows.append(
            row(
                f"telemetry: stream({name!r})",
                ["STREAM003"],
                f"def f(registry):\n    return registry.stream({name!r})\n",
                TELEMETRY,
            )
        )
    for name in ("telemetry", "metrics.flush"):
        rows.append(
            row(
                f"telemetry: stream({name!r})",
                ["STREAM002"],
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

    def test_in_module_matching(self):
        ctx = LintContext.for_source("x = 1\n", path="src/repro/sim/rng.py")
        assert ctx.in_module("sim", "rng.py")
        assert not ctx.in_module("net", "rng.py")
