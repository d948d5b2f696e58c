"""Unit tests for the discrete-event simulator core."""

import ast
from types import SimpleNamespace

import numpy as np
import pytest

from tests.engine_legacy import LegacySimulator
from repro.sim import engine as engine_module
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Process
from repro.sim.rng import COMPOSITION_ROOTS, NAMESPACES, BatchedIntegers, RngRegistry, namespace_head
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, SECOND, US, ns_to_ms, ns_to_us, s_to_ns
from tests.packetgen import PeriodicProcess
from tests.tree_reader import SCHEDULING_CALLS, modules


class TestSimulatorScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(100, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0, order.append, "nested")

        sim.schedule(5, first)
        sim.schedule(5, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_run_until_executes_boundary_events(self):
        sim = Simulator()
        seen = []
        sim.at(100, seen.append, "boundary")
        sim.at(101, seen.append, "beyond")
        sim.run_until(100)
        assert seen == ["boundary"]
        assert sim.now == 100
        sim.run_until(200)
        assert seen == ["boundary", "beyond"]

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(12345)
        assert sim.now == 12345

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.run_until(100)
        sim.run_for(50)
        assert sim.now == 150


class TestIntegerTime:
    """Every entry point refuses a time that is not exactly an ``int``,
    where it already compares the value (once the only guard was the
    TIMX001 dataflow rule)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.schedule(0.5, print),
            lambda sim: sim.schedule(np.int64(5), print),
            lambda sim: sim.schedule(True, print),
            lambda sim: sim.at(1.0, print),
            lambda sim: sim.schedule_periodic(2.0, print),
            lambda sim: sim.schedule_periodic(2, print, first_at=1.0),
            lambda sim: sim.schedule_periodic(2, print, first_at=np.int64(1)),
            lambda sim: sim.run_until(3.0),
            lambda sim: sim.run_for(10 / 1),
        ],
        ids=[
            "float delay", "numpy.int64 delay", "bool delay", "float at",
            "float period", "float first_at", "numpy.int64 first_at",
            "float run_until", "integral float run_for",
        ],
    )
    def test_non_int_time_refused(self, call):
        sim = Simulator()
        with pytest.raises(SimulationError, match="must be integer nanoseconds"):
            call(sim)
        assert sim.pending_events == 0 and sim.now == 0

    def test_int_times_are_still_range_checked(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule(-1, print)
        sim.schedule_periodic(5, print, first_at=0)
        sim.run_until(12)
        assert sim.now == 12


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, seen.append, "x")
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent_and_safe_after_fire(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert handle[3] is None
        sim.cancel(handle)  # No error.
        assert sim.cancel_noops == 1

    def test_handle_is_the_heap_entry(self):
        # [time, tie, seq, callback, args, periodic]; the callback slot
        # reads "pending" until the event fires or is cancelled.
        sim = Simulator()
        callback = lambda *args: None  # noqa: E731
        handle = sim.schedule(10, callback, "a", 1)
        assert handle == [10, 0, 0, callback, ("a", 1), None]
        sim.run()
        assert handle[3] is None and handle[0] == 10
        dropped = sim.at(20, callback)
        sim.cancel(dropped)
        assert dropped[3] is None and sim.pending_events == 0

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        drop = sim.schedule(20, lambda: None)
        sim.cancel(drop)
        assert sim.pending_events == 1

    def test_stopped_run_until_leaves_the_clock_at_the_last_fired_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, sim.stop)
        sim.schedule(20, lambda: seen.append(sim.now))
        sim.run_until(100)
        assert sim.now == 10 and sim.pending_events == 1
        # t=15: must fire before the event still queued at t=20.
        sim.schedule(5, lambda: seen.append(sim.now))
        sim.run_until(200)
        assert seen == [15, 20]
        assert sim.now == 200

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: (seen.append(1), sim.stop()))
        sim.schedule(20, seen.append, 2)
        sim.run()
        assert seen == [(1, None)] or len(seen) == 1


class TestCompaction:
    def test_compaction_triggers_under_cancel_churn(self, monkeypatch):
        monkeypatch.setattr(engine_module, "COMPACTION_THRESHOLD", 8)
        sim = Simulator()
        handles = [sim.schedule(1000 + i, lambda: None) for i in range(32)]
        for handle in handles[:24]:
            sim.cancel(handle)
        assert sim.compactions >= 1
        assert sim.pending_events + sim._cancelled_in_queue == 8
        assert sim.pending_events == 8

    def test_compaction_preserves_fifo_tie_order(self, monkeypatch):
        # Survivors of a compaction must still fire in scheduling order,
        # including same-timestamp ties.
        monkeypatch.setattr(engine_module, "COMPACTION_THRESHOLD", 4)
        sim = Simulator()
        order = []
        handles = [sim.schedule(100, order.append, tag) for tag in range(40)]
        for tag in range(0, 40, 2):
            sim.cancel(handles[tag])
        assert sim.compactions >= 1
        sim.run()
        assert order == list(range(1, 40, 2))

    def test_compaction_is_invisible_to_execution_order(self):
        # The same cancel-heavy workload with aggressive and disabled
        # compaction fires the identical event sequence.
        def run(threshold):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine_module, "COMPACTION_THRESHOLD", threshold)
                return drive(Simulator())

        def drive(sim):
            order = []
            handles = {}

            def work(i):
                order.append(i)
                stale = handles.pop(i - 2, None)
                if stale is not None:
                    sim.cancel(stale)
                if i < 200:
                    handles[i] = sim.schedule(50 + (i % 3), work, i + 1)

            sim.schedule(0, work, 0)
            sim.run()
            return order

        assert run(1) == run(10**9)

    def test_watchdog_churn_keeps_heap_bounded(self):
        # Orion's watchdog pattern: every response cancels and re-arms a
        # timeout, so nearly every scheduled event is cancelled. Without
        # compaction the queue grows with the response count; with it the
        # queued entries, live or cancelled, stay around the compaction
        # threshold.
        responses = 5_000
        sim = Simulator()
        state = {"left": responses, "watchdog": None, "max_heap": 0}

        def on_timeout():
            pass

        def on_response():
            if state["watchdog"] is not None:
                sim.cancel(state["watchdog"])
            state["watchdog"] = sim.schedule(1_000_000, on_timeout)
            state["max_heap"] = max(
                state["max_heap"], sim.pending_events + sim._cancelled_in_queue
            )
            if state["left"] > 0:
                state["left"] -= 1
                sim.schedule(1_000, on_response)

        sim.schedule(0, on_response)
        sim.run()
        assert sim.compactions > 0
        # Bounded by ~2x threshold plus the couple of live events, far
        # below the ~5000 entries an uncompacted heap would reach.
        assert state["max_heap"] <= 2 * engine_module.COMPACTION_THRESHOLD + 4
        assert sim.events_processed == responses + 2  # responses + final timeout

    def test_cancel_after_fire_does_not_corrupt_accounting(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        live = sim.schedule(20, lambda: None)
        sim.run_until(15)
        sim.cancel(handle)  # Fired already: must not count as queued garbage.
        sim.cancel(handle)
        assert sim.pending_events == 1
        assert live[3] is not None

    def test_run_until_leaves_no_cancelled_entries_behind_compaction(self, monkeypatch):
        # Cancelled entries beyond the run_until horizon are reclaimed by
        # later compactions rather than lingering forever.
        monkeypatch.setattr(engine_module, "COMPACTION_THRESHOLD", 4)
        sim = Simulator()
        far = [sim.schedule(10_000 + i, lambda: None) for i in range(16)]
        sim.schedule(10, lambda: None)
        sim.run_until(100)
        for handle in far:
            sim.cancel(handle)
        assert sim._cancelled_in_queue == 0 and not sim._buckets
        assert sim.pending_events == 0


class TestPeriodicTieOrder:
    """Periodic occurrences and one-shot events share one (time, tie, seq)
    order: the order the legacy engine's self-rescheduling periodics
    produce."""

    def test_cancelled_periodic_leaves_the_order_of_the_rest_intact(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(100, lambda: fired.append("dead"), first_at=50).cancel()
        sim.schedule_periodic(100, lambda: fired.append(("p", sim.now)), first_at=80)
        for when in (40, 60, 80, 90):
            sim.at(when, lambda: fired.append(("h", sim.now)))
        sim.run_until(95)
        assert fired == [("h", 40), ("h", 60), ("p", 80), ("h", 80), ("h", 90)]

    LANES = 3
    PERIOD = 100
    ROUNDS = 6

    def _program(self, sim, log):
        """Periodic lanes, one-shot events landing exactly on their
        occurrence times (scheduled before and after the lanes are armed)
        and one-shot events strictly between."""
        for k in range(self.LANES):
            sim.at(2 * self.PERIOD, log.append, (f"early{k}", 2 * self.PERIOD))
        for lane in range(self.LANES):
            sim.schedule_periodic(
                self.PERIOD, lambda lane=lane: log.append((f"w{lane}", sim.now))
            )
        for r in range(1, self.ROUNDS + 1):
            for k in range(self.LANES):
                sim.at(r * self.PERIOD, log.append, (f"h{k}", r * self.PERIOD))
                sim.at(r * self.PERIOD + 37, log.append, (f"b{k}", r * self.PERIOD + 37))
        sim.run_for(self.PERIOD * self.ROUNDS + 50)
        return log

    def test_fifo_tie_order_matches_the_legacy_engine(self):
        assert self._program(Simulator(), []) == self._program(LegacySimulator(), [])

    @pytest.mark.parametrize("seed", (1, 7, 2024))
    def test_shuffled_tie_order_matches_heap_self_rescheduling(self, seed):
        """The legacy periodic idiom (the callback's wrapper re-schedules
        itself, then runs it) draws the same tie keys in the same order as
        the engine's own re-arm."""
        live = self._program(Simulator(tie_shuffle_seed=seed), [])

        class SelfRescheduling(Simulator):
            schedule_periodic = LegacySimulator.schedule_periodic

        legacy_idiom = self._program(SelfRescheduling(tie_shuffle_seed=seed), [])
        assert live == legacy_idiom
        assert live != self._program(Simulator(), [])


def test_no_scheduling_call_passes_a_label():
    """An event carries no label: no ``schedule`` / ``at`` /
    ``schedule_periodic`` call under ``src/`` passes ``label=``, and the
    engine refuses one."""
    labelled = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULING_CALLS
                and any(keyword.arg == "label" for keyword in node.keywords)
            ):
                labelled.append(f"{module}:{node.lineno}")
    assert labelled == []
    sim = Simulator()
    for call in (
        lambda: sim.schedule(1, print, label="x"),
        lambda: sim.at(1, print, label="x"),
        lambda: sim.schedule_periodic(1, print, label="x"),
    ):
        with pytest.raises(TypeError, match="label"):
            call()
    assert not sim._buckets


class TestBatchedRng:
    def test_batched_integers_matches_scalar_sequence(self):
        batched = BatchedIntegers(np.random.Generator(np.random.PCG64(7)), 0, 1 << 32)
        scalar = np.random.Generator(np.random.PCG64(7))
        assert [batched.draw() for _ in range(1000)] == [
            int(scalar.integers(0, 1 << 32)) for _ in range(1000)
        ]


class TestPeriodicProcess:
    def test_ticks_at_fixed_period(self):
        sim = Simulator()
        times = []

        class Ticker(PeriodicProcess):
            def on_tick(self, tick):
                times.append((tick, self.sim.now))

        Ticker(sim, "t", period=100)
        sim.run_until(350)
        assert times == [(0, 0), (1, 100), (2, 200), (3, 300)]

    def test_stop_cancels_future_ticks(self):
        sim = Simulator()
        count = []

        class Ticker(PeriodicProcess):
            def on_tick(self, tick):
                count.append(tick)
                if tick == 2:
                    self.stop()

        Ticker(sim, "t", period=10)
        sim.run_until(1000)
        assert count == [0, 1, 2]

    def test_invalid_period_rejected(self):
        sim = Simulator()

        class Ticker(PeriodicProcess):
            def on_tick(self, tick):
                pass

        with pytest.raises(ValueError):
            Ticker(sim, "t", period=0)

    def test_start_offset_shifts_first_tick(self):
        sim = Simulator()
        times = []

        class Ticker(PeriodicProcess):
            def on_tick(self, tick):
                times.append(self.sim.now)

        Ticker(sim, "t", period=100, start_offset=37)
        sim.run_until(250)
        assert times == [37, 137, 237]


class TestUnits:
    def test_round_trips(self):
        assert s_to_ns(6.2) == int(6.2 * SECOND)
        assert ns_to_us(1500) == 1.5
        assert ns_to_ms(2 * MS) == 2.0


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(seed=7)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_independent_of_request_order(self):
        r1 = RngRegistry(seed=7)
        r2 = RngRegistry(seed=7)
        _ = r2.stream("other")  # Extra stream requested first.
        assert r1.stream("chan").random() == r2.stream("chan").random()

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x").random()
        b = RngRegistry(seed=2).stream("x").random()
        assert a != b

    def test_different_names_differ(self):
        registry = RngRegistry(seed=3)
        assert registry.stream("x").random() != registry.stream("y").random()


def draw_from(module, registry, name):
    """``registry.stream(name)`` called from code whose module is ``module``."""
    scope = {"__name__": module, "registry": registry}
    exec(f"drawn = registry.stream({name!r})", scope)
    return scope["drawn"]


class TestStreamOwnership:
    """``RngRegistry.stream`` refuses a ``repro`` caller the namespace
    table (``NAMESPACES``) does not let draw the stream — what the
    STREAM002-004 rules used to approximate from the source."""

    def test_namespace_table(self):
        assert namespace_head("faults.link.fh") == "faults"
        assert namespace_head("phy3") == "phy"
        assert namespace_head("ue12.channel") == "ue"
        assert namespace_head("p4") == "p4"
        assert {"faults", "phy", "core", "ue", "app", "perf", "fleet"} <= set(NAMESPACES)
        assert {head for head, (_, strict) in NAMESPACES.items() if strict} == {
            "faults", "fleet", "perf",
        }
        assert COMPOSITION_ROOTS == {"cell", "experiments"}

    @pytest.mark.parametrize(
        "module, name, reason",
        [
            ("repro.telemetry.collect", "ue1.channel", "owned by 'cell'"),
            ("repro.apps.video", "ue1.channel", "owned by 'cell'"),
            ("repro.cell.deployment", "faults.x", "strict faults.* namespace"),
            ("repro.experiments.fig9_ping", "fleet.tracers", "strict fleet.*"),
            ("repro.faults.injector", "channel.snr", "'channel' has no owner"),
            ("repro.phy.channel", "channel.snr", "'channel' has no owner"),
            ("repro.telemetry.collect", "telemetry", "'telemetry' has no owner"),
        ],
    )
    def test_foreign_or_undeclared_draw_refused(self, module, name, reason):
        with pytest.raises(ValueError) as refused:
            draw_from(module, RngRegistry(seed=1), name)
        message = str(refused.value)
        assert reason in message and repr(name) in message and module in message

    def test_one_name_one_subsystem_per_registry(self):
        registry = RngRegistry(seed=1)
        shared = draw_from("repro.cell.deployment", registry, "app.shared")
        assert draw_from("repro.cell.other", registry, "app.shared") is shared
        with pytest.raises(ValueError, match="already handed it to 'cell'"):
            draw_from("repro.apps.video", registry, "app.shared")
        # Another registry is another seed universe.
        draw_from("repro.apps.video", RngRegistry(seed=1), "app.shared")

    def test_first_repro_acquirer_is_recorded_after_an_exempt_one(self):
        registry = RngRegistry(seed=1)
        draw_from("tests.test_sim_engine", registry, "app.shared")
        draw_from("repro.cell.deployment", registry, "app.shared")
        with pytest.raises(ValueError, match="already handed it to 'cell'"):
            draw_from("repro.apps.video", registry, "app.shared")

    def test_callers_outside_the_package_are_exempt(self):
        registry = RngRegistry(seed=1)
        for module in ("tests.corpora", "__main__", "workloads", "repro"):
            for name in ("perf.ldpc", "faults.x", "channel.snr"):
                draw_from(module, registry, name)

    def test_composition_roots_wire_non_strict_namespaces(self):
        registry = RngRegistry(seed=1)
        draw_from("repro.cell.deployment", registry, "ue1.channel")
        draw_from("repro.cell.deployment", registry, "core.attach")
        draw_from("repro.experiments.fig8_video", registry, "app.video.video")
        draw_from("repro.faults.injector", registry, "faults.link.fh")
        draw_from("repro.fleet.population", registry, "fleet.tracers")


REFUSED_TIME = "must be integer nanoseconds"

#: The retired TIM / TIMX rules' corpus, run instead of read: (case,
#: source defining ``f(sim, *args)`` or acting at module level, args,
#: refused). A comment silences no runtime check: the scheduler refuses
#: a suppressed case like any other. A flow the rules followed only to a
#: binding is carried on to the scheduler call it would have reached.
TIME_CORPUS = [
    ("tim001_float_literal_delay", "def f(sim):\n    sim.schedule(1.5, print)\n", (), True),
    ("tim001_float_inside_expression", "def f(sim, n):\n    sim.at(n * 0.5, print)\n", (4,), True),
    (
        "tim001_converted_float_allowed",
        "from repro.sim.units import s_to_ns\n"
        "def f(sim):\n"
        "    sim.schedule(s_to_ns(1.5), print)\n",
        (),
        False,
    ),
    (
        "tim001_suppressed",
        "def f(sim):\n    sim.schedule(1.5, print)  # slinglint: disable=TIMX001\n",
        (),
        True,
    ),
    ("tim002_magic_duration", "def f(sim):\n    sim.schedule(500_000, print)\n", (), False),
    ("tim002_small_offsets_allowed", "def f(sim):\n    sim.schedule(100, print)\n", (), False),
    (
        "tim002_units_expression_allowed",
        "from repro.sim.units import US\n"
        "def f(sim):\n"
        "    sim.schedule(500 * US, print)\n",
        (),
        False,
    ),
    (
        "tim003_seconds_identifier_into_scheduler",
        "def f(sim, duration_s):\n    sim.run_for(duration_s)\n",
        (2.0,),
        True,
    ),
    (
        "tim003_seconds_attribute_into_boundary_helper",
        "def f(sim, config):\n    sim.run_for(config.gap_seconds)\n",
        (SimpleNamespace(gap_seconds=0.5),),
        True,
    ),
    (
        "tim003_converted_seconds_allowed",
        "from repro.sim.units import seconds\n"
        "def f(sim, duration_s):\n"
        "    sim.run_for(seconds(duration_s))\n",
        (2e-6,),
        False,
    ),
    (
        "tim003_ns_identifier_allowed",
        "def f(sim, duration_ns):\n    sim.run_for(duration_ns)\n",
        (2_000,),
        False,
    ),
    (
        "tim003_suppressed",
        "def f(sim, delay_s):\n"
        "    sim.schedule(delay_s, print)  # slinglint: disable=TIMX001\n",
        (0.5,),
        True,
    ),
    (
        "timx001_renamed_local_reaches_sink",
        "def f(sim):\n"
        "    delay_s = 0.5\n"
        "    wait = delay_s\n"
        "    sim.schedule(wait, print)\n",
        (),
        True,
    ),
    (
        "timx001_seconds_returned_from_helper",
        "def gap():\n"
        "    gap_seconds = 2.5\n"
        "    return gap_seconds\n"
        "def f(sim):\n"
        "    sim.schedule(gap(), print)\n",
        (),
        True,
    ),
    (
        "timx001_tainted_argument_crosses_call",
        "def helper(sim, delay):\n"
        "    sim.schedule(delay, print)\n"
        "def f(sim, timeout_s):\n"
        "    helper(sim, timeout_s)\n",
        (1.0,),
        True,
    ),
    (
        "timx001_two_hop_chain",
        "def inner(sim, d):\n"
        "    sim.schedule(d, print)\n"
        "def middle(sim, v):\n"
        "    inner(sim, v)\n"
        "def f(sim):\n"
        "    interval_s = 1.5\n"
        "    middle(sim, interval_s)\n",
        (),
        True,
    ),
    (
        "timx001_ns_to_s_result_is_tainted",
        "from repro.sim.units import ns_to_s\n"
        "def f(sim, t_ns):\n"
        "    sim.schedule(ns_to_s(t_ns), print)\n",
        (2 * SECOND,),
        True,
    ),
    (
        "timx001_sanitized_flow_clean",
        "def helper(sim, delay):\n"
        "    sim.schedule(delay, print)\n"
        "def f(sim, timeout_s):\n"
        "    helper(sim, int(timeout_s * 1e9))\n",
        (1e-6,),
        False,
    ),
    (
        "timx001_converted_local_clean",
        "from repro.sim.units import seconds\n"
        "def f(sim, delay_s):\n"
        "    wait = seconds(delay_s)\n"
        "    sim.schedule(wait, print)\n",
        (1e-6,),
        False,
    ),
    (
        "timx001_does_not_duplicate_tim003",
        "def f(sim, duration_s):\n"
        "    sim.run_for(duration_s)\n"
        "    sim.run_for(duration_s)\n",
        (1.0,),
        True,
    ),
    ("timx001_sees_module_level", "sim.schedule(1.5, print)\n", (), True),
    (
        "timx001_sees_closures",
        "def f(sim, delay_s):\n"
        "    def later():\n"
        "        sim.schedule(delay_s, print)\n"
        "    sim.schedule(1, later)\n",
        (0.5,),
        True,
    ),
    (
        "timx001_sees_lambdas",
        "def f(sim):\n    sim.schedule(1, lambda: sim.at(sim.now + 0.5, print))\n",
        (),
        True,
    ),
    (
        "timx001_literal_does_not_taint_the_object_it_configures",
        "def f(sim, make):\n"
        "    cell = make(snr_db=16.0)\n"
        "    sim.schedule(6 * cell.slot_ns, print)\n",
        (lambda snr_db: SimpleNamespace(snr_db=snr_db, slot_ns=500 * US),),
        False,
    ),
    (
        "timx001_suppressed",
        "def f(sim):\n"
        "    delay_s = 0.5\n"
        "    wait = delay_s\n"
        "    sim.schedule(wait, print)  # slinglint: disable=TIMX001\n",
        (),
        True,
    ),
    (
        "timx002_seconds_bound_to_ns_name",
        "def f(sim, timeout_s):\n"
        "    timeout_ns = timeout_s\n"
        "    sim.schedule(timeout_ns, print)\n",
        (0.5,),
        True,
    ),
    (
        "timx002_converted_binding_clean",
        "from repro.sim.units import seconds\n"
        "def f(sim, timeout_s):\n"
        "    timeout_ns = seconds(timeout_s)\n"
        "    sim.schedule(timeout_ns, print)\n",
        (1e-6,),
        False,
    ),
    (
        "integral_float_interval_divided_by_one",
        "def f(sim, interval_ns):\n    sim.schedule(interval_ns / 1, print)\n",
        (MS,),
        True,
    ),
]

#: The retired STREAM / OBS001 rules' corpus, run instead of read: (case,
#: draws, refusal). Each draw is (calling module, source defining
#: ``f(rng, *args)``, args), all on one registry; ``refusal`` is a piece
#: of the last draw's ``ValueError``, or ``None`` when every draw passes.
#: A runtime name is always concrete, so STREAM001's dynamic names are
#: checked by what they evaluate to.
DRAW = 'def f(rng, name):\n    return rng.stream(name)\n'
STREAM_CORPUS = [
    (
        "stream_namespaced_draw_in_owner_allowed",
        [("repro.faults.injector", 'def f(rng):\n    return rng.stream("faults.link.fh")\n', ())],
        None,
    ),
    (
        "stream_fstring_prefix_allowed",
        [(
            "repro.faults.injector",
            'def f(rng, link):\n    return rng.stream(f"faults.link.{link.name}")\n',
            (SimpleNamespace(name="fh"),),
        )],
        None,
    ),
    (
        "stream001_dynamic_name_owned",
        [("repro.faults.link_faults", DRAW, ("faults.link.fh",))],
        None,
    ),
    (
        "stream001_dynamic_name_foreign",
        [("repro.faults.link_faults", DRAW, ("ue1.channel",))],
        "owned by 'cell'",
    ),
    (
        "stream001_fstring_without_static_prefix",
        [("repro.faults.injector", 'def f(rng, name):\n    return rng.stream(f"{name}.jitter")\n', ("app",))],
        "owned by 'apps'",
    ),
    (
        "stream002_undeclared_namespace_in_faults",
        [("repro.faults.injector", DRAW, ("channel.snr",))],
        "'channel' has no owner",
    ),
    (
        "stream002_undeclared_namespace_in_phy",
        [("repro.phy.channel", DRAW, ("channel.snr",))],
        "'channel' has no owner",
    ),
    (
        "stream003_strict_namespace_owner_only",
        [("repro.cell.deployment", DRAW, ("faults.link.fh",))],
        "strict faults.* namespace",
    ),
    (
        "stream003_composition_root_may_wire_non_strict",
        [("repro.cell.deployment", DRAW, ("ue1.channel",))],
        None,
    ),
    (
        "stream003_foreign_subsystem_draw_flagged",
        [("repro.apps.video", DRAW, ("ue1.channel",))],
        "owned by 'cell'",
    ),
    (
        "stream_suppressed",
        [(
            "repro.faults.injector",
            "def f(rng, name):\n"
            "    return rng.stream(name)  # slinglint: disable=STREAM001\n",
            ("channel.snr",),
        )],
        "'channel' has no owner",
    ),
    (
        "stream003_fleet_draw_outside_fleet_flagged",
        [("repro.ue.rogue", DRAW, ("fleet.tracers",))],
        "strict fleet.* namespace",
    ),
    (
        "stream003_fleet_draw_inside_fleet_clean",
        [("repro.fleet.sampling", DRAW, ("fleet.tracers",))],
        None,
    ),
    (
        "obs001_rng_stream_acquisition_in_telemetry",
        [("repro.telemetry.collect", 'def f(registry):\n    return registry.stream("telemetry")\n', ())],
        "'telemetry' has no owner",
    ),
    (
        "stream004_cross_subsystem_collision",
        [
            ("repro.apps.a", DRAW, ("app.shared",)),
            ("repro.cell.b", DRAW, ("app.shared",)),
        ],
        "already handed it to 'apps'",
    ),
    (
        "stream004_private_registry_does_not_collide",
        [
            (
                "repro.apps.a",
                "from repro.sim.rng import RngRegistry\n"
                "def f(rng):\n"
                '    return RngRegistry(seed=0).stream("app.shared")\n',
                (),
            ),
            ("repro.cell.b", DRAW, ("app.shared",)),
        ],
        None,
    ),
    (
        "prefix_sites_collide_with_exact_names",
        [
            ("repro.apps.a", 'def f(rng, i):\n    return rng.stream(f"app.flow{i}")\n', (3,)),
            ("repro.cell.b", DRAW, ("app.flow3",)),
        ],
        "already handed it to 'apps'",
    ),
]


class TestRetiredLintCorpus:
    """Every case of the retired TIM / TIMX / STREAM / OBS001 rules'
    tests, executed against the runtime check that replaced the rule: a
    case a rule flagged raises, a case it passed runs, and a suppression
    comment changes neither."""

    @staticmethod
    def run_time_case(source, args):
        sim = Simulator()
        scope = {"__name__": "repro.apps.corpus", "sim": sim}
        exec(source, scope)
        if "f" in scope:
            scope["f"](sim, *args)
        sim.run()
        return sim

    @pytest.mark.parametrize(
        "source, args, refused",
        [case[1:] for case in TIME_CORPUS],
        ids=[case[0] for case in TIME_CORPUS],
    )
    def test_time_case(self, source, args, refused):
        if refused:
            with pytest.raises(SimulationError, match=REFUSED_TIME):
                self.run_time_case(source, args)
        else:
            sim = self.run_time_case(source, args)
            assert sim.now > 0 and sim.pending_events == 0

    @pytest.mark.parametrize(
        "draws, refusal",
        [case[1:] for case in STREAM_CORPUS],
        ids=[case[0] for case in STREAM_CORPUS],
    )
    def test_stream_case(self, draws, refusal):
        registry = RngRegistry(seed=1)
        *before, (module, source, args) = draws
        for earlier in before:
            self.draw(registry, *earlier)
        if refusal is None:
            assert self.draw(registry, module, source, args) is not None
            return
        with pytest.raises(ValueError) as refused:
            self.draw(registry, module, source, args)
        assert refusal in str(refused.value) and module in str(refused.value)

    @staticmethod
    def draw(registry, module, source, args):
        scope = {"__name__": module}
        exec(source, scope)
        return scope["f"](registry, *args)


class TestTraceRecorder:
    def test_records_and_indexes_by_category(self):
        trace = TraceRecorder()
        trace.record(10, "a", value=1)
        trace.record(20, "b", value=2)
        trace.record(30, "a", value=3)
        assert [e.time for e in trace.events("a")] == [10, 30]
        assert trace.count("b") == 1
        assert trace.last("a")["value"] == 3

    def test_disabled_recorder_drops_events(self):
        trace = TraceRecorder()
        trace.enabled = False
        trace.record(1, "x")
        assert len(trace) == 0

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(1, "x")
        trace.clear()
        assert trace.count("x") == 0
        assert trace.categories() == []


def _windowed(window_ns):
    trace = TraceRecorder()
    trace.window_ns = window_ns
    return trace


class TestRollingDigest:
    """The bounded-memory digest contract behind soak runs.

    ``rolling_digest()`` must equal the digest of a never-evicting
    recorder with the same ``window_ns``, and ``window_ns`` None must
    stay byte-identical to the historical flat SHA-256 (the recorded
    golden digests depend on that).
    """

    @staticmethod
    def _feed(trace, n=60, span=600):
        # Deterministic mixed-category events, deliberately recorded
        # out of time order within a window (canonical order fixes it).
        for i in range(n):
            t = (i * 37) % span
            trace.record(t, f"cat{i % 3}", seq=i, value=i * i)

    def test_windowed_digest_equals_flat_digest_structureless(self):
        # One window covering the whole trace == the flat digest.
        flat = TraceRecorder()
        wide = _windowed(10_000)
        self._feed(flat)
        self._feed(wide)
        assert wide.digest() == flat.digest()

    def test_eviction_preserves_rolling_digest(self):
        keep = _windowed(100)
        evicting = _windowed(100)
        self._feed(keep)
        self._feed(evicting)
        evicted = evicting.evict_before(400)
        assert evicted > 0
        assert evicting.evicted_events == evicted
        assert len(evicting) == len(keep) - evicted
        assert evicting.rolling_digest() == keep.rolling_digest()

    def test_incremental_eviction_matches_single_eviction(self):
        stepwise = _windowed(100)
        oneshot = _windowed(100)
        self._feed(stepwise)
        self._feed(oneshot)
        for horizon in (150, 320, 500):
            stepwise.evict_before(horizon)
        oneshot.evict_before(500)
        assert stepwise.rolling_digest() == oneshot.rolling_digest()
        assert stepwise.evicted_events == oneshot.evicted_events

    def test_recording_below_evicted_horizon_rejected(self):
        trace = _windowed(100)
        self._feed(trace)
        trace.evict_before(300)
        with pytest.raises(ValueError, match="evicted"):
            trace.record(150, "late")

    def test_evict_requires_window(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError, match="window_ns"):
            trace.evict_before(100)

    def test_window_size_changes_digest_but_not_equality(self):
        # Different window sizes chain differently (digests are only
        # comparable at equal window_ns), but each size is internally
        # deterministic.
        a100, b100 = _windowed(100), _windowed(100)
        a200 = _windowed(200)
        for trace in (a100, b100, a200):
            self._feed(trace)
        assert a100.digest() == b100.digest()
        assert a100.digest() != a200.digest()
