"""Telemetry subsystem tests.

Covers the three contract legs of :mod:`repro.telemetry`:

* **Zero cost when disabled** — components built outside ``enabled(...)``
  carry no registry handle at all.
* **Determinism** — snapshots are canonical (sorted keys), merges are a
  pure function of canonical shard order, and the report at ``--jobs 2``
  is byte-identical to ``--jobs 1``.
* **Digest neutrality** — instrumented runs reproduce the golden
  canonical-trace digests recorded with telemetry off.

Plus the timeline reconstructor (synthetic traces, round-trips, and the
paper's §5.2 detection-latency bound on a real crash failover).
"""

import json

import pytest

from repro.core.failure_detector import DetectorConfig, FailureDetector
from repro.sim.engine import Simulator
from repro.sim.trace import TraceEvent
from repro.sim.units import MS, US
from repro.telemetry import (
    EVENT_COUNTER_PREFIX,
    EventCountProbe,
    FailoverTimeline,
    MetricsRegistry,
    active,
    disable,
    enable,
    enabled,
    merge_snapshots,
)


class TestMetricsPrimitives:
    def test_counter_accumulates_and_is_shared_by_name(self):
        registry = MetricsRegistry()
        registry.counter("pkts").inc()
        registry.counter("pkts").inc(4)
        assert registry.counter("pkts").value == 5
        assert registry.counter("pkts") is registry.counter("pkts")

    def test_gauge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(1)
        assert registry.gauge("depth").value == 1

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (5, 1, 9):
            registry.histogram("lat").observe(value)
        assert registry.histogram("lat").summary() == {
            "count": 3,
            "min": 1,
            "max": 9,
            "sum": 15,
        }
        assert registry.histogram("empty").summary() == {"count": 0}

    def test_span_sorts_attrs_and_computes_duration(self):
        registry = MetricsRegistry()
        span = registry.span("recovery", 100, 350, seed=1, scenario="crash")
        assert span.duration_ns == 250
        assert span.attrs == (("scenario", "crash"), ("seed", 1))
        assert registry.spans == (span,)

    def test_snapshot_is_canonically_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        registry.histogram("m").observe(7)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["alpha", "zeta"]
        assert snapshot["histograms"]["m"]["observations"] == [7]
        # Canonical means JSON round-trip stable.
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestActiveRegistry:
    def test_disabled_by_default(self):
        disable()
        assert active() is None

    def test_enabled_scope_installs_and_restores(self):
        disable()
        with enabled() as registry:
            assert active() is registry
            with enabled() as inner:
                assert active() is inner
            assert active() is registry
        assert active() is None

    def test_enable_returns_the_installed_registry(self):
        mine = MetricsRegistry()
        try:
            assert enable(mine) is mine
            assert active() is mine
        finally:
            disable()

    def test_component_built_while_disabled_carries_no_registry(self):
        disable()
        detector = FailureDetector()
        assert detector._metrics is None

    def test_component_built_while_enabled_captures_registry(self):
        with enabled() as registry:
            detector = FailureDetector()
        assert detector._metrics is registry

    def test_detector_counts_ticks_resets_and_saturation(self):
        config = DetectorConfig(timeout_ns=450 * US, ticks_per_timeout=50)
        with enabled() as registry:
            detector = FailureDetector(config)
        detector.set_monitor(0, True)
        detector.on_heartbeat(0, 1000)
        for tick in range(config.ticks_per_timeout):
            detector.on_timer_tick(1000 + (tick + 1) * config.tick_period_ns)
        counters = registry.snapshot()["counters"]
        assert counters["detector.heartbeat_resets"] == 1
        assert counters["detector.ticks"] == config.ticks_per_timeout
        assert counters["detector.saturations"] == 1
        histogram = registry.snapshot()["histograms"][
            "detector.detection_latency_ns"
        ]
        assert histogram["count"] == 1
        assert histogram["observations"][0] == config.timeout_ns


class TestMergeSnapshots:
    def _snapshot(self, **counters):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.counter(name).inc(value)
        return registry.snapshot()

    def test_counters_add_and_resort(self):
        merged = merge_snapshots(
            [self._snapshot(b=2), self._snapshot(a=1, b=3)]
        )
        assert merged["counters"] == {"a": 1, "b": 5}
        assert list(merged["counters"]) == ["a", "b"]

    def test_histograms_concatenate_in_shard_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("lat").observe(10)
        second.histogram("lat").observe(3)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["histograms"]["lat"]["observations"] == [10, 3]
        assert merged["histograms"]["lat"]["count"] == 2
        assert merged["histograms"]["lat"]["min"] == 3

    def test_gauges_last_write_and_spans_concatenate(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("depth").set(9)
        first.span("s", 0, 10)
        second.gauge("depth").set(2)
        second.span("s", 10, 30)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["gauges"]["depth"] == 2
        assert [span["t_start_ns"] for span in merged["spans"]] == [0, 10]

    def test_merge_of_empty_is_empty(self):
        merged = merge_snapshots([])
        assert merged == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": [],
        }


class TestEventCountProbe:
    def _run_small_sim(self):
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.schedule(t, lambda: fired.append(sim.now))
        sim.run_until(100)
        return fired

    def test_counts_fired_events_and_restores_pop(self):
        original_pop = Simulator._pop
        with EventCountProbe() as probe:
            assert Simulator._pop is not original_pop
            self._run_small_sim()
        assert Simulator._pop is original_pop
        assert probe.total_events == 3

    def test_records_into_active_registry(self):
        with enabled() as registry:
            with EventCountProbe():
                self._run_small_sim()
        counters = registry.snapshot()["counters"]
        assert sum(
            value
            for name, value in counters.items()
            if name.startswith(EVENT_COUNTER_PREFIX)
        ) == 3

    def test_not_reentrant(self):
        with EventCountProbe() as probe:
            with pytest.raises(RuntimeError):
                probe.__enter__()

    def test_probe_without_registry_keeps_registry_empty(self):
        disable()
        with EventCountProbe() as probe:
            self._run_small_sim()
        assert probe.total_events == 3

    def test_subsystem_attribution(self):
        from repro.telemetry.probe import subsystem_of

        assert subsystem_of(Simulator.step) == "repro.sim"
        # Non-repro callables bill to their top-level module.
        probe = lambda: None  # noqa: E731
        assert subsystem_of(probe) == probe.__module__.split(".")[0]
        assert subsystem_of(int) == "builtins"


class TestFailoverTimeline:
    def _failover_events(self):
        return [
            TraceEvent(400 * MS, "chaos.rx"),
            TraceEvent(500 * MS, "phy.crash", {"phy_id": 0}),
            TraceEvent(500 * MS + 450 * US, "mbox.failure_detected"),
            TraceEvent(500 * MS + 500 * US, "orion.failure_notified"),
            TraceEvent(500 * MS + 600 * US, "orion.migration_started"),
            TraceEvent(500 * MS + 1 * MS, "mbox.migration_committed"),
            TraceEvent(510 * MS, "chaos.rx"),
            TraceEvent(512 * MS, "chaos.rx"),
        ]

    def test_anchors_and_decomposition(self):
        timeline = FailoverTimeline.from_events(
            self._failover_events(),
            window_start_ns=350 * MS,
            window_end_ns=1000 * MS,
        )
        assert timeline.fault_ns == 500 * MS
        assert timeline.detected_ns == 500 * MS + 450 * US
        assert timeline.notified_ns == 500 * MS + 500 * US
        assert timeline.committed_ns == 500 * MS + 1 * MS
        assert timeline.first_good_ns == 510 * MS
        assert timeline.detect_latency_ns == 450 * US
        assert timeline.notify_latency_ns == 50 * US
        assert timeline.commit_latency_ns == 500 * US
        assert timeline.resume_latency_ns == 9 * MS
        assert timeline.fault_to_first_good_ns == 10 * MS

    def test_downtime_is_the_invariant_probe_gap(self):
        """downtime_ns is RecoveryInvariants.max_probe_gap_ns, verbatim."""
        from repro.faults.invariants import RecoveryInvariants

        events = self._failover_events()
        timeline = FailoverTimeline.from_events(
            events, window_start_ns=350 * MS, window_end_ns=1000 * MS
        )
        gap = RecoveryInvariants(
            events,
            window_start_ns=350 * MS,
            window_end_ns=1000 * MS,
            downtime_budget_ns=None,
            expected_migrations=0,
        ).max_probe_gap_ns()
        assert timeline.downtime_ns == gap

    def test_link_noise_run_has_none_phases(self):
        events = [
            TraceEvent(400 * MS, "chaos.rx"),
            TraceEvent(420 * MS, "chaos.rx"),
        ]
        timeline = FailoverTimeline.from_events(
            events, window_start_ns=350 * MS, window_end_ns=1000 * MS
        )
        assert timeline.fault_ns is None
        assert timeline.detected_ns is None
        assert timeline.committed_ns is None
        assert timeline.first_good_ns is None
        assert timeline.detect_latency_ns is None

    def test_dict_round_trip(self):
        timeline = FailoverTimeline.from_events(
            self._failover_events(),
            window_start_ns=350 * MS,
            window_end_ns=1000 * MS,
        )
        data = json.loads(json.dumps(timeline.as_dict()))
        assert FailoverTimeline.from_dict(data) == timeline
        assert data["detect_latency_ns"] == timeline.detect_latency_ns


# ----------------------------------------------------------------------
# Full-cell runs: digest neutrality and the §5.2 latency bound (slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDigestNeutrality:
    def test_instrumented_chaos_run_reproduces_golden_digest(self):
        """Telemetry ON reproduces the digest recorded with telemetry OFF."""
        from repro.telemetry.runner import run_instrumented_scenario
        from tests.test_perf_digests import GOLDEN_DIGESTS

        run = run_instrumented_scenario("cmd_drop", 1)
        assert run["digest"] == GOLDEN_DIGESTS["chaos_cmd_drop"]
        assert run["invariants_passed"] is True
        # The run was actually instrumented, not silently disabled.
        counters = run["metrics"]["counters"]
        assert counters["detector.ticks"] > 0
        assert any(
            name.startswith(EVENT_COUNTER_PREFIX) for name in counters
        )

    def test_instrumented_perf_scenario_reproduces_golden_digest(self):
        from repro.perf.scenarios import scenario_digest
        from tests.test_perf_digests import GOLDEN_DIGESTS

        with enabled(), EventCountProbe():
            digest = scenario_digest("fig10_smoke")
        assert digest == GOLDEN_DIGESTS["fig10_smoke"]


@pytest.mark.slow
class TestInstrumentedFailover:
    @pytest.fixture(scope="class")
    def crash_run(self):
        from repro.telemetry.runner import run_instrumented_scenario

        return run_instrumented_scenario("crash", 1)

    def test_detection_latency_within_one_tick_of_timeout(self, crash_run):
        """§5.2: detection fires one timeout after the last heartbeat,
        quantized by the 9 µs tick — every observed latency sits within
        one tick of T = 450 µs."""
        config = DetectorConfig()
        histogram = crash_run["metrics"]["histograms"][
            "detector.detection_latency_ns"
        ]
        assert histogram["count"] >= 1
        for observed in histogram["observations"]:
            assert (
                abs(observed - config.timeout_ns) <= config.tick_period_ns
            ), f"detection latency {observed} ns vs T={config.timeout_ns} ns"

    def test_timeline_within_scenario_downtime_budget(self, crash_run):
        from repro.faults.scenarios import scenario_by_name

        budget = scenario_by_name()["crash"].downtime_budget_ns
        timeline = crash_run["timeline"]
        assert timeline["downtime_ns"] is not None
        assert timeline["downtime_ns"] <= budget
        # The decomposition is causally ordered.
        assert (
            timeline["fault_ns"]
            < timeline["detected_ns"]
            <= timeline["notified_ns"]
            <= timeline["committed_ns"]
            <= timeline["first_good_ns"]
        )

    def test_recovery_span_emitted(self, crash_run):
        spans = [
            span
            for span in crash_run["metrics"]["spans"]
            if span["name"] == "chaos.recovery"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["scenario"] == "crash"
        assert spans[0]["attrs"]["seed"] == 1


@pytest.mark.slow
class TestParallelNeutrality:
    def test_report_identical_at_jobs_1_and_2(self):
        from repro.telemetry.runner import run_telemetry

        serial = run_telemetry(["cmd_drop", "crash"], [1], jobs=1)
        parallel = run_telemetry(["cmd_drop", "crash"], [1], jobs=2)
        serial.pop("execution")
        parallel.pop("execution")
        assert serial == parallel


@pytest.mark.slow
class TestTelemetryCli:
    def test_list_exits_zero(self, capsys):
        from repro.telemetry.runner import main

        assert main(["--list"]) == 0
        assert "cmd_drop" in capsys.readouterr().out

    def test_check_quick_gate_passes(self, capsys):
        """The tier-1 gate: quick matrix vs the recorded baseline."""
        from repro.telemetry.runner import main

        assert main(["--check", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "telemetry check passed" in out
        assert "0 digest-neutrality failures" in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        from repro.telemetry.runner import main

        assert main(["--scenario", "nonsense"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
