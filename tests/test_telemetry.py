"""Telemetry subsystem tests.

Covers the contract of :mod:`repro.telemetry`:

* **The collector** — ``collect`` publishes every ``*Stats`` object a
  probe harness holds (a new one cannot be forgotten silently), looking
  mid-run changes neither the digest nor the final reading, and a
  rebuilt component's names start over.
* **Determinism** — snapshots are canonical (sorted names, zeros left
  out) and merges are a pure function of canonical shard order
  (``tests/test_harness_contract.py`` runs the report at jobs 1 / 2 / 4).
* **Digest neutrality** — probed, read runs reproduce the golden
  canonical-trace digests of plain runs.

Plus the timeline reconstructor (synthetic traces, round-trips, and the
paper's §5.2 detection-latency bound on a real crash failover).
"""

import dataclasses
import json

import pytest

from repro.checkpoint.snapshot import iter_object_graph
from repro.core.failure_detector import DetectorConfig
from repro.faults.campaign import build_probe_harness, drive_to, recorded_digests
from repro.faults.scenarios import RUN_END_NS, scenario_by_name
from repro.sim.engine import Simulator
from repro.sim.trace import TraceEvent
from repro.sim.units import MS, US
from repro.telemetry import (
    EVENT_COUNTER_PREFIX,
    EventCountProbe,
    FailoverTimeline,
    collect,
    merge_snapshots,
    snapshot,
    stats_objects,
)
from repro.telemetry.runner import QUICK_SCENARIOS


class TestSnapshot:
    def test_is_sorted_and_leaves_out_what_reads_zero(self):
        taken = snapshot({"zeta": 2, "idle": 0, "alpha": 1.5}, {"lat": [7], "none": []})
        assert list(taken["counters"]) == ["alpha", "zeta"]
        assert taken["histograms"] == {
            "lat": {"count": 1, "min": 7, "max": 7, "sum": 7, "observations": [7]}
        }
        # Canonical means JSON round-trip stable.
        assert json.loads(json.dumps(taken)) == taken


class TestMergeSnapshots:
    def test_counters_add_and_resort(self):
        merged = merge_snapshots(
            [snapshot({"b": 2}, {}), snapshot({"a": 1, "b": 3}, {})]
        )
        assert merged["counters"] == {"a": 1, "b": 5}
        assert list(merged["counters"]) == ["a", "b"]

    def test_histograms_concatenate_in_shard_order(self):
        merged = merge_snapshots(
            [snapshot({}, {"lat": [10]}), snapshot({}, {"lat": [3]})]
        )
        assert merged["histograms"]["lat"]["observations"] == [10, 3]
        assert merged["histograms"]["lat"]["count"] == 2
        assert merged["histograms"]["lat"]["min"] == 3

    def test_merge_of_empty_is_empty(self):
        assert merge_snapshots([]) == {"counters": {}, "histograms": {}}


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

    def test_not_reentrant(self):
        with EventCountProbe() as probe:
            with pytest.raises(RuntimeError):
                probe.__enter__()

    def test_subsystem_attribution(self):
        from repro.telemetry.probe import subsystem_of

        assert subsystem_of(Simulator.step) == "repro.sim"
        # Non-repro callables bill to their top-level module.
        probe = lambda: None  # noqa: E731
        assert subsystem_of(probe) == probe.__module__.split(".")[0]
        assert subsystem_of(int) == "builtins"


def _is_stats(obj) -> bool:
    return dataclasses.is_dataclass(obj) and type(obj).__name__.endswith("Stats")


@pytest.mark.slow
class TestCollector:
    def test_every_stats_object_of_a_harness_is_published(self):
        """Completeness: whatever ``*Stats`` dataclass instance the
        checkpoint walker finds in a built-and-run harness (link faults
        armed, so ``ImpairmentStats`` exist), ``collect`` reads — a new
        Stats class or a new component cannot be forgotten silently."""
        harness = build_probe_harness(1, plan=scenario_by_name()["fh_loss"].plan)
        drive_to(harness, 30 * MS)
        published = list(stats_objects(harness))
        prefixes = [prefix for prefix, _ in published]
        assert len(set(prefixes)) == len(prefixes)
        assert all(_is_stats(stats) for _, stats in published)
        reachable = [obj for obj in iter_object_graph(harness) if _is_stats(obj)]
        assert {type(obj).__name__ for obj in reachable} >= {
            "ImpairmentStats", "UdpFlowStats", "RlcTxStats", "HarqCombineStats"
        }
        ids = {id(stats) for _, stats in published}
        assert [obj for obj in reachable if id(obj) not in ids] == []
        reading = collect(harness)
        assert list(reading) == sorted(reading)
        assert len(reading) == sum(
            len(dataclasses.fields(stats)) for _, stats in published
        ) + len(harness.cell.phy_servers) + 2

    @pytest.mark.parametrize("name", QUICK_SCENARIOS)
    def test_reading_is_neutral(self, name):
        """A ``collect`` at every 10 ms pause reproduces the recorded chaos
        digest and the final reading of a run nobody looked at."""
        scenario = scenario_by_name()[name]
        watched, unwatched = (
            build_probe_harness(
                1, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
            )
            for _ in range(2)
        )
        looks = []
        for until in range(10 * MS, RUN_END_NS + 1, 10 * MS):
            drive_to(watched, until)
            looks.append(collect(watched))
        drive_to(unwatched, RUN_END_NS)
        assert watched.cell.sim.now == RUN_END_NS
        assert watched.cell.trace.digest() == recorded_digests()[(name, 1)]
        assert looks[-1] == collect(unwatched)
        assert looks[0] != looks[-1]

    def test_a_rebuilt_component_starts_over(self):
        """The rule interval rows must start from (``collect``'s
        docstring): a restarted PHY gets a fresh codec, so a name's
        reading can drop between two looks."""
        scenario = scenario_by_name()["crash_restart"]
        (fault,) = scenario.plan.process_faults
        harness = build_probe_harness(1, plan=scenario.plan)
        drive_to(harness, fault.at_ns + fault.duration_ns - 1 * MS)
        before = collect(harness)["phy.phy0.codec.blocks_decoded"]
        drive_to(harness, RUN_END_NS)
        after = collect(harness)["phy.phy0.codec.blocks_decoded"]
        assert 0 <= after < before


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
        """A probed, read run reproduces the plain run's golden digest."""
        from repro.telemetry.runner import run_instrumented_scenario
        from tests.test_perf_digests import GOLDEN_DIGESTS

        run = run_instrumented_scenario("cmd_drop", 1)
        assert run["digest"] == GOLDEN_DIGESTS["chaos_cmd_drop"]
        assert run["invariants_passed"] is True
        # The run was actually probed and read.
        counters = run["metrics"]["counters"]
        assert counters["core.detector.ticks_processed"] > 0
        assert any(
            name.startswith(EVENT_COUNTER_PREFIX) for name in counters
        )

    def test_instrumented_perf_scenario_reproduces_golden_digest(self):
        from repro.perf.scenarios import scenario_digest
        from tests.test_perf_digests import GOLDEN_DIGESTS

        with EventCountProbe():
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
            "core.detector.detection_latency_ns"
        ]
        assert histogram["count"] >= 1
        for observed in histogram["observations"]:
            assert (
                abs(observed - config.timeout_ns) <= config.tick_period_ns
            ), f"detection latency {observed} ns vs T={config.timeout_ns} ns"

    def test_timeline_within_scenario_downtime_budget(self, crash_run):
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

    def test_the_absorption_story_is_readable(self, crash_run):
        """§4: the failover is absorbed by HARQ / MAC / the RU, and one
        run's snapshot says so, layer by layer."""
        counters = crash_run["metrics"]["counters"]
        for name in (
            "phy.phy1.harq.lost_to_migration",
            "l2.mac0.ul_dtx_timeouts",
            "l2.mac0.ul_retx_granted",
            "fronthaul.ru0.slots_without_control",
            "transport.udp.probe.tx.packets_sent",
            "transport.udp.probe.rx.packets_received",
        ):
            assert counters[name] > 0, name
        assert 0 not in counters.values()


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
