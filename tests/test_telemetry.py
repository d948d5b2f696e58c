"""Telemetry library tests.

Covers the contract of :mod:`repro.telemetry`:

* **The collector** — ``collect`` publishes every ``*Stats`` object a
  probe harness holds (a new one cannot be forgotten silently), looking
  mid-run changes neither the digest nor the final reading, and a
  rebuilt component's names start over.
* **The timeline reconstructor** — synthetic traces, and the paper's
  §5.2 detection-latency bound, §4 absorption counters and causal order
  read off one chaos run's record (``faults.campaign.ScenarioRun``).
* **The recorded matrix** — every record in ``BENCH_chaos.json`` tells
  one consistent failover story.
"""

import dataclasses
import json

import pytest

from repro.checkpoint.snapshot import iter_object_graph
from repro.core.failure_detector import DetectorConfig
from repro.faults.campaign import (
    build_probe_harness,
    drive_to,
    judge_execution,
)
from repro.faults.scenarios import RUN_END_NS, scenario_by_name
from repro.harness import bench_path, load_baseline
from repro.sim.trace import TraceEvent
from repro.sim.units import MS, US
from repro.telemetry import FailoverTimeline, collect, stats_objects


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
        ) + len(harness.cell.phy_servers) + 3

    @pytest.mark.parametrize("name", ("cmd_drop", "crash", "no_secondary"))
    def test_reading_is_neutral(self, name, recorded_runs):
        """A ``collect`` at every 10 ms pause reproduces the recorded chaos
        digest, and the final look's non-zero names are the recorded
        record's ``counters`` (the end-of-run reading of a run nobody
        looked at, as ``TestInstrumentedFailover`` pins)."""
        scenario = scenario_by_name()[name]
        watched = build_probe_harness(
            1, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
        )
        looks = []
        for until in range(10 * MS, RUN_END_NS + 1, 10 * MS):
            drive_to(watched, until)
            looks.append(collect(watched))
        (recorded,) = [run for run in recorded_runs[name] if run["seed"] == 1]
        assert watched.cell.sim.now == RUN_END_NS
        assert watched.cell.trace.digest() == recorded["digest"]
        assert {key: value for key, value in looks[-1].items() if value} == (
            recorded["counters"]
        )
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
        assert data == timeline.as_dict()
        assert data["detect_latency_ns"] == timeline.detect_latency_ns


# ----------------------------------------------------------------------
# One chaos run's record: the §5.2 latency bound and the §4 story (slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestInstrumentedFailover:
    @pytest.fixture(scope="class")
    def crash(self):
        """The finished crash harness and its judged record."""
        scenario = scenario_by_name()["crash"]
        probed = build_probe_harness(
            1, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
        )
        drive_to(probed, RUN_END_NS)
        return probed, judge_execution(scenario, 1, probed)

    @pytest.fixture(scope="class")
    def crash_run(self, crash):
        return crash[1]

    def test_counters_are_the_nonzero_reading_sorted(self, crash):
        """The record's counters are the end-of-run reading without the
        names that read 0, in name order, and survive the JSON round trip
        the baseline takes."""
        probed, run = crash
        reading = collect(probed)
        assert 0 in reading.values()
        assert run.counters == {name: value for name, value in reading.items() if value}
        assert list(run.counters) == sorted(run.counters)
        assert run.counters["engine.events_processed"] == probed.cell.sim.events_processed
        assert json.loads(json.dumps(run.as_dict())) == run.as_dict()

    def test_detection_latency_within_one_tick_of_timeout(self, crash_run):
        """§5.2: detection fires one timeout after the last heartbeat,
        quantized by the 9 µs tick — every observed latency sits within
        one tick of T = 450 µs."""
        config = DetectorConfig()
        assert len(crash_run.detection_latencies_ns) >= 1
        for observed in crash_run.detection_latencies_ns:
            assert (
                abs(observed - config.timeout_ns) <= config.tick_period_ns
            ), f"detection latency {observed} ns vs T={config.timeout_ns} ns"

    def test_timeline_within_scenario_downtime_budget(self, crash_run):
        budget = scenario_by_name()["crash"].downtime_budget_ns
        timeline = crash_run.timeline
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
        run's record says so, layer by layer."""
        counters = crash_run.counters
        for name in (
            "phy.phy1.harq.lost_to_migration",
            "l2.mac0.ul_dtx_timeouts",
            "l2.mac0.ul_retx_granted",
            "fronthaul.ru0.slots_without_control",
            "transport.udp.probe.tx.packets_sent",
            "transport.udp.probe.rx.packets_received",
            "engine.events_processed",
        ):
            assert counters[name] > 0, name
        assert 0 not in counters.values()
        assert list(counters) == sorted(counters)


# ----------------------------------------------------------------------
# The recorded matrix: all 36 records, read from ``BENCH_chaos.json``
# (which ``tests/test_parallel.py`` pins to the code with ``--check``)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded_runs():
    by_scenario = {}
    for run in load_baseline("chaos", bench_path("chaos"))["runs"]:
        by_scenario.setdefault(run["scenario"], []).append(run)
    return by_scenario


ANCHORS = ("fault_ns", "detected_ns", "notified_ns", "committed_ns", "first_good_ns")


@pytest.mark.parametrize("name", sorted(scenario_by_name()))
def test_every_record_tells_one_consistent_failover_story(recorded_runs, name):
    """Per seed: each switch-detector detection is one timeout after a
    heartbeat that predates the fault (§5.2, to one tick); the mbox
    executed the migrations the scenario expects and the timeline commits
    iff it did; only a cell without a secondary reports the failover
    impossible; the anchors that are set are in causal order; and the
    downtime is inside the scenario's budget (§8)."""
    scenario = scenario_by_name()[name]
    config = DetectorConfig()
    runs = recorded_runs[name]
    assert [run["seed"] for run in runs] == [1, 2, 3]
    for run in runs:
        where = f"{name} seed {run['seed']}"
        counters, timeline = run["counters"], run["timeline"]
        latencies = run["detection_latencies_ns"]
        assert run["passed"], where
        assert len(latencies) == counters.get("core.detector.failures_detected", 0), where
        assert len(latencies) <= 1, where
        for latency in latencies:
            assert abs(latency - config.timeout_ns) <= config.tick_period_ns, where
            last_heartbeat = timeline["detected_ns"] - latency
            assert last_heartbeat <= timeline["fault_ns"] < timeline["detected_ns"], where
        migrations = counters.get("core.mbox.migrations_executed", 0)
        assert migrations == scenario.expected_migrations, where
        assert (timeline["committed_ns"] is not None) == (migrations > 0), where
        impossible = counters.get("core.orion.l2.failovers_impossible", 0)
        assert (impossible > 0) == scenario.expect_failover_impossible(), where
        anchors = [timeline[key] for key in ANCHORS if timeline[key] is not None]
        assert anchors == sorted(anchors), where
        if scenario.downtime_budget_ns is not None:
            assert timeline["downtime_ns"] <= scenario.downtime_budget_ns, where


def _what_the_fault_moved(run) -> tuple:
    """A record less what any fault moves by merely existing: its own
    events and its own link impairments' tallies."""
    counters = {
        name: value
        for name, value in run["counters"].items()
        if name != "engine.events_processed"
        and not (name.startswith("net.link.") and ".impairment." in name)
    }
    return (
        json.dumps(run["timeline"], sort_keys=True),
        tuple(run["detection_latencies_ns"]),
        tuple(sorted(counters.items())),
    )


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_every_fault_class_moves_something(recorded_runs, seed):
    """At this seed, no two fault classes leave the same record once their
    own events and impairment tallies are set aside: a class whose only
    trace is itself checks nothing the other one does not."""
    seen = {}
    for name in sorted(recorded_runs):
        (run,) = [r for r in recorded_runs[name] if r["seed"] == seed]
        twin = seen.setdefault(_what_the_fault_moved(run), name)
        assert twin == name, f"seed {seed}: {name} records what {twin} does"
