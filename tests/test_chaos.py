"""Tests for the chaos harness: fault plans, link impairments, the
injector's wiring, the recovery-invariant checker, and a tier-1 smoke
run proving digest-stable replays."""

import pytest

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.faults import (
    ClockFaultSpec,
    CorruptedPayload,
    FaultInjector,
    FaultPlan,
    LinkFaultSpec,
    LinkImpairment,
    ProcessFaultSpec,
    RecoveryInvariants,
)
from repro.faults.campaign import build_probe_harness, drive_to, run_campaign
from repro.faults.invariants import PROBE_RX
from repro.faults.proptest import generate_cases
from repro.faults.scenarios import scenario_by_name, standard_scenarios
from repro.faults.soak import SoakConfig, generate_soak_plan
from repro.fleet import FleetConfig, build_fleet
from repro.fleet.campaign import FAULT_CLASSES, fault_schedule
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS
from repro.telemetry import collect


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_frame(self, frame, ingress):
        self.received.append((self.sim.now, frame))


def make_frame(ethertype=EtherType.IPV4, payload="x"):
    return EthernetFrame(
        src=MacAddress(1),
        dst=MacAddress(2),
        ethertype=ethertype,
        payload=payload,
        wire_bytes=100,
    )


def impaired_link(spec, seed=7):
    """A link with one impairment spec attached; returns (sim, link, sink)."""
    sim = Simulator()
    sink = Collector(sim)
    link = Link(sim, sink, bandwidth_bps=0, latency_ns=1_000, name="lk")
    link.impairment = LinkImpairment(
        (spec,), RngRegistry(seed).stream("faults.link.lk")
    )
    return sim, link, sink


class TestLinkImpairment:
    def test_certain_loss_drops_every_frame(self):
        sim, link, sink = impaired_link(LinkFaultSpec("lk", loss_prob=1.0))
        for _ in range(5):
            link.send(make_frame())
        sim.run()
        assert sink.received == []
        assert link.impairment.stats.dropped == 5

    def test_certain_duplication_delivers_twice(self):
        sim, link, sink = impaired_link(LinkFaultSpec("lk", dup_prob=1.0))
        link.send(make_frame(payload="p"))
        sim.run()
        assert len(sink.received) == 2
        assert sink.received[0][1].payload == "p"
        assert sink.received[1][0] > sink.received[0][0]

    def test_corruption_wraps_payload(self):
        sim, link, sink = impaired_link(LinkFaultSpec("lk", corrupt_prob=1.0))
        link.send(make_frame(payload="clean"))
        sim.run()
        ((_, frame),) = sink.received
        assert isinstance(frame.payload, CorruptedPayload)
        assert frame.payload.original == "clean"

    def test_reorder_shifts_arrival(self):
        sim, link, sink = impaired_link(
            LinkFaultSpec("lk", reorder_prob=1.0, reorder_jitter_ns=50_000)
        )
        nominal = link.send(make_frame())
        sim.run()
        ((arrived, _),) = sink.received
        assert nominal < arrived <= nominal + 50_000

    def test_window_gating(self):
        """Frames outside [start_ns, end_ns) pass untouched."""
        sim, link, sink = impaired_link(
            LinkFaultSpec("lk", start_ns=10_000, end_ns=20_000, loss_prob=1.0)
        )
        link.send(make_frame())  # At t=0: before the window.
        sim.at(15_000, link.send, make_frame())  # Inside: dropped.
        sim.at(25_000, link.send, make_frame())  # After: untouched.
        sim.run()
        assert len(sink.received) == 2
        assert link.impairment.stats.dropped == 1

    def test_an_egress_link_defers_only_once_the_window_can_be_open(self):
        """A switch egress link hands ``send`` a future ``ready_at``. Frames
        ready before the earliest window opens go out as on a link with no
        hook — not deferred, same line state, same arrivals — and only
        frames inside the window count as seen, so the record does not
        depend on when the hook was attached."""
        opens = 50_000
        spec = LinkFaultSpec("lk", start_ns=opens, loss_prob=1.0)
        sim = Simulator()
        impaired, plain = (
            Link(sim, Collector(sim), bandwidth_bps=10e9, latency_ns=1_000, name="lk")
            for _ in range(2)
        )
        impaired.impairment = LinkImpairment(
            (spec,), RngRegistry(7).stream("faults.link.lk")
        )
        sent = []

        def send(tag):
            ready_at = sim.now + 8_000
            returned = [
                link.send(make_frame(payload=tag), ready_at=ready_at)
                for link in (impaired, plain)
            ]
            sent.append((
                ready_at, returned, bool(impaired._deferred),
                impaired._line_free_at, plain._line_free_at,
            ))

        for tag in range(10):
            sim.at(tag * 10_000, send, tag)
        sim.run()
        before = [entry for entry in sent if entry[0] < opens]
        assert len(before) == 5
        for _, (ours, theirs), deferred, line_free, plain_line_free in before:
            assert not deferred
            assert ours == theirs
            assert line_free == plain_line_free
        stats = impaired.impairment.stats
        assert stats.frames_seen == stats.dropped == 5
        assert [(at, frame.payload) for at, frame in impaired.endpoint.received] == [
            (at, frame.payload)
            for at, frame in plain.endpoint.received
            if frame.payload < 5
        ]

    def test_ethertype_filter(self):
        sim, link, sink = impaired_link(
            LinkFaultSpec(
                "lk", loss_prob=1.0, ethertypes=(EtherType.SLINGSHOT,)
            )
        )
        link.send(make_frame(ethertype=EtherType.IPV4))
        link.send(make_frame(ethertype=EtherType.SLINGSHOT))
        sim.run()
        assert [f.ethertype for _, f in sink.received] == [EtherType.IPV4]

    def test_decisions_replay_identically(self):
        """Same stream seed, same frame sequence -> same fates."""

        def fates(seed):
            sim, link, sink = impaired_link(
                LinkFaultSpec(
                    "lk",
                    loss_prob=0.3,
                    dup_prob=0.2,
                    reorder_prob=0.2,
                    reorder_jitter_ns=10_000,
                ),
                seed=seed,
            )
            for i in range(200):
                sim.at(1 + i * 2_000, link.send, make_frame(payload=i))
            sim.run()
            return [(t, f.payload) for t, f in sink.received]

        assert fates(3) == fates(3)
        assert fates(3) != fates(4)


def two_server_cell(seed=5):
    return build_slingshot_cell(
        CellConfig(
            seed=seed,
            num_phy_servers=2,
            ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
        )
    )


def _process(**overrides):
    spec = dict(phy_id=0, kind="crash", at_ns=100 * MS)
    spec.update(overrides)
    return FaultPlan(name="t", process_faults=(ProcessFaultSpec(**spec),))


def _link(**overrides):
    spec = dict(link_pattern="ru0", loss_prob=0.1)
    spec.update(overrides)
    return FaultPlan(name="t", link_faults=(LinkFaultSpec(**spec),))


def _clock(**overrides):
    spec = dict(node="phy0", at_ns=100 * MS, holdover=True, duration_ns=MS)
    spec.update(overrides)
    return FaultPlan(name="t", clock_faults=(ClockFaultSpec(**spec),))


#: defect -> (plan builder, what the one error says after the spec).
#: The first group is refused when the spec is built, the second by
#: ``arm()`` on a two-server cell, before anything is scheduled.
HOSTILE_PLANS = {
    "negative phy_id": (lambda: _process(phy_id=-1), "negative phy_id -1"),
    "negative hang duration": (
        lambda: _process(kind="hang", duration_ns=-MS), "negative duration_ns"
    ),
    "negative slowdown": (
        lambda: _process(kind="slowdown", slowdown_ns=-1), "negative slowdown_ns"
    ),
    "negative holdover": (lambda: _clock(duration_ns=-MS), "negative duration_ns"),
    "loss above one": (lambda: _link(loss_prob=1.5), "loss_prob 1.5 is outside [0, 1]"),
    "dup below zero": (lambda: _link(dup_prob=-0.1), "dup_prob -0.1 is outside [0, 1]"),
    "empty window": (
        lambda: _link(start_ns=20 * MS, end_ns=20 * MS), "end_ns 20000000 <= start_ns"
    ),
    "negative jitter": (
        lambda: _link(reorder_prob=0.5, reorder_jitter_ns=-1),
        "negative reorder_jitter_ns",
    ),
    "phy_id out of range": (
        lambda: _process(phy_id=2), "phy_id 2 but the cell has 2 PHY servers"
    ),
    "unknown clock node": (lambda: _clock(node="gnss"), "unknown clock node"),
    "pattern matches no link": (
        lambda: _link(link_pattern="backhaul"), "link_pattern matches no switch link"
    ),
}


class TestFaultPlan:
    def test_unknown_process_kind_rejected(self):
        with pytest.raises(ValueError):
            ProcessFaultSpec(phy_id=0, kind="meltdown", at_ns=0)

    @pytest.mark.parametrize("defect", HOSTILE_PLANS)
    def test_hostile_plan_is_one_value_error_naming_spec_and_defect(self, defect):
        build, says = HOSTILE_PLANS[defect]
        cell = two_server_cell()
        queued = cell.sim.queued_entries
        with pytest.raises(ValueError) as refused:
            FaultInjector(cell, build()).arm()
        message = str(refused.value)
        assert message.split("(")[0] in {
            "ProcessFaultSpec", "LinkFaultSpec", "ClockFaultSpec"
        }, message
        assert f"): {says}" in message, message
        assert cell.sim.queued_entries == queued
        links = FaultInjector(cell, FaultPlan(name="none"))._switch_links()
        assert all(link.impairment is None for link in links)

    @pytest.mark.slow
    def test_every_shipped_plan_arms(self):
        """Standard scenarios, a soak horizon, every fleet fault class and
        every proptest case, each on the cell shape it runs on (a fleet
        cell is a two-server cell)."""
        for scenario in standard_scenarios():
            build_probe_harness(
                1, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
            )
        cell = two_server_cell()
        soak = SoakConfig(seed=1, horizon_ns=3_000 * MS)
        FaultInjector(cell, generate_soak_plan(RngRegistry(1), soak)).arm()
        for fault_class in FAULT_CLASSES:
            for _, spec in fault_schedule(fault_class):
                plan = FaultPlan(name=fault_class, process_faults=(spec,))
                FaultInjector(cell, plan).arm()
        fleet = build_fleet(FleetConfig(seed=1, num_cells=3, users_per_cell=50))
        for case in generate_cases():
            for index in range(case.num_cells):
                plan = case.plan_for(index)
                if plan is not None:
                    FaultInjector(fleet.cells[index], plan).arm()

    def test_describe_is_json_ready(self):
        import json

        plan = scenario_by_name()["cmd_drop"].plan
        described = plan.describe()
        assert described["name"] == "cmd_drop"
        assert described["link_faults"][0]["ethertypes"] == ["SLINGSHOT"]
        json.dumps(described)  # Must not raise.


class TestFaultInjector:
    def test_arm_attaches_only_matching_links(self):
        cell = two_server_cell()
        plan = FaultPlan(
            name="t", link_faults=(LinkFaultSpec("ru0", loss_prob=0.1),)
        )
        injector = FaultInjector(cell, plan)
        injector.arm()
        assert set(injector.impairments) == {
            "ru0->edge-switch",
            "edge-switch->ru0",
        }

    def test_double_arm_rejected(self):
        cell = two_server_cell()
        injector = FaultInjector(cell, FaultPlan(name="t"))
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_impairment_counters_reach_the_record(self):
        """Every armed link's ``ImpairmentStats`` is read as
        ``net.link.<link>.impairment.*`` — the counters a chaos record
        carries."""
        plan = FaultPlan(
            name="t", link_faults=(LinkFaultSpec("l2", loss_prob=1.0),)
        )
        harness = build_probe_harness(5, plan=plan)
        drive_to(harness, 5 * MS)
        reading = collect(harness)
        links = sorted(harness.injector.impairments)
        assert links == ["edge-switch->l2", "l2->edge-switch"]
        for link in links:
            prefix = f"net.link.{link}.impairment."
            assert reading[prefix + "frames_seen"] > 0
            assert reading[prefix + "dropped"] == reading[prefix + "frames_seen"]


def recorded(events):
    trace = TraceRecorder()
    for time, category, fields in events:
        trace.record(time, category, **fields)
    return trace.canonical_events()


def checker(events, **kwargs):
    defaults = dict(
        window_start_ns=0,
        window_end_ns=100 * MS,
        downtime_budget_ns=20 * MS,
        expected_migrations=1,
    )
    defaults.update(kwargs)
    return RecoveryInvariants(recorded(events), **defaults)


class TestRecoveryInvariants:
    def _steady_probe(self, period_ns=5 * MS, until_ns=100 * MS):
        return [
            (t, PROBE_RX, {"seq": i})
            for i, t in enumerate(range(0, until_ns + 1, period_ns))
        ]

    def test_bounded_downtime_passes_within_budget(self):
        c = checker(self._steady_probe(), expected_migrations=0)
        assert c.max_probe_gap_ns() == 5 * MS
        assert c.check_bounded_downtime().passed

    def test_bounded_downtime_fails_on_long_gap(self):
        events = [
            (t, PROBE_RX, {}) for t in range(0, 101 * MS, 5 * MS)
            if not 40 * MS < t < 90 * MS
        ]
        c = checker(events)
        assert c.max_probe_gap_ns() == 50 * MS
        assert not c.check_bounded_downtime().passed

    def test_window_edges_charge_dead_flows(self):
        """A flow that dies mid-window is charged up to the window end."""
        c = checker([(10 * MS, PROBE_RX, {})])
        assert c.max_probe_gap_ns() == 90 * MS

    def test_no_deliveries_fails_not_crashes(self):
        c = checker([])
        assert c.max_probe_gap_ns() is None
        assert not c.check_bounded_downtime().passed

    def test_unbounded_budget_skips_downtime_check(self):
        c = checker([], downtime_budget_ns=None)
        assert c.check_bounded_downtime().passed

    def test_exactly_once_migration(self):
        commit = (1 * MS, "mbox.migration_committed", {"ru": 0})
        assert checker([commit]).check_exactly_once_migration().passed
        assert not checker([]).check_exactly_once_migration().passed
        assert not checker(
            [commit, (2 * MS, "mbox.migration_committed", {"ru": 0})]
        ).check_exactly_once_migration().passed

    def test_no_stale_frames_counts_transitions(self):
        base = [
            (1 * MS, "mbox.migration_committed", {"ru": 0}),
            (0, "ru.source_changed", {"source": 0, "previous": None}),
            (2 * MS, "ru.source_changed", {"source": 1, "previous": 0}),
        ]
        assert checker(base).check_no_stale_frames().passed
        # A conflicting-sources slot is an instant failure.
        assert not checker(
            base + [(3 * MS, "ru.conflicting_sources", {"slot": 9})]
        ).check_no_stale_frames().passed
        # An extra flip without a commit means a stale frame got through.
        assert not checker(
            base + [(4 * MS, "ru.source_changed", {"source": 0, "previous": 1})]
        ).check_no_stale_frames().passed

    def test_degraded_mode_visibility(self):
        impossible = (1 * MS, "orion.failover_impossible", {"cell": 0})
        c = checker([impossible], expect_failover_impossible=True)
        assert c.check_degraded_mode_visible().passed
        c = checker([], expect_failover_impossible=True)
        assert not c.check_degraded_mode_visible().passed


class TestScenarioMatrix:
    def test_matrix_covers_required_fault_kinds(self):
        scenarios = standard_scenarios()
        assert len(scenarios) >= 8
        kinds = {
            spec.kind for s in scenarios for spec in s.plan.process_faults
        }
        assert {"crash", "crash_restart", "hang", "slowdown"} <= kinds
        assert any(s.plan.clock_faults for s in scenarios)
        assert any(
            spec.loss_prob for s in scenarios for spec in s.plan.link_faults
        )
        assert any(
            spec.corrupt_prob for s in scenarios for spec in s.plan.link_faults
        )
        assert any(
            spec.reorder_prob for s in scenarios for spec in s.plan.link_faults
        )

    def test_names_unique(self):
        names = [s.name for s in standard_scenarios()]
        assert len(names) == len(set(names))


class TestChaosSmoke:
    """Tier-1 gate: one scenario, two seeds, digest-equal replays."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_crash_scenario_replays_bit_identically(self, seed):
        scenario = scenario_by_name()["crash"]
        (run,) = run_campaign([scenario], seeds=(seed,), replay=True).runs
        assert run.replay_digest_matched is True
        failed = [r["name"] for r in run.invariants if not r["passed"]]
        assert not failed, failed
        assert run.counters["core.mbox.migrations_executed"] == 1
        assert run.counters["core.detector.failures_detected"] == 1
        assert len(run.detection_latencies_ns) == 1
        assert "core.orion.l2.watchdog_fires" not in run.counters
