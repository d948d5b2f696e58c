"""Tests for Orion — the L2-to-PHY FAPI middlebox (§6)."""

import pytest

from repro.core import orion as orion_module
from repro.core.commands import FailureNotification, MigrateOnSlot, SetMonitor
from repro.core.orion import (
    CellAssignment,
    L2SideOrion,
    OrionDatagram,
    PhySideOrion,
)
from repro.fapi.channels import ShmChannel
from repro.fapi.messages import (
    ConfigRequest,
    CrcIndication,
    CrcResult,
    DlTtiRequest,
    PuschPdu,
    SlotIndication,
    StartRequest,
    TxDataRequest,
    UlTtiRequest,
    is_null_request,
)
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.phy.modulation import Modulation
from repro.phy.numerology import SlotClock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import US

L2_ORION_MAC = MacAddress(0x100)
PHY0_ORION_MAC = MacAddress(0x200)
PHY1_ORION_MAC = MacAddress(0x201)

#: Every rig here relays at zero cost except the service-queue test.
pytestmark = pytest.mark.usefixtures("zero_orion_service")


class FrameSink:
    """Captures frames an Orion pushes onto its NIC."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def receive_frame(self, frame, ingress):
        self.frames.append(frame)

    def by_dst(self, mac):
        return [f for f in self.frames if f.dst == mac]


class MessageSink:
    """Captures FAPI messages delivered over a SHM channel."""

    #: Standing in for a PHY: a PHY-side Orion repairs losses for a live one.
    alive = True

    def __init__(self):
        self.messages = []

    def receive_fapi(self, message, channel):
        self.messages.append(message)


class EagerDormancy:
    """A deployment whose standbys never sleep: nothing to wake, no
    sleeper to book a null with."""

    sleeping = {}

    def wake(self):
        pass


def build_l2_orion(sim):
    orion = L2SideOrion(
        sim,
        mac=L2_ORION_MAC,
        slot_clock=SlotClock(),
        trace=TraceRecorder(),
    )
    orion.dormancy = EagerDormancy()
    nic = FrameSink(sim)
    orion.uplink = Link(sim, nic, bandwidth_bps=0, latency_ns=0)
    orion.register_phy_server(0, PHY0_ORION_MAC)
    orion.register_phy_server(1, PHY1_ORION_MAC)
    orion.assign_cell(cell_id=0, ru_id=0, primary_phy=0, secondary_phy=1)
    l2_sink = MessageSink()
    orion.shm_to_l2 = ShmChannel(sim, l2_sink, name="shm-orion->l2")
    orion.shm_to_l2.latency_ns = 0
    return orion, nic, l2_sink


def phy_orion(sim):
    return PhySideOrion(
        sim, phy_id=0, mac=PHY0_ORION_MAC, slot_clock=SlotClock(),
        trace=TraceRecorder(), name="orion-phy0",
    )


def tti_with_work(slot):
    pdu = PuschPdu(
        ue_id=1, harq_process=0, modulation=Modulation.QPSK,
        prbs=10, new_data=True, tb_id=5, tb_bytes=100,
    )
    return UlTtiRequest(cell_id=0, slot=slot, pdus=[pdu])


def deliver_response(orion, message, phy_id):
    frame = EthernetFrame(
        src=PHY0_ORION_MAC, dst=L2_ORION_MAC, ethertype=EtherType.IPV4,
        payload=OrionDatagram(message=message, phy_id=phy_id, is_response=True),
        wire_bytes=100,
    )
    orion.receive_frame(frame, ingress=None)


class TestNullFapiDuplication:
    def test_real_to_primary_null_to_secondary(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        orion.receive_fapi(tti_with_work(50), channel=None)
        sim.run()
        to_primary = nic.by_dst(PHY0_ORION_MAC)
        to_secondary = nic.by_dst(PHY1_ORION_MAC)
        assert len(to_primary) == 1
        assert not is_null_request(to_primary[0].payload.message)
        assert len(to_secondary) == 1
        assert is_null_request(to_secondary[0].payload.message)
        assert to_secondary[0].payload.message.slot == 50

    def test_null_tti_request_kept_null_for_both(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        orion.receive_fapi(UlTtiRequest(cell_id=0, slot=51, pdus=[]), channel=None)
        sim.run()
        assert is_null_request(nic.by_dst(PHY0_ORION_MAC)[0].payload.message)
        assert is_null_request(nic.by_dst(PHY1_ORION_MAC)[0].payload.message)

    def test_tx_data_goes_only_to_primary(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        orion.receive_fapi(
            TxDataRequest(cell_id=0, slot=52, payloads=[(1, b"x")]), channel=None
        )
        sim.run()
        assert len(nic.by_dst(PHY0_ORION_MAC)) == 1
        assert len(nic.by_dst(PHY1_ORION_MAC)) == 0

    def test_config_and_start_duplicated_and_stored(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        config = ConfigRequest(cell_id=0, ru_id=0)
        orion.receive_fapi(config, channel=None)
        orion.receive_fapi(StartRequest(cell_id=0), channel=None)
        sim.run()
        assert len(nic.by_dst(PHY0_ORION_MAC)) == 2
        assert len(nic.by_dst(PHY1_ORION_MAC)) == 2
        assert orion.cells[0].stored_config is config

    def test_unknown_cell_ignored(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        orion.receive_fapi(UlTtiRequest(cell_id=9, slot=1, pdus=[]), channel=None)
        sim.run()
        assert nic.frames == []


class TestResponseFiltering:
    def _crc(self, slot):
        return CrcIndication(
            cell_id=0, slot=slot,
            results=[CrcResult(1, 0, 5, True, 15.0)],
        )

    def test_primary_responses_forwarded(self):
        sim = Simulator()
        orion, _, l2_sink = build_l2_orion(sim)
        deliver_response(orion, self._crc(10), phy_id=0)
        sim.run()
        assert len(l2_sink.messages) == 1

    def test_secondary_responses_dropped(self):
        sim = Simulator()
        orion, _, l2_sink = build_l2_orion(sim)
        deliver_response(orion, self._crc(10), phy_id=1)
        sim.run()
        assert l2_sink.messages == []
        assert orion.stats.responses_dropped == 1

    def test_slot_indications_not_relayed_to_l2(self):
        sim = Simulator()
        orion, _, l2_sink = build_l2_orion(sim)
        deliver_response(orion, SlotIndication(cell_id=0, slot=3), phy_id=0)
        sim.run()
        assert l2_sink.messages == []


class TestMigrationSteering:
    def test_failure_notification_triggers_migration(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        orion.receive_frame(
            EthernetFrame(
                src=MacAddress(1), dst=L2_ORION_MAC,
                ethertype=EtherType.SLINGSHOT,
                payload=FailureNotification(phy_id=0, detected_at=sim.now),
                wire_bytes=64,
            ),
            ingress=None,
        )
        sim.run_until(1000)  # Before the drain window finalizes roles.
        assignment = orion.cells[0]
        assert assignment.migration_slot is not None
        assert assignment.migration_dest == 1
        sim.run()
        commands = [f.payload for f in nic.frames if f.ethertype == EtherType.SLINGSHOT]
        kinds = {type(c) for c in commands}
        assert MigrateOnSlot in kinds
        assert SetMonitor in kinds
        migrate = next(c for c in commands if isinstance(c, MigrateOnSlot))
        assert migrate.dest_phy_id == 1

    def test_requests_steered_by_slot_across_boundary(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        boundary = orion.planned_migration(0)
        sim.run_until(1000)  # Migration pending, not yet finalized.
        nic.frames.clear()
        orion.receive_fapi(tti_with_work(boundary - 1), channel=None)
        orion.receive_fapi(tti_with_work(boundary), channel=None)
        sim.run_until(2000)
        pre = [
            f.payload.message for f in nic.by_dst(PHY0_ORION_MAC)
            if f.payload.message.slot == boundary - 1
        ]
        post = [
            f.payload.message for f in nic.by_dst(PHY1_ORION_MAC)
            if f.payload.message.slot == boundary
        ]
        assert len(pre) == 1 and not is_null_request(pre[0])
        assert len(post) == 1 and not is_null_request(post[0])

    def test_pipelined_draining_accepts_old_primary_pre_boundary(self):
        """Responses from the old primary for slots before the boundary
        are still forwarded during the drain window (Fig 7)."""
        sim = Simulator()
        orion, _, l2_sink = build_l2_orion(sim)
        boundary = orion.planned_migration(0)
        deliver_response(
            orion,
            CrcIndication(cell_id=0, slot=boundary - 1,
                          results=[CrcResult(1, 0, 5, True, 15.0)]),
            phy_id=0,
        )
        sim.run_until(1000)
        assert len(l2_sink.messages) == 1
        assert orion.stats.drained_responses == 1

    def test_old_primary_post_boundary_dropped(self):
        sim = Simulator()
        orion, _, l2_sink = build_l2_orion(sim)
        boundary = orion.planned_migration(0)
        deliver_response(
            orion,
            CrcIndication(cell_id=0, slot=boundary + 1,
                          results=[CrcResult(1, 0, 5, True, 15.0)]),
            phy_id=0,
        )
        sim.run_until(1000)
        assert l2_sink.messages == []

    def test_roles_swap_after_planned_migration(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        orion.planned_migration(0)
        slot_ns = 500_000
        sim.run_until(slot_ns * 40)
        assignment = orion.cells[0]
        assert assignment.primary_phy == 1
        assert assignment.secondary_phy == 0  # Old primary becomes standby.
        assert assignment.migration_slot is None

    def test_failover_leaves_no_secondary_until_initialized(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        orion.receive_frame(
            EthernetFrame(
                src=MacAddress(1), dst=L2_ORION_MAC,
                ethertype=EtherType.SLINGSHOT,
                payload=FailureNotification(phy_id=0, detected_at=sim.now),
                wire_bytes=64,
            ),
            ingress=None,
        )
        sim.run_until(500_000 * 40)
        assignment = orion.cells[0]
        assert assignment.primary_phy == 1
        assert assignment.secondary_phy is None

    def test_initialize_secondary_replays_stored_config(self):
        sim = Simulator()
        orion, nic, _ = build_l2_orion(sim)
        orion.receive_fapi(ConfigRequest(cell_id=0, ru_id=0), channel=None)
        sim.run()
        nic.frames.clear()
        orion.initialize_secondary(0, 1)
        sim.run()
        to_new = nic.by_dst(PHY1_ORION_MAC)
        assert any(isinstance(f.payload.message, ConfigRequest) for f in to_new)
        assert any(isinstance(f.payload.message, StartRequest) for f in to_new)

    def test_duplicate_failure_notifications_ignored_mid_migration(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        frame = EthernetFrame(
            src=MacAddress(1), dst=L2_ORION_MAC,
            ethertype=EtherType.SLINGSHOT,
            payload=FailureNotification(phy_id=0, detected_at=sim.now),
            wire_bytes=64,
        )
        orion.receive_frame(frame, ingress=None)
        orion.receive_frame(frame, ingress=None)
        sim.run_until(1000)
        assert orion.stats.migrations_initiated == 1


def notify_failure(orion, phy_id):
    orion.receive_frame(
        EthernetFrame(
            src=MacAddress(1), dst=L2_ORION_MAC,
            ethertype=EtherType.SLINGSHOT,
            payload=FailureNotification(phy_id=phy_id, detected_at=orion.sim.now),
            wire_bytes=64,
        ),
        ingress=None,
    )


class TestNotificationsIgnored:
    """``notifications_ignored`` counts a failure notification that starts
    no migration and marks no failover impossible — the trace the
    duplicate suppression of DESIGN section 8 leaves."""

    def test_first_notification_fails_over_and_is_not_ignored(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        notify_failure(orion, 0)
        assert orion.stats.failovers_handled == 1
        assert orion.stats.notifications_ignored == 0

    def test_duplicate_mid_migration_is_counted_once(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        notify_failure(orion, 0)
        notify_failure(orion, 0)
        notify_failure(orion, 0)
        assert orion.stats.migrations_initiated == 1
        assert orion.stats.notifications_ignored == 2

    def test_late_duplicate_after_the_flip_is_ignored(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        notify_failure(orion, 0)
        sim.run_until(500_000 * 40)
        assert orion.cells[0].primary_phy == 1
        notify_failure(orion, 0)
        assert orion.stats.migrations_initiated == 1
        assert orion.stats.notifications_ignored == 1

    def test_standby_failure_is_ignored(self):
        """The failed PHY is no cell's primary: nothing to fail over."""
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        notify_failure(orion, 1)
        assert orion.cells[0].primary_phy == 0
        assert orion.stats.migrations_initiated == 0
        assert orion.stats.notifications_ignored == 1

    def test_unknown_phy_is_ignored(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        notify_failure(orion, 7)
        assert orion.stats.migrations_initiated == 0
        assert orion.stats.notifications_ignored == 1

    def test_failover_impossible_is_not_ignored(self):
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        orion.assign_cell(cell_id=0, ru_id=0, primary_phy=0, secondary_phy=None)
        notify_failure(orion, 0)
        assert orion.stats.failovers_impossible == 1
        assert orion.stats.notifications_ignored == 0

    def test_pooled_duplicate_after_a_denied_seat_is_ignored(self):
        """With a pooled standby, a denied primary is pinned as failed:
        its duplicate notification is ignored, not counted impossible
        again."""
        sim = Simulator()
        orion, _, _ = build_l2_orion(sim)
        orion.standby_gate = lambda assignment: False
        notify_failure(orion, 0)
        notify_failure(orion, 0)
        assert orion.stats.failovers_impossible == 1
        assert orion.stats.notifications_ignored == 1
        assert orion.stats.migrations_initiated == 0


class TestPhySideOrion:
    def test_relays_network_to_shm(self):
        sim = Simulator()
        orion = phy_orion(sim)
        phy_sink = MessageSink()
        orion.shm_to_phy = ShmChannel(sim, phy_sink, name="shm-orion0->phy")
        orion.shm_to_phy.latency_ns = 0
        message = UlTtiRequest(cell_id=0, slot=5, pdus=[])
        orion.receive_frame(
            EthernetFrame(
                src=L2_ORION_MAC, dst=PHY0_ORION_MAC, ethertype=EtherType.IPV4,
                payload=OrionDatagram(message=message, phy_id=0, is_response=False),
                wire_bytes=100,
            ),
            ingress=None,
        )
        # Short of the loss-repair watchdog's first tick, which the
        # request arms.
        sim.run_for(10 * US)
        assert phy_sink.messages == [message]

    def test_relays_shm_to_network(self):
        sim = Simulator()
        orion = phy_orion(sim)
        nic = FrameSink(sim)
        orion.uplink = Link(sim, nic, bandwidth_bps=0, latency_ns=0)
        orion.l2_orion_mac = L2_ORION_MAC
        orion.receive_fapi(SlotIndication(cell_id=0, slot=2), channel=None)
        sim.run()
        assert len(nic.frames) == 1
        assert nic.frames[0].dst == L2_ORION_MAC
        assert nic.frames[0].payload.phy_id == 0

    def test_service_queue_adds_latency_under_load(self, monkeypatch):
        monkeypatch.setattr(orion_module, "SERVICE_BASE_NS", 1000)
        sim = Simulator()
        orion = phy_orion(sim)
        sink = MessageSink()
        arrival_times = []

        class TimedSink:
            alive = True

            def receive_fapi(self, message, channel):
                arrival_times.append(sim.now)

        orion.shm_to_phy = ShmChannel(sim, TimedSink(), name="shm-orion0->phy")
        orion.shm_to_phy.latency_ns = 0
        for _ in range(5):
            orion.receive_frame(
                EthernetFrame(
                    src=L2_ORION_MAC, dst=PHY0_ORION_MAC, ethertype=EtherType.IPV4,
                    payload=OrionDatagram(
                        message=SlotIndication(cell_id=0, slot=1),
                        phy_id=0, is_response=False,
                    ),
                    wire_bytes=100,
                ),
                ingress=None,
            )
        sim.run()
        # FIFO: each message waits for the previous one's service.
        assert arrival_times == [1000, 2000, 3000, 4000, 5000]
