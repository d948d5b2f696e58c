"""Tests for the in-switch fronthaul middlebox (§5)."""

from dataclasses import asdict

import pytest

from repro.cell.config import CellConfig
from repro.cell.deployment import build_slingshot_cell
from repro.checkpoint.snapshot import Checkpoint
from repro.core.commands import FailureNotification, MigrateOnSlot, SetMonitor, SLINGSHOT_CMD_BYTES
from repro.core.fh_middlebox import FronthaulMiddlebox
from repro.fronthaul.oran import CplaneMessage, UplaneUplink
from repro.net.addresses import MacAddress
from repro.net.p4.registers import RegisterArray
from repro.net.packet import EtherType, EthernetFrame
from repro.net.switch import Switch
from repro.phy.channel import ChannelRealization
from repro.phy.modulation import Modulation
from repro.phy.numerology import SlotClock
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS

RU_MAC = MacAddress(0x10)
PHY0_MAC = MacAddress(0x20)
PHY1_MAC = MacAddress(0x21)
ORION_MAC = MacAddress(0x30)


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_frame(self, frame, ingress):
        self.received.append((self.sim.now, frame))


def build_fabric():
    """Switch + middlebox with an RU port, two PHY ports, an Orion port."""
    sim = Simulator()
    switch = Switch(sim)
    switch.pipeline_latency_ns = 0
    mbox = FronthaulMiddlebox(sim)
    mbox.install_on(switch)
    nodes = {}
    for name, mac in (("ru", RU_MAC), ("phy0", PHY0_MAC), ("phy1", PHY1_MAC), ("orion", ORION_MAC)):
        sink = Sink(sim)
        port = switch.attach(sink, latency_ns=0, name=name)
        nodes[name] = (sink, port)
    mbox.register_ru(0, RU_MAC, nodes["ru"][1].number, initial_phy=0)
    mbox.register_phy(0, PHY0_MAC, nodes["phy0"][1].number)
    mbox.register_phy(1, PHY1_MAC, nodes["phy1"][1].number)
    mbox.register_l2_host(ORION_MAC, nodes["orion"][1].number)
    mbox.set_notification_target(ORION_MAC, nodes["orion"][1].number)
    return sim, switch, mbox, nodes


def ul_frame(abs_slot, src=RU_MAC):
    clock = SlotClock()
    block = TransportBlock(
        ue_id=1, direction=LinkDirection.UPLINK, harq_process=0,
        modulation=Modulation.QPSK, prbs=10, data=[], size_bytes=100,
    )
    payload = UplaneUplink(
        ru_id=0, address=clock.address_of(abs_slot), abs_slot=abs_slot,
        block=block, realization=ChannelRealization(15.0),
    )
    return EthernetFrame(
        src=src, dst=MacAddress(0xFFFF), ethertype=EtherType.ECPRI,
        payload=payload, wire_bytes=200,
    )


def dl_frame(abs_slot, src_mac=PHY0_MAC, src_phy=0):
    clock = SlotClock()
    payload = CplaneMessage(
        ru_id=0, address=clock.address_of(abs_slot), abs_slot=abs_slot,
        source_phy_id=src_phy,
    )
    return EthernetFrame(
        src=src_mac, dst=MacAddress(0), ethertype=EtherType.ECPRI,
        payload=payload, wire_bytes=100,
    )


def command_frame(payload):
    return EthernetFrame(
        src=ORION_MAC, dst=MacAddress(0), ethertype=EtherType.SLINGSHOT,
        payload=payload, wire_bytes=SLINGSHOT_CMD_BYTES,
    )


class TestSteering:
    def test_uplink_steered_to_initial_primary(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.ingress(ul_frame(10), nodes["ru"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["phy0"][0].received) == 1
        assert nodes["phy0"][0].received[0][1].dst == PHY0_MAC
        assert len(nodes["phy1"][0].received) == 0

    def test_downlink_from_active_forwarded_to_ru(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.ingress(dl_frame(10), nodes["phy0"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["ru"][0].received) == 1
        assert nodes["ru"][0].received[0][1].dst == RU_MAC

    def test_downlink_from_standby_filtered(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.ingress(
            dl_frame(10, src_mac=PHY1_MAC, src_phy=1), nodes["phy1"][1].number
        )
        sim.run_until(sim.now + 10_000)
        assert len(nodes["ru"][0].received) == 0
        assert mbox.stats.dl_filtered == 1

    def test_filtered_standby_still_counts_as_heartbeat(self):
        sim, switch, mbox, nodes = build_fabric()
        mbox.detector.set_monitor(1, True)
        mbox.detector.counters.write(1, 10)
        # ingress() runs the pipeline synchronously; the heartbeat reset
        # happens before any timer tick can fire.
        switch.ingress(
            dl_frame(10, src_mac=PHY1_MAC, src_phy=1), nodes["phy1"][1].number
        )
        assert mbox.detector.counters.read(1) == 0

    def test_unknown_source_dropped(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.ingress(ul_frame(10, src=MacAddress(0x99)), 9)
        sim.run_until(sim.now + 10_000)
        assert mbox.stats.unknown_dropped == 1


class TestMigrateOnSlot:
    def test_packets_before_boundary_stay_with_primary(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.inject(command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=100)))
        sim.run_until(sim.now + 10_000)
        switch.ingress(ul_frame(99), nodes["ru"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["phy0"][0].received) == 1
        assert len(nodes["phy1"][0].received) == 0

    def test_boundary_packet_flips_mapping(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.inject(command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=100)))
        sim.run_until(sim.now + 10_000)
        switch.ingress(ul_frame(100), nodes["ru"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["phy1"][0].received) == 1
        assert mbox.stats.migrations_executed == 1
        assert mbox.ru_to_phy.read(0) == 1
        # Subsequent packets follow the new mapping without a pending request.
        switch.ingress(ul_frame(101), nodes["ru"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["phy1"][0].received) == 2

    def test_exactly_at_boundary_no_mixed_slot(self):
        """For any single slot, the RU hears exactly one PHY."""
        sim, switch, mbox, nodes = build_fabric()
        switch.inject(command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=100)))
        sim.run_until(sim.now + 10_000)
        # Old primary still emits slot 99; new one emits slot 100.
        switch.ingress(dl_frame(99, PHY0_MAC, 0), nodes["phy0"][1].number)
        switch.ingress(dl_frame(100, PHY0_MAC, 0), nodes["phy0"][1].number)
        switch.ingress(dl_frame(99, PHY1_MAC, 1), nodes["phy1"][1].number)
        switch.ingress(dl_frame(100, PHY1_MAC, 1), nodes["phy1"][1].number)
        sim.run_until(sim.now + 10_000)
        per_slot_sources = {}
        for _, frame in nodes["ru"][0].received:
            per_slot_sources.setdefault(frame.payload.abs_slot, set()).add(
                frame.payload.source_phy_id
            )
        assert per_slot_sources == {99: {0}, 100: {1}}

    def test_downlink_for_future_boundary_accepted_from_dest(self):
        """The new primary's C-plane for the boundary slot is emitted
        *before* any uplink packet of that slot arrives; the pending
        request must already steer it."""
        sim, switch, mbox, nodes = build_fabric()
        switch.inject(command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=100)))
        sim.run_until(sim.now + 10_000)
        switch.ingress(dl_frame(100, PHY1_MAC, 1), nodes["phy1"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["ru"][0].received) == 1

    def test_unaligned_mode_flips_immediately(self):
        sim, switch, mbox, nodes = build_fabric()
        mbox.config.align_to_tti = False
        switch.inject(command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=10**9)))
        sim.run_until(sim.now + 10_000)
        switch.ingress(ul_frame(5), nodes["ru"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["phy1"][0].received) == 1


class TwoCallMiddlebox(FronthaulMiddlebox):
    """The steering ``_steer`` replaced at both call sites, as the model."""

    def _steer(self, ru_id, abs_slot):
        self._maybe_commit_migration(ru_id, abs_slot)
        return self._effective_phy(ru_id, abs_slot)


class TestSteerAgainstTheTwoCallForm:
    """``_steer`` reads ``mig_valid`` once; over the whole register table
    it must decide, write and trace what the two calls it replaced did."""

    MIG_SLOT = 100
    REGISTERS = (
        "ru_to_phy", "mig_valid", "mig_slot", "mig_dest", "prev_phy", "last_boundary",
    )

    def outcome(self, mbox_cls, mig_valid, slot, last_boundary, frame):
        sim = Simulator()
        switch = Switch(sim)
        switch.pipeline_latency_ns = 0
        trace = TraceRecorder()
        mbox = mbox_cls(sim, trace=trace)
        mbox.install_on(switch)
        mbox.register_ru(0, RU_MAC, 1, initial_phy=0)
        for phy_id, mac in ((0, PHY0_MAC), (1, PHY1_MAC), (2, MacAddress(0x22))):
            mbox.register_phy(phy_id, mac, 10 + phy_id)
        mbox.mig_valid.write(0, mig_valid)
        mbox.mig_slot.write(0, self.MIG_SLOT)
        mbox.mig_dest.write(0, 1)
        mbox.prev_phy.write(0, 2)
        mbox.last_boundary.write(0, last_boundary)
        port, out = mbox.process(frame(slot), in_port=1, switch=switch) or (None, None)
        return (
            port,
            None if out is None else out.dst,
            {name: getattr(mbox, name).peek(0) for name in self.REGISTERS},
            asdict(mbox.stats),
            [(e.time, e.category, e.fields) for e in trace.events()],
        )

    @pytest.mark.parametrize("frame", [
        ul_frame,
        dl_frame,
        lambda slot: dl_frame(slot, src_mac=PHY1_MAC, src_phy=1),
    ], ids=["uplink", "downlink_primary", "downlink_standby"])
    def test_every_register_state(self, frame):
        commits = steered_to = 0
        for mig_valid in (0, 1):
            for slot in (self.MIG_SLOT - 1, self.MIG_SLOT, self.MIG_SLOT + 1):
                for last_boundary in (slot - 1, slot, slot + 1):
                    state = (mig_valid, slot, last_boundary, frame)
                    live = self.outcome(FronthaulMiddlebox, *state)
                    assert live == self.outcome(TwoCallMiddlebox, *state), state
                    commits += live[3]["migrations_executed"]
                    steered_to |= 1 << live[2]["ru_to_phy"] if live[0] is not None else 0
        # Both halves of the table were reached: a commit happened
        # wherever a pending boundary was met, and nowhere else.
        assert commits == 6
        assert steered_to


class TestFailureNotificationPath:
    def test_detection_emits_notification_to_orion(self):
        sim, switch, mbox, nodes = build_fabric()
        mbox.detector.set_monitor(0, True)
        # No heartbeats at all: the pktgen ticks saturate the counter.
        sim.run_until(mbox.detector.config.timeout_ns * 2)
        orion_frames = nodes["orion"][0].received
        assert len(orion_frames) == 1
        notification = orion_frames[0][1].payload
        assert isinstance(notification, FailureNotification)
        assert notification.phy_id == 0

    def test_set_monitor_command_via_packet(self):
        sim, switch, mbox, nodes = build_fabric()
        switch.inject(command_frame(SetMonitor(phy_id=1, enabled=True)))
        sim.run_until(1000)
        assert mbox.detector.is_monitored(1)
        switch.inject(command_frame(SetMonitor(phy_id=1, enabled=False)))
        sim.run_until(2000)
        assert not mbox.detector.is_monitored(1)


class TestL2Fallback:
    def test_non_fronthaul_traffic_forwarded_by_mac(self):
        sim, switch, mbox, nodes = build_fabric()
        frame = EthernetFrame(
            src=ORION_MAC, dst=PHY1_MAC, ethertype=EtherType.IPV4,
            payload="udp", wire_bytes=100,
        )
        switch.ingress(frame, nodes["orion"][1].number)
        sim.run_until(sim.now + 10_000)
        assert len(nodes["phy1"][0].received) == 1


#: Accesses one register array may take in one packet pass. A stateful
#: register is bound to pipeline stages, so a Tofino-class switch allows
#: only a small fixed number per pass — the limit SMARTHO designs its
#: in-switch state around. ``_steer``'s committing frame sits at it.
MAX_REGISTER_ACCESSES_PER_PASS = 4


class TestRegisterAccessCensus:
    """Each ``process()`` call touches each register array at most
    :data:`MAX_REGISTER_ACCESSES_PER_PASS` times, counted at run time
    over every pass: uplink and downlink fronthaul (primary and standby),
    the committing frame of each direction, frames before and after a
    boundary, a failover's and a planned migration's ``migrate_on_slot``
    and its retransmitted copies, the unaligned ablation, ``set_monitor``
    and plain L2."""

    @pytest.fixture
    def census(self, monkeypatch):
        """Per ``process()`` call: register name -> accesses."""
        calls = []
        current = []

        def counted(method):
            def access(array, index, *args):
                if current:
                    counts = current[-1]
                    counts[array.name] = counts.get(array.name, 0) + 1
                return method(array, index, *args)
            return access

        def process(mbox, frame, in_port, switch):
            current.append({})
            try:
                return live_process(mbox, frame, in_port, switch)
            finally:
                calls.append(current.pop())

        live_process = FronthaulMiddlebox.process
        monkeypatch.setattr(RegisterArray, "read", counted(RegisterArray.read))
        monkeypatch.setattr(RegisterArray, "write", counted(RegisterArray.write))
        monkeypatch.setattr(FronthaulMiddlebox, "process", process)
        return calls

    @staticmethod
    def worst(calls):
        worst = {}
        for counts in calls:
            for name, accesses in counts.items():
                worst[name] = max(worst.get(name, 0), accesses)
        return worst

    def test_a_cell_failover_and_planned_migration(self, census):
        cell = build_slingshot_cell(CellConfig(seed=0))
        cell.run_for(30 * MS)
        warm = Checkpoint.capture(cell)
        failover = warm.restore()
        failover.kill_phy_at(0, failover.sim.now + 1)
        failover.run_for(10 * MS)
        planned = warm.restore()
        planned.planned_migration()
        planned.run_for(10 * MS)
        for branch in (failover, planned):
            stats = branch.middlebox.stats
            assert stats.migrations_executed == 1
            assert stats.duplicate_commands_ignored > 0
            assert stats.ul_steered and stats.dl_forwarded and stats.dl_filtered
        assert failover.middlebox.stats.notifications_sent == 1
        worst = self.worst(census)
        assert max(worst.values()) <= MAX_REGISTER_ACCESSES_PER_PASS, worst
        assert worst["mig_valid"] == MAX_REGISTER_ACCESSES_PER_PASS

    def test_every_fabric_pass(self, census):
        sim, switch, mbox, nodes = build_fabric()
        ru, phy0, phy1 = (nodes[name][1].number for name in ("ru", "phy0", "phy1"))
        orion = nodes["orion"][1].number
        # An uplink commits one boundary, a downlink the next. Frames of
        # a slot before the last boundary arrive with a migration pending
        # and without one, then frames after the second boundary.
        frames = [
            (ul_frame(10), ru),
            (dl_frame(10), phy0),
            (command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=100)), orion),
            (ul_frame(100), ru),
            (command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=100)), orion),
            (command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=0, slot=200)), orion),
            (ul_frame(50), ru),
            (dl_frame(50, PHY0_MAC, 0), phy0),
            (dl_frame(200, PHY0_MAC, 0), phy0),
            (ul_frame(150), ru),
            (dl_frame(150, PHY1_MAC, 1), phy1),
            (ul_frame(201), ru),
            (dl_frame(201, PHY1_MAC, 1), phy1),
            (command_frame(SetMonitor(phy_id=1, enabled=True)), orion),
            (ul_frame(5, src=MacAddress(0x99)), 9),
            (EthernetFrame(
                src=ORION_MAC, dst=PHY1_MAC, ethertype=EtherType.IPV4,
                payload="udp", wire_bytes=100,
            ), orion),
        ]
        for frame, port in frames:
            switch.ingress(frame, port)
        mbox.config.align_to_tti = False
        switch.inject(command_frame(MigrateOnSlot(ru_id=0, dest_phy_id=1, slot=300)))
        stats = mbox.stats
        assert stats.migrations_executed == 3
        assert stats.duplicate_commands_ignored == 1
        assert (stats.ul_steered, stats.dl_forwarded, stats.dl_filtered) == (5, 4, 1)
        assert stats.unknown_dropped == 1
        assert len(census) == len(frames) + 1
        worst = self.worst(census)
        assert max(worst.values()) <= MAX_REGISTER_ACCESSES_PER_PASS, worst
        assert worst["mig_valid"] == MAX_REGISTER_ACCESSES_PER_PASS
