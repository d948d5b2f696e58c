"""Tests for Orion's transport-loss repair (§6.1).

The inter-Orion UDP transport is stateless; lost datagrams would starve
the PHY of its mandatory per-slot TTI requests. The PHY-side Orion
detects slot-sequence gaps and injects null requests so the PHY's FAPI
contract holds through rare datacenter losses.
"""

import numpy as np
import pytest

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.core.orion import OrionDatagram, PhySideOrion
from repro.fapi.channels import ShmChannel
from repro.fapi.messages import DlTtiRequest, UlTtiRequest, is_null_request
from repro.net.addresses import MacAddress
from repro.net.packet import EtherType, EthernetFrame
from repro.phy.numerology import SlotClock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import US, s_to_ns


class MessageSink:
    #: Standing in for a PHY: a PHY-side Orion repairs losses for a live one.
    alive = True

    def __init__(self):
        self.messages = []

    def receive_fapi(self, message, channel):
        self.messages.append(message)


def build_orion(sim):
    orion = PhySideOrion(
        sim, phy_id=0, mac=MacAddress(0x200), slot_clock=SlotClock(),
        trace=TraceRecorder(), name="orion-phy0",
    )
    sink = MessageSink()
    orion.shm_to_phy = ShmChannel(sim, sink, name="shm-orion0->phy")
    orion.shm_to_phy.latency_ns = 0
    return orion, sink


def relay(sim):
    """Run the relaying, which takes no time here, short of the
    watchdog's first tick: only arrival-time gap repair acts."""
    sim.run_for(10 * US)


def deliver(orion, message):
    orion.receive_frame(
        EthernetFrame(
            src=MacAddress(0x100), dst=orion.mac, ethertype=EtherType.IPV4,
            payload=OrionDatagram(message=message, phy_id=0, is_response=False),
            wire_bytes=100,
        ),
        ingress=None,
    )


@pytest.mark.usefixtures("zero_orion_service")
class TestGapRepair:
    def test_contiguous_slots_need_no_repair(self):
        sim = Simulator()
        orion, sink = build_orion(sim)
        for slot in range(5):
            deliver(orion, UlTtiRequest(cell_id=0, slot=slot, pdus=[]))
        relay(sim)
        assert orion.nulls_injected == 0
        assert [m.slot for m in sink.messages] == [0, 1, 2, 3, 4]

    def test_single_lost_slot_repaired_with_null(self):
        sim = Simulator()
        orion, sink = build_orion(sim)
        deliver(orion, UlTtiRequest(cell_id=0, slot=10, pdus=[]))
        deliver(orion, UlTtiRequest(cell_id=0, slot=12, pdus=[]))  # 11 lost.
        relay(sim)
        assert orion.nulls_injected == 1
        slots = [m.slot for m in sink.messages]
        assert slots == [10, 11, 12]
        assert is_null_request(sink.messages[1])

    def test_burst_loss_repaired_in_order(self):
        sim = Simulator()
        orion, sink = build_orion(sim)
        deliver(orion, DlTtiRequest(cell_id=0, slot=0, pdus=[]))
        deliver(orion, DlTtiRequest(cell_id=0, slot=4, pdus=[]))
        relay(sim)
        assert [m.slot for m in sink.messages] == [0, 1, 2, 3, 4]
        assert orion.nulls_injected == 3

    def test_ul_and_dl_sequences_tracked_separately(self):
        sim = Simulator()
        orion, sink = build_orion(sim)
        deliver(orion, UlTtiRequest(cell_id=0, slot=0, pdus=[]))
        deliver(orion, DlTtiRequest(cell_id=0, slot=0, pdus=[]))
        deliver(orion, UlTtiRequest(cell_id=0, slot=1, pdus=[]))
        deliver(orion, DlTtiRequest(cell_id=0, slot=1, pdus=[]))
        relay(sim)
        assert orion.nulls_injected == 0

    def test_cells_tracked_separately(self):
        sim = Simulator()
        orion, sink = build_orion(sim)
        deliver(orion, UlTtiRequest(cell_id=0, slot=5, pdus=[]))
        deliver(orion, UlTtiRequest(cell_id=1, slot=9, pdus=[]))
        relay(sim)
        assert orion.nulls_injected == 0  # First sighting per cell.

    def test_out_of_order_delivery_not_double_repaired(self):
        sim = Simulator()
        orion, sink = build_orion(sim)
        deliver(orion, UlTtiRequest(cell_id=0, slot=5, pdus=[]))
        deliver(orion, UlTtiRequest(cell_id=0, slot=4, pdus=[]))  # Late.
        deliver(orion, UlTtiRequest(cell_id=0, slot=6, pdus=[]))
        relay(sim)
        assert orion.nulls_injected == 0

    def test_repair_burst_bounded(self):
        """A huge sequence jump (e.g. after a long pause) must not flood
        the PHY with thousands of nulls."""
        sim = Simulator()
        orion, sink = build_orion(sim)
        deliver(orion, UlTtiRequest(cell_id=0, slot=0, pdus=[]))
        deliver(orion, UlTtiRequest(cell_id=0, slot=10_000, pdus=[]))
        relay(sim)
        assert orion.nulls_injected <= 8


class TestEndToEndLoss:
    def test_phy_survives_transport_loss(self):
        """Drop a burst of L2->PHY datagrams on the wire: the PHY must
        not crash (it would after 4 slots without TTI requests)."""
        cell = build_slingshot_cell(
            CellConfig(seed=77, ue_profiles=[UeProfile(1, "UE", 16.0)])
        )
        cell.run_for(s_to_ns(0.3))
        phy_orion = cell.phy_servers[0].orion
        original = phy_orion.receive_frame
        dropped = {"count": 0}

        def lossy(frame, ingress):
            payload = frame.payload
            # Drop the next ~2 slots' worth of requests.
            if dropped["count"] < 6 and isinstance(payload, OrionDatagram):
                if isinstance(payload.message, (UlTtiRequest, DlTtiRequest)):
                    dropped["count"] += 1
                    return
            original(frame, ingress)

        phy_orion.receive_frame = lossy
        cell.run_for(s_to_ns(0.3))
        assert dropped["count"] == 6
        assert cell.phy_servers[0].phy.alive
        assert phy_orion.nulls_injected >= 2
        assert cell.ue(1).stats.rlf_events == 0


class TestDeadPrimaryGoesQuiet:
    """Loss repair serves a live PHY (§6.1): a crashed one's watchdog stops
    at its first tick after the crash, a restarted one's re-arms at its
    first request, and a hung one (a gray failure) keeps it."""

    @staticmethod
    def _cell():
        cell = build_slingshot_cell(
            CellConfig(seed=77, ue_profiles=[UeProfile(1, "UE", 16.0)])
        )
        cell.run_for(s_to_ns(0.3))
        return cell

    def test_crash_stops_the_watchdog_and_restart_rearms_it(self):
        cell = self._cell()
        orion = cell.phy_servers[0].orion
        assert orion._watchdog_running
        kill_ns = cell.sim.now + 100_000
        cell.kill_phy_at(0, kill_ns)
        armed = []
        start = orion._start_watchdog
        orion._start_watchdog = lambda: (
            orion._watchdog_running or armed.append(cell.sim.now) or start()
        )
        cell.run_for(s_to_ns(0.05))
        injected = orion.nulls_injected
        assert not orion._watchdog_running and orion._last_tti_slot == {}
        assert armed == []    # requests still in flight to the dead PHY arm nothing
        assert not [
            event for event in cell.trace.events("orion.watchdog_nulls")
            if event["phy"] == 0 and event.time >= kill_ns
        ]
        cell.run_for(s_to_ns(0.05))
        assert orion.nulls_injected == injected
        restart_ns = cell.sim.now
        cell.phy_servers[0].phy.restart()
        cell.l2_orion.initialize_secondary(0, 0)
        cell.run_for(s_to_ns(0.02))
        assert orion._watchdog_running and orion._last_tti_slot
        assert armed and armed[0] > restart_ns
        assert not [
            event for event in cell.trace.events("orion.loss_repaired")
            if event["phy"] == 0 and event.time >= restart_ns
        ]

    def test_hung_phy_keeps_its_watchdog(self):
        cell = self._cell()
        cell.phy_servers[0].phy.hang("wedged")
        cell.run_for(s_to_ns(0.05))
        assert cell.phy_servers[0].orion._watchdog_running
