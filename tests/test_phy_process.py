"""Unit tests for the PHY process (FlexRAN stand-in) in isolation."""

import numpy as np
import pytest

from repro.fapi.channels import ShmChannel
from repro.fapi.messages import (
    ConfigRequest,
    CrcIndication,
    DlTtiRequest,
    PuschPdu,
    RxDataIndication,
    SlotIndication,
    StartRequest,
    TxDataRequest,
    UciIndication,
    UlTtiRequest,
    null_dl_tti,
    null_ul_tti,
)
from repro.fronthaul.oran import CplaneMessage, UplaneDownlink, UplaneUplink
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.phy.channel import ChannelRealization
from repro.phy.modulation import Modulation
from repro.phy.numerology import SlotClock
from repro.phy.process import PhyConfig, PhyProcess
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, US


class FrameSink:
    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def receive_frame(self, frame, ingress):
        self.frames.append((self.sim.now, frame))

    def payloads(self, cls):
        return [f.payload for _, f in self.frames if isinstance(f.payload, cls)]


class FapiSink:
    def __init__(self):
        self.messages = []

    def receive_fapi(self, message, channel):
        self.messages.append(message)

    def of_type(self, cls):
        return [m for m in self.messages if isinstance(m, cls)]


def build_phy(sim):
    sink = FrameSink(sim)
    uplink = Link(sim, sink, bandwidth_bps=0, latency_ns=0)
    phy = PhyProcess(
        sim=sim,
        phy_id=0,
        mac=MacAddress(0x20),
        slot_clock=SlotClock(),
        rng=np.random.default_rng(0),
        config=PhyConfig(),
        uplink=uplink,
        trace=TraceRecorder(),
        name="phy",
    )
    fapi_sink = FapiSink()
    phy.fapi_tx = ShmChannel(sim, fapi_sink, name="shm-phy->l2")
    phy.fapi_tx.latency_ns = 0
    return phy, sink, fapi_sink


def start_cell(phy, cell_id=0, ru_id=0):
    phy.receive_fapi(ConfigRequest(cell_id=cell_id, ru_id=ru_id), channel=None)
    phy.receive_fapi(StartRequest(cell_id=cell_id), channel=None)


def feed_nulls(phy, sim, first_slot, count):
    for slot in range(first_slot, first_slot + count):
        phy.receive_fapi(null_ul_tti(0, slot), channel=None)
        phy.receive_fapi(null_dl_tti(0, slot), channel=None)


class TestHeartbeatEmission:
    def test_cplane_every_slot_even_with_null_work(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 20)
        sim.run_until(10 * MS)
        cplanes = sink.payloads(CplaneMessage)
        slots = {p.abs_slot for p in cplanes}
        # Every started slot produced at least one heartbeat.
        assert set(range(2, 18)).issubset(slots)

    def test_no_emission_before_start(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        phy.receive_fapi(ConfigRequest(cell_id=0, ru_id=0), channel=None)
        sim.run_until(5 * MS)
        assert sink.frames == []

    def test_no_emission_after_crash(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 40)
        sim.run_until(5 * MS)
        phy.crash("killed")
        count = len(sink.frames)
        sim.run_until(10 * MS)
        assert len(sink.frames) == count

    def test_heartbeat_gaps_stay_below_detector_timeout(self):
        """The PHY's transmit jitter must keep every inter-packet gap
        under the 450 us detector budget (§8.6's calibration)."""
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 400)
        sim.run_until(200 * MS)
        times = sorted(t for t, _ in sink.frames)
        gaps = np.diff(times)
        assert gaps.max() < 450 * US


class TestPendingHandleBookkeeping:
    def test_hung_phy_keeps_its_pending_list_bounded(self):
        """A hung PHY keeps heartbeating — two handles a slot — so its
        slot tick has to bound ``_pending`` as a healthy one does; the
        hung branch used to skip the prune and leak 4,000 dead handles a
        simulated second, all cancelled one by one at the eventual crash."""
        sim = Simulator()
        phy, _, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 200)
        # The tick prunes past 64 entries and a null slot adds three.
        bound = 64 + 3
        longest = [0]

        def sample():
            longest[0] = max(longest[0], len(phy._pending))

        sim.schedule_periodic(500 * US, sample)
        sim.run_until(100 * MS)
        assert phy.alive and 40 < longest[0] <= bound
        phy.hang("wedged")
        sim.run_until(300 * MS)
        assert longest[0] <= bound
        noops = sim.cancel_noops
        phy.crash("killed")
        assert sim.cancel_noops - noops < 70


class TestFapiContract:
    def test_crash_after_consecutive_missing_tti(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 6)  # Slots 1-6 covered, then nothing.
        sim.run_until(8 * MS)
        assert not phy.alive

    def test_survives_with_continuous_nulls(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 100)
        sim.run_until(40 * MS)
        assert phy.alive
        assert phy.cpu.null_slots > 70

    def test_null_slots_cost_next_to_nothing(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 100)
        sim.run_until(40 * MS)
        assert phy.cpu.busy_core_us < 200  # ~1 us per null slot.

    def test_restart_requires_reconfiguration(self):
        sim = Simulator()
        phy, sink, _ = build_phy(sim)
        start_cell(phy)
        feed_nulls(phy, sim, 1, 10)
        sim.run_until(3 * MS)
        phy.crash("killed")
        phy.restart(decoder_iterations=12)
        assert phy.alive
        assert phy.cells == {}  # All cell state gone.
        assert phy.config.decoder_iterations == 12


class TestUplinkPipeline:
    def _granted_pdu(self, slot, tb_id=900):
        return PuschPdu(
            ue_id=1, harq_process=0, modulation=Modulation.QAM16,
            prbs=50, new_data=True, tb_id=tb_id, tb_bytes=500,
        )

    def test_capture_decoded_and_indicated_after_pipeline(self):
        sim = Simulator()
        phy, sink, fapi = build_phy(sim)
        start_cell(phy)
        clock = SlotClock()
        ul_slot = 9  # A U slot (9 % 5 == 4).
        for slot in range(1, 16):
            request = UlTtiRequest(cell_id=0, slot=slot, pdus=[])
            if slot == ul_slot:
                request.pdus = [self._granted_pdu(slot)]
            phy.receive_fapi(request, channel=None)
            phy.receive_fapi(null_dl_tti(0, slot), channel=None)
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.UPLINK, harq_process=0,
            modulation=Modulation.QAM16, prbs=50, data=["sdu"],
            size_bytes=500, tb_id=900, slot=ul_slot,
        )
        capture = UplaneUplink(
            ru_id=0, address=clock.address_of(ul_slot), abs_slot=ul_slot,
            block=block, realization=ChannelRealization(16.0),
        )
        # Arrives just after the slot ends, as the RU would send it.
        sim.at(clock.slot_start(ul_slot + 1) + 50 * US,
               phy.receive_frame,
               type("F", (), {"payload": capture})(), None)
        sim.run_until(clock.slot_start(ul_slot + 4))
        crcs = fapi.of_type(CrcIndication)
        assert len(crcs) == 1
        assert crcs[0].results[0].crc_ok
        rx = fapi.of_type(RxDataIndication)
        assert rx[0].payloads[0][3] == ["sdu"]
        # Indication timing: after the 2-slot pipeline, within slot+3.
        assert crcs[0].slot == ul_slot

    def test_missing_capture_decodes_garbage(self):
        sim = Simulator()
        phy, sink, fapi = build_phy(sim)
        start_cell(phy)
        ul_slot = 9
        for slot in range(1, 16):
            request = UlTtiRequest(cell_id=0, slot=slot, pdus=[])
            if slot == ul_slot:
                request.pdus = [self._granted_pdu(slot)]
            phy.receive_fapi(request, channel=None)
            phy.receive_fapi(null_dl_tti(0, slot), channel=None)
        sim.run_until(8 * MS)
        crcs = fapi.of_type(CrcIndication)
        assert len(crcs) == 1
        assert not crcs[0].results[0].crc_ok
        assert phy.codec.stats.garbage_decodes == 1


class TestDownlinkEmission:
    def test_dl_data_emitted_with_payload(self):
        sim = Simulator()
        phy, sink, fapi = build_phy(sim)
        start_cell(phy)
        dl_slot = 6  # A D slot.
        for slot in range(1, 10):
            phy.receive_fapi(null_ul_tti(0, slot), channel=None)
            request = DlTtiRequest(cell_id=0, slot=slot, pdus=[])
            if slot == dl_slot:
                from repro.fapi.messages import PdschPdu

                request.pdus = [
                    PdschPdu(
                        ue_id=1, harq_process=0, modulation=Modulation.QAM64,
                        prbs=100, new_data=True, tb_id=777, tb_bytes=4000,
                    )
                ]
                phy.receive_fapi(
                    TxDataRequest(cell_id=0, slot=slot, payloads=[(777, ["data"])]),
                    channel=None,
                )
            phy.receive_fapi(request, channel=None)
        sim.run_until(5 * MS)
        dl_packets = sink.payloads(UplaneDownlink)
        assert len(dl_packets) == 1
        assert dl_packets[0].block.tb_id == 777
        assert dl_packets[0].block.data == ["data"]
        assert dl_packets[0].block.size_bytes == 4000
        # Grant info went out in the slot's C-plane.
        cplane = [p for p in sink.payloads(CplaneMessage) if p.abs_slot == dl_slot]
        assert any(p.dl_allocations for p in cplane)
