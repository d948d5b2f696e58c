"""Tests for the MAC scheduler (L2)."""

import pytest

from repro.fapi.channels import ShmChannel
from repro.fapi.messages import (
    CrcIndication,
    CrcResult,
    DlTtiRequest,
    HarqFeedback,
    TxDataRequest,
    UciIndication,
    UlTtiRequest,
)
from repro.l2 import mac as mac_module
from repro.l2.mac import L2Process, McsEntry, McsTable
from repro.l2.rlc import RlcBearerConfig, RlcMode
from repro.phy.modulation import Modulation
from repro.phy.numerology import TDD, SlotClock, SlotType
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS


class FapiSink:
    def __init__(self):
        self.messages = []

    def receive_fapi(self, message, channel):
        self.messages.append(message)

    def of_type(self, cls):
        return [m for m in self.messages if isinstance(m, cls)]


def build_l2(sim, monkeypatch=None, **constants):
    """An L2 on a zero-latency FAPI sink; ``constants`` (lower-case names)
    override the scheduler's module constants for the test."""
    for name, value in constants.items():
        monkeypatch.setattr(mac_module, name.upper(), value)
    l2 = L2Process(
        sim, slot_clock=SlotClock(), cell_id=0, ru_id=0, trace=TraceRecorder(),
        name="l2",
    )
    l2.uplink_sink = lambda ue_id, bearer_id, sdu: None
    sink = FapiSink()
    channel = ShmChannel(sim, sink, name="shm-l2->phy")
    channel.latency_ns = 0
    l2.set_fapi_channel(channel)
    return l2, sink


def bearers():
    return [RlcBearerConfig(bearer_id=1, mode=RlcMode.UM)]


class TestMcsTable:
    def test_thresholds(self):
        table = McsTable()
        assert table.select(0.0).modulation is Modulation.QPSK
        assert table.select(8.0).modulation is Modulation.QAM16
        assert table.select(20.0).modulation is Modulation.QAM64

    def test_custom_entries_sorted(self):
        table = McsTable([
            McsEntry(10.0, Modulation.QAM64, 0.5),
            McsEntry(-100.0, Modulation.QPSK, 0.5),
        ])
        assert table.select(5.0).modulation is Modulation.QPSK


class TestTtiGeneration:
    def test_tti_requests_every_slot_for_both_directions(self):
        """FAPI contract: UL_TTI and DL_TTI in every slot, null or not."""
        sim = Simulator()
        l2, sink = build_l2(sim)
        l2.start()
        sim.run_until(10 * MS)  # 20 slots.
        ul = sink.of_type(UlTtiRequest)
        dl = sink.of_type(DlTtiRequest)
        assert len(ul) >= 18
        assert len(dl) >= 18
        ul_slots = [m.slot for m in ul]
        assert ul_slots == sorted(ul_slots)
        assert len(set(ul_slots)) == len(ul_slots)

    def test_schedule_ahead_depth(self):
        """Each request is generated schedule_ahead_slots before air time
        (Fig 7's FAPI transfer budget)."""
        sim = Simulator()
        l2, sink = build_l2(sim)
        sent = []  # (message, send time); holding each keeps its id unique.
        original = l2.fapi_tx.send

        def tap(message):
            sent.append((message, sim.now))
            original(message)

        l2.fapi_tx.send = tap
        l2.start()
        sim.run_until(5 * MS)
        generated_at = {id(message): now for message, now in sent}
        clock = SlotClock()
        for message in sink.of_type(UlTtiRequest):
            generation_slot = clock.slot_at(generated_at[id(message)])
            assert message.slot - generation_slot == mac_module.SCHEDULE_AHEAD_SLOTS

    def test_idle_cell_sends_null_requests(self):
        sim = Simulator()
        l2, sink = build_l2(sim)
        l2.start()
        sim.run_until(5 * MS)
        assert all(m.is_null for m in sink.of_type(DlTtiRequest))

    def test_ul_pdus_only_in_uplink_slots(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=1)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        sim.run_until(20 * MS)
        for message in sink.of_type(UlTtiRequest):
            if message.pdus:
                assert TDD.slot_type(message.slot) is SlotType.UPLINK


class TestDownlinkScheduling:
    def test_dl_data_scheduled_with_tx_data(self):
        sim = Simulator()
        l2, sink = build_l2(sim)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        l2.send_downlink(1, 1, "packet", 500)
        sim.run_until(6 * MS)
        dl_with_work = [m for m in sink.of_type(DlTtiRequest) if m.pdus]
        tx_data = sink.of_type(TxDataRequest)
        assert dl_with_work
        assert tx_data
        pdu = dl_with_work[0].pdus[0]
        assert pdu.ue_id == 1
        assert tx_data[0].payloads[0][0] == pdu.tb_id

    def test_mcs_follows_reported_snr(self):
        sim = Simulator()
        l2, sink = build_l2(sim)
        l2.register_ue(1, bearers(), snr_db=20.0)
        l2.start()
        l2.send_downlink(1, 1, "x", 100)
        sim.run_until(6 * MS)
        pdu = next(m for m in sink.of_type(DlTtiRequest) if m.pdus).pdus[0]
        assert pdu.modulation is Modulation.QAM64

    def test_nack_triggers_retransmission_same_tb(self):
        sim = Simulator()
        l2, sink = build_l2(sim)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        l2.send_downlink(1, 1, "x", 100)
        sim.run_until(6 * MS)
        pdu = next(m for m in sink.of_type(DlTtiRequest) if m.pdus).pdus[0]
        l2.receive_fapi(
            UciIndication(
                cell_id=0, slot=pdu.tb_id,
                feedback=[HarqFeedback(1, pdu.harq_process, pdu.tb_id, ack=False)],
            ),
            channel=None,
        )
        sim.run_until(12 * MS)
        retx = [
            m for m in sink.of_type(DlTtiRequest)
            if m.pdus and not m.pdus[0].new_data
        ]
        assert retx
        assert retx[0].pdus[0].tb_id == pdu.tb_id
        assert l2.stats.dl_tbs_retransmitted >= 1

    def test_ack_frees_harq_process(self):
        sim = Simulator()
        l2, sink = build_l2(sim)
        ctx = l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        l2.send_downlink(1, 1, "x", 100)
        sim.run_until(6 * MS)
        pdu = next(m for m in sink.of_type(DlTtiRequest) if m.pdus).pdus[0]
        l2.receive_fapi(
            UciIndication(
                cell_id=0, slot=0,
                feedback=[HarqFeedback(1, pdu.harq_process, pdu.tb_id, ack=True)],
            ),
            channel=None,
        )
        assert pdu.harq_process not in ctx.dl_outstanding

    def test_dtx_timeout_retransmits(self, monkeypatch):
        """No feedback at all (PHY dead) must still lead to
        retransmission — the self-healing behaviour failover relies on."""
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, harq_timeout_slots=6)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        l2.send_downlink(1, 1, "x", 100)
        sim.run_until(20 * MS)
        assert l2.stats.dl_tbs_retransmitted >= 1


class TestUplinkScheduling:
    def test_no_grants_without_bsr_or_poll(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=10_000)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        sim.run_until(20 * MS)
        assert l2.stats.ul_grants_issued <= 1

    def test_bsr_attracts_grants(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=10_000)
        ctx = l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        sim.run_until(2 * MS)
        l2.receive_fapi(
            UciIndication(cell_id=0, slot=0, bsr_reports=[(1, 50_000)]),
            channel=None,
        )
        before = l2.stats.ul_grants_issued
        sim.run_until(10 * MS)
        assert l2.stats.ul_grants_issued > before

    def test_poll_grants_for_idle_ue(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=10)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        sim.run_until(50 * MS)
        assert 2 <= l2.stats.ul_grants_issued <= 25

    def test_crc_failure_grants_retransmission(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=5)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()
        sim.run_until(10 * MS)
        granted = [m for m in sink.of_type(UlTtiRequest) if m.pdus]
        assert granted
        pdu = granted[0].pdus[0]
        l2.receive_fapi(
            CrcIndication(
                cell_id=0, slot=pdu.tb_id,
                results=[CrcResult(1, pdu.harq_process, pdu.tb_id, False, 12.0)],
            ),
            channel=None,
        )
        sim.run_until(20 * MS)
        retx = [
            m for m in sink.of_type(UlTtiRequest)
            if m.pdus and not m.pdus[0].new_data
        ]
        assert retx
        assert retx[0].pdus[0].tb_id == pdu.tb_id

    def test_harq_gives_up_after_max_retx(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=5, max_harq_retx=2)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.start()

        def nack_everything():
            for message in sink.of_type(UlTtiRequest):
                for pdu in message.pdus:
                    l2.receive_fapi(
                        CrcIndication(
                            cell_id=0, slot=message.slot,
                            results=[CrcResult(1, pdu.harq_process, pdu.tb_id,
                                               False, 12.0)],
                        ),
                        channel=None,
                    )
            sink.messages.clear()

        for _ in range(20):
            sim.run_for(5 * MS)
            nack_everything()
        assert l2.stats.ul_harq_failures >= 1

    def test_deregistered_ue_not_scheduled(self, monkeypatch):
        sim = Simulator()
        l2, sink = build_l2(sim, monkeypatch, ul_poll_interval_slots=1)
        l2.register_ue(1, bearers(), snr_db=15.0)
        l2.deregister_ue(1)
        l2.start()
        sim.run_until(10 * MS)
        assert all(not m.pdus for m in sink.of_type(UlTtiRequest))
