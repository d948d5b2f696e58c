"""Tests for the UE model: grants, feedback, RLF machinery."""

import numpy as np
import pytest

from repro.fronthaul.air import AirInterface
from repro.fronthaul.oran import UlGrant
from repro.l2.rlc import RlcBearerConfig, RlcMode
from repro.phy.channel import UeChannelModel
from repro.phy.modulation import Modulation
from repro.phy.numerology import SlotClock
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, US
from repro.ue.ue import UserEquipment


def build_ue(sim):
    air = AirInterface()
    ue = UserEquipment(
        sim=sim,
        ue_id=1,
        slot_clock=SlotClock(),
        air=air,
        channel=UeChannelModel(
            np.random.default_rng(0),
            mean_snr_db=18.0,
            shadow_sigma_db=1.2,
            fade_probability=0.0005,
        ),
        rng=np.random.default_rng(1),
        bearers=[
            RlcBearerConfig(bearer_id=1, mode=RlcMode.UM),
            RlcBearerConfig(bearer_id=2, mode=RlcMode.AM),
        ],
        trace=TraceRecorder(),
        name="ue1",
    )
    ue.on_rlf = lambda _ue: None
    return ue, air


def grant(tb_id=100, new_data=True, tb_bytes=2000):
    return UlGrant(
        ue_id=1, harq_process=0, modulation=Modulation.QAM16,
        prbs=50, new_data=new_data, tb_id=tb_id, tb_bytes=tb_bytes,
    )


class TestGrantHandling:
    def test_grant_triggers_transmission_with_queued_data(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        ue.send_uplink(1, "app-packet", 500)
        air.broadcast_dl_control(10, [grant()], vran_instance_id=1)
        transmission = ue.port.collect_uplink(10)
        assert transmission is not None
        assert transmission.block.tb_id == 100
        sdus = [p.sdu for p in transmission.block.data if hasattr(p, "sdu")]
        assert "app-packet" in sdus

    def test_grant_for_other_ue_ignored(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        other = UlGrant(
            ue_id=2, harq_process=0, modulation=Modulation.QPSK,
            prbs=10, new_data=True, tb_id=7, tb_bytes=100,
        )
        air.broadcast_dl_control(10, [other], vran_instance_id=1)
        assert ue.port.collect_uplink(10) is None

    def test_retransmission_grant_resends_same_block(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        ue.send_uplink(1, "data", 500)
        air.broadcast_dl_control(10, [grant(tb_id=55)], vran_instance_id=1)
        original = ue.port.collect_uplink(10).block
        air.broadcast_dl_control(
            15, [grant(tb_id=55, new_data=False)], vran_instance_id=1
        )
        retx = ue.port.collect_uplink(15).block
        assert retx.tb_id == original.tb_id
        assert retx.retx_index == 1
        assert retx.data is original.data

    def test_retransmission_grant_without_original_sends_padding(self):
        """A retx grant whose original was never built (grant lost in the
        failover blackout) still produces a transmission."""
        sim = Simulator()
        ue, air = build_ue(sim)
        air.broadcast_dl_control(
            10, [grant(tb_id=77, new_data=False)], vran_instance_id=1
        )
        transmission = ue.port.collect_uplink(10)
        assert transmission is not None
        assert transmission.block.tb_id == 77

    def test_bsr_reports_backlog(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        ue.send_uplink(1, "a", 5_000)
        ue.send_uplink(1, "b", 5_000)
        air.broadcast_dl_control(10, [grant(tb_bytes=2_000)], vran_instance_id=1)
        transmission = ue.port.collect_uplink(10)
        assert transmission.bsr_bytes > 0

    def test_detached_ue_ignores_grants(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        ue.attached = False
        ue.port.attached = False
        air.broadcast_dl_control(10, [grant()], vran_instance_id=1)
        assert ue.port.collect_uplink(10) is None


class TestDownlinkDecode:
    def test_dl_block_decoded_and_feedback_queued(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.DOWNLINK, harq_process=2,
            modulation=Modulation.QPSK, prbs=50, data=[], size_bytes=10,
        )
        air.deliver_dl_data(10, block)
        assert ue.stats.dl_tbs_received == 1
        assert ue.stats.dl_crc_ok == 1
        assert ue._pending_feedback[0][3] is True  # ACK queued.

    def test_delivered_sdus_reach_dl_sink(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        received = []
        ue.dl_sink = lambda bearer, sdu: received.append((bearer, sdu))
        from repro.l2.rlc import RlcTransmitter

        tx = RlcTransmitter(RlcBearerConfig(bearer_id=1, mode=RlcMode.UM))
        tx.enqueue("hello", 50)
        pdus = tx.pull(1000)
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.DOWNLINK, harq_process=0,
            modulation=Modulation.QPSK, prbs=50, data=pdus, size_bytes=55,
        )
        air.deliver_dl_data(10, block)
        assert received == [(1, "hello")]


class TestRlf:
    def test_rlf_fires_after_silence(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        fired = []
        ue.on_rlf = fired.append
        sim.run_until(40 * MS)
        assert ue.attached
        sim.run_until(80 * MS)
        assert not ue.attached
        assert fired == [ue]
        assert ue.stats.rlf_events == 1

    def test_control_resets_rlf_timer(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        # Feed control every 10 ms: no RLF ever.
        def feed():
            air.broadcast_dl_control(
                SlotClock().slot_at(sim.now), [], vran_instance_id=1
            )
            sim.schedule(10 * MS, feed)

        sim.schedule(0, feed)
        sim.run_until(400 * MS)
        assert ue.attached
        assert ue.stats.rlf_events == 0

    def test_instance_change_causes_out_of_sync_then_rlf(self):
        """A different vRAN stack taking over (baseline failover) makes
        the UE lose its context: RLF despite continuing control."""
        sim = Simulator()
        ue, air = build_ue(sim)

        def feed(instance):
            air.broadcast_dl_control(
                SlotClock().slot_at(sim.now), [],
                vran_instance_id=instance,
            )

        feed(1)
        sim.run_until(10 * MS)
        for offset in range(1, 30):
            sim.schedule(0, feed, 2)  # Backup stack's identity.
            sim.run_until((10 + offset * 5) * MS)
        assert not ue.attached
        assert ue.stats.rlf_events == 1

    def test_reattach_restores_service(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        sim.run_until(120 * MS)
        assert not ue.attached
        ue.complete_reattach()
        assert ue.attached
        assert ue.port.attached
        assert ue.stats.reattach_completions == 1
        # New instance id accepted after re-establishment.
        air.broadcast_dl_control(400, [grant()], vran_instance_id=2)
        sim.run_until(121 * MS)
        assert ue.attached

    def test_rlf_discards_radio_state(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        ue.send_uplink(1, "queued", 100)
        air.broadcast_dl_control(10, [grant(tb_id=9)], vran_instance_id=1)
        sim.run_until(120 * MS)  # RLF fires.
        assert ue.uplink_backlog_bytes == 0
        assert ue._sent_blocks == {}

    def test_send_uplink_rejected_when_detached(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        sim.run_until(120 * MS)
        assert not ue.send_uplink(1, "x", 10)


class TestControlOnlyTransmissions:
    def test_pucch_carries_feedback_without_grant(self):
        sim = Simulator()
        ue, air = build_ue(sim)
        block = TransportBlock(
            ue_id=1, direction=LinkDirection.DOWNLINK, harq_process=0,
            modulation=Modulation.QPSK, prbs=50, data=[], size_bytes=10,
        )
        # Keep the UE in sync, deliver DL data, then let a U slot pass.
        air.broadcast_dl_control(0, [], vran_instance_id=1)
        air.deliver_dl_data(0, block)
        sim.run_until(4 * MS)  # Covers slot 4 (U) tick.
        captured = air.collect_uplink(4)
        assert captured
        assert captured[0].dl_feedback
        assert ue.stats.control_only_transmissions >= 1
