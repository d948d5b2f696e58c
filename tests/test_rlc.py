"""Tests for RLC AM/UM: segmentation, reassembly, status-driven ARQ."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.l2 import rlc as rlc_module
from repro.l2.rlc import (
    RlcBearerConfig,
    RlcMode,
    RlcPdu,
    RlcReceiver,
    RlcStatus,
    RlcTransmitter,
)


def am_config():
    return RlcBearerConfig(bearer_id=1, mode=RlcMode.AM)


def um_config():
    return RlcBearerConfig(bearer_id=2, mode=RlcMode.UM)


class TestTransmitterBasics:
    def test_pull_returns_whole_small_sdu(self):
        tx = RlcTransmitter(um_config())
        tx.enqueue("sdu-a", 100)
        pdus = tx.pull(1000)
        assert len(pdus) == 1
        assert pdus[0].sdu == "sdu-a"
        assert pdus[0].is_last_segment

    def test_segmentation_across_pulls(self):
        tx = RlcTransmitter(um_config())
        tx.enqueue("big", 1000)
        first = tx.pull(505)  # 500 payload after 5B header.
        assert len(first) == 1
        assert not first[0].is_last_segment
        assert first[0].length == 500
        second = tx.pull(505)
        assert second[0].is_last_segment
        assert second[0].offset == 500

    def test_multiple_sdus_fill_one_tb(self):
        tx = RlcTransmitter(um_config())
        for i in range(5):
            tx.enqueue(f"sdu{i}", 50)
        pdus = tx.pull(1000)
        assert len(pdus) == 5

    def test_sequence_numbers_monotonic(self):
        tx = RlcTransmitter(um_config())
        for i in range(4):
            tx.enqueue(i, 10)
        pdus = tx.pull(1000)
        assert [p.seq for p in pdus] == [0, 1, 2, 3]

    def test_queue_overflow_drops(self):
        tx = RlcTransmitter(um_config(), queue_limit_bytes=100)
        assert tx.enqueue("a", 80)
        assert not tx.enqueue("b", 40)
        assert tx.stats.sdus_dropped_overflow == 1

    def test_backlog_tracks_queued_bytes(self):
        tx = RlcTransmitter(um_config())
        tx.enqueue("a", 300)
        assert tx.backlog_bytes == 300
        tx.pull(1000)
        assert tx.backlog_bytes == 0

    def test_reset_clears_everything(self):
        tx = RlcTransmitter(am_config())
        tx.enqueue("a", 100)
        tx.pull(1000)
        tx.reset()
        assert not tx.has_data
        assert tx.pull(1000) == []


class TestReceiverReassembly:
    def test_in_order_delivery(self):
        tx = RlcTransmitter(um_config())
        rx = RlcReceiver(um_config())
        for i in range(3):
            tx.enqueue(f"s{i}", 40)
        delivered = []
        for pdu in tx.pull(1000):
            delivered.extend(rx.on_pdu(pdu))
        assert delivered == ["s0", "s1", "s2"]

    def test_segmented_sdu_reassembled(self):
        tx = RlcTransmitter(um_config())
        rx = RlcReceiver(um_config())
        tx.enqueue("big", 1000)
        pdus = tx.pull(405) + tx.pull(405) + tx.pull(405)
        delivered = []
        for pdu in pdus:
            delivered.extend(rx.on_pdu(pdu))
        assert delivered == ["big"]

    def test_out_of_order_held_then_released(self):
        tx = RlcTransmitter(am_config())
        rx = RlcReceiver(am_config())
        tx.enqueue("a", 40)
        tx.enqueue("b", 40)
        p0, p1 = tx.pull(1000)
        assert rx.on_pdu(p1) == []  # Held: gap at seq 0.
        assert rx.on_pdu(p0) == ["a", "b"]

    def test_duplicates_ignored(self):
        tx = RlcTransmitter(am_config())
        rx = RlcReceiver(am_config())
        tx.enqueue("a", 40)
        (pdu,) = tx.pull(1000)
        assert rx.on_pdu(pdu) == ["a"]
        assert rx.on_pdu(pdu) == []
        assert rx.stats.duplicates == 1

    def test_am_holds_gaps_indefinitely(self):
        rx = RlcReceiver(am_config())
        late = RlcPdu(1, seq=5, sdu_id=9, sdu="x", offset=0, length=10,
                      sdu_total=10, is_last_segment=True)
        assert rx.on_pdu(late) == []
        assert rx.stats.sdus_delivered == 0


class TestUmDelivery:
    """NR RLC UM: complete SDUs deliver immediately (no cross-SDU
    ordering); only same-SDU segments wait, under t-Reassembly."""

    def _pdu(self, seq, sdu=None):
        return RlcPdu(2, seq=seq, sdu_id=seq, sdu=sdu or f"s{seq}", offset=0,
                      length=10, sdu_total=10, is_last_segment=True)

    def _segment(self, seq, sdu_id, offset, length, total, last, sdu=None):
        return RlcPdu(2, seq=seq, sdu_id=sdu_id,
                      sdu=sdu if last else None, offset=offset, length=length,
                      sdu_total=total, is_last_segment=last)

    def test_complete_sdus_deliver_despite_gap(self):
        """A lost PDU never blocks later complete SDUs — the property
        that keeps Table 2 free of 10 ms blackouts."""
        rx = RlcReceiver(um_config())
        assert rx.on_pdu(self._pdu(0)) == ["s0"]
        # Seq 1 lost entirely; seq 2 still delivers immediately.
        assert rx.on_pdu(self._pdu(2)) == ["s2"]
        assert rx.on_pdu(self._pdu(3)) == ["s3"]

    def test_segmented_sdu_waits_for_all_segments(self, monkeypatch):
        monkeypatch.setattr(rlc_module, "UM_T_REASSEMBLY_NS", 1000)
        clock = {"now": 0}
        rx = RlcReceiver(um_config(), now_fn=lambda: clock["now"])
        assert rx.on_pdu(self._segment(0, 9, 0, 10, 20, False)) == []
        assert rx.on_pdu(self._segment(1, 9, 10, 10, 20, True, sdu="big")) == ["big"]
        assert rx.stats.sdus_lost == 0

    def test_partial_sdu_expires_after_t_reassembly(self, monkeypatch):
        monkeypatch.setattr(rlc_module, "UM_T_REASSEMBLY_NS", 100)
        clock = {"now": 0}
        rx = RlcReceiver(um_config(), now_fn=lambda: clock["now"])
        rx.on_pdu(self._segment(0, 9, 0, 10, 20, False))
        clock["now"] = 300
        # Any later PDU triggers expiry of the stale partial.
        rx.on_pdu(self._pdu(5))
        assert rx.stats.sdus_lost == 1
        # The late last segment now finds no partial and cannot complete.
        delivered = rx.on_pdu(self._segment(1, 9, 10, 10, 20, True, sdu="big"))
        assert delivered == []

    def test_duplicate_pdus_dropped(self):
        rx = RlcReceiver(um_config())
        rx.on_pdu(self._pdu(0))
        assert rx.on_pdu(self._pdu(0)) == []
        assert rx.stats.duplicates == 1

    def test_out_of_order_segments_still_assemble(self, monkeypatch):
        monkeypatch.setattr(rlc_module, "UM_T_REASSEMBLY_NS", 10_000)
        clock = {"now": 0}
        rx = RlcReceiver(um_config(), now_fn=lambda: clock["now"])
        assert rx.on_pdu(self._segment(1, 9, 10, 10, 20, True, sdu="big")) == []
        assert rx.on_pdu(self._segment(0, 9, 0, 10, 20, False)) == ["big"]


class TestAmStatusRetransmission:
    def test_status_reports_gap(self):
        tx = RlcTransmitter(am_config())
        rx = RlcReceiver(am_config())
        for i in range(3):
            tx.enqueue(f"s{i}", 40)
        p0, p1, p2 = tx.pull(1000)
        rx.on_pdu(p0)
        rx.on_pdu(p2)  # p1 missing.
        status = rx.build_status()
        assert status.nack_seqs == [1]
        assert status.ack_seq == 3

    def test_nack_triggers_retransmission(self):
        tx = RlcTransmitter(am_config())
        rx = RlcReceiver(am_config())
        for i in range(3):
            tx.enqueue(f"s{i}", 40)
        p0, p1, p2 = tx.pull(1000)
        rx.on_pdu(p0)
        rx.on_pdu(p2)
        tx.on_status(rx.build_status())
        retx = tx.pull(1000)
        assert len(retx) == 1
        assert retx[0].seq == 1
        assert rx.on_pdu(retx[0]) == ["s1", "s2"]

    def test_ack_releases_flight(self):
        tx = RlcTransmitter(am_config())
        tx.enqueue("a", 40)
        (pdu,) = tx.pull(1000)
        tx.on_status(RlcStatus(bearer_id=1, ack_seq=1, nack_seqs=[]))
        # Nacking it later is a no-op: it left the flight.
        tx.on_status(RlcStatus(bearer_id=1, ack_seq=1, nack_seqs=[0]))
        assert tx.pull(1000) == []

    def test_max_retx_discards(self, monkeypatch):
        monkeypatch.setattr(rlc_module, "MAX_RETX", 2)
        tx = RlcTransmitter(am_config())
        tx.enqueue("a", 40)
        tx.pull(1000)
        for _ in range(3):
            tx.on_status(RlcStatus(bearer_id=1, ack_seq=1, nack_seqs=[0]))
            tx.pull(1000)
        assert tx.stats.pdus_discarded == 1

    def test_retx_has_priority_over_new_data(self):
        tx = RlcTransmitter(am_config())
        tx.enqueue("a", 40)
        tx.pull(1000)
        tx.enqueue("b", 40)
        tx.on_status(RlcStatus(bearer_id=1, ack_seq=1, nack_seqs=[0]))
        pdus = tx.pull(50)  # Room for only one PDU.
        assert pdus[0].sdu == "a"

    def test_status_due_only_after_traffic(self):
        rx = RlcReceiver(am_config())
        assert not rx.status_due
        rx.on_pdu(RlcPdu(1, 0, 1, "a", 0, 10, 10, True))
        assert rx.status_due
        rx.build_status()
        assert not rx.status_due


class TestRlcProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=30),
        st.integers(min_value=60, max_value=4000),
    )
    @settings(max_examples=40, deadline=None)
    def test_lossless_path_delivers_all_sdus_in_order(self, sizes, tb_bytes):
        """Any SDU size mix over any TB size arrives complete, in order."""
        tx = RlcTransmitter(am_config(), queue_limit_bytes=10**9)
        rx = RlcReceiver(am_config())
        for index, size in enumerate(sizes):
            tx.enqueue(index, size)
        delivered = []
        for _ in range(10_000):
            pdus = tx.pull(tb_bytes)
            if not pdus:
                break
            for pdu in pdus:
                delivered.extend(rx.on_pdu(pdu))
        assert delivered == list(range(len(sizes)))

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=15),
        st.sets(st.integers(min_value=0, max_value=40), max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_am_recovers_any_loss_pattern(self, sizes, lost_indices):
        """AM + status retransmission recovers arbitrary PDU losses."""
        tx = RlcTransmitter(am_config(), queue_limit_bytes=10**9)
        rx = RlcReceiver(am_config())
        for index, size in enumerate(sizes):
            tx.enqueue(index, size)
        delivered = []
        idle_rounds = 0
        for round_index in range(60):
            pdus = tx.pull(300)
            if not pdus:
                # Periodic status exchange (covers trailing losses via
                # the poll-retransmit rule, which needs two reports).
                tx.on_status(rx.build_status())
                pdus = tx.pull(300)
            if not pdus:
                idle_rounds += 1
                if idle_rounds >= 4:
                    break
                continue
            idle_rounds = 0
            for i, pdu in enumerate(pdus):
                if round_index == 0 and i in lost_indices:
                    continue  # Drop on first transmission only.
                delivered.extend(rx.on_pdu(pdu))
        assert delivered == list(range(len(sizes)))
