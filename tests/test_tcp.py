"""Tests for the simplified TCP implementation."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.transport.packet import FlowDirection, Packet
from repro.transport.tcp import TcpConfig, TcpReceiver, TcpSegment, TcpSender


class PipePair:
    """Wires a sender and receiver through a lossy, delayed pipe."""

    def __init__(self, sim, one_way_ns=5 * MS, config=None):
        self.sim = sim
        self.one_way_ns = one_way_ns
        self.drop_data = set()  # segment seq values to drop once
        self.sender = TcpSender(
            sim, "flow", 1, 1, FlowDirection.UPLINK,
            transmit=self._to_receiver, config=config,
        )
        self.receiver = TcpReceiver(
            sim, "flow", 1, 1, FlowDirection.DOWNLINK,
            transmit_ack=self._to_sender,
        )

    def _to_receiver(self, packet):
        segment = packet.payload
        if segment.seq in self.drop_data:
            self.drop_data.discard(segment.seq)
            return
        self.sim.schedule(self.one_way_ns, self.receiver.on_segment, segment)

    def _to_sender(self, packet):
        self.sim.schedule(self.one_way_ns, self.sender.on_ack, packet.payload)


class TestBulkTransfer:
    def test_lossless_delivery_in_order(self):
        sim = Simulator()
        pipe = PipePair(sim)
        pipe.sender.start()
        sim.run_until(200 * MS)
        pipe.sender.stop()
        assert pipe.receiver.bytes_delivered > 0
        assert pipe.receiver.rcv_nxt == pipe.receiver.bytes_delivered

    def test_slow_start_doubles_window(self):
        sim = Simulator()
        config = TcpConfig(initial_cwnd_segments=2)
        pipe = PipePair(sim, config=config)
        pipe.sender.start()
        initial = pipe.sender.cwnd
        sim.run_until(60 * MS)  # Several RTTs.
        assert pipe.sender.cwnd > 4 * initial

    def test_rtt_estimation(self):
        sim = Simulator()
        pipe = PipePair(sim, one_way_ns=7 * MS)
        pipe.sender.start()
        sim.run_until(100 * MS)
        assert pipe.sender.srtt_ns == pytest.approx(14 * MS, rel=0.2)


class TestLossRecovery:
    def test_single_loss_recovers_by_fast_retransmit(self):
        sim = Simulator()
        pipe = PipePair(sim)
        pipe.sender.start()
        sim.run_until(50 * MS)
        victim = pipe.sender.snd_nxt  # Next segment will be dropped.
        pipe.drop_data.add(victim)
        sim.run_until(300 * MS)
        assert pipe.sender.stats.fast_retransmits >= 1
        assert pipe.sender.stats.rto_events == 0
        assert pipe.receiver.rcv_nxt >= victim + 1200

    def test_burst_loss_recovers_without_stall(self):
        """A contiguous burst (what a PHY failover drops) recovers via
        SACK-paced retransmission within a few RTTs."""
        sim = Simulator()
        pipe = PipePair(sim)
        pipe.sender.start()
        sim.run_until(50 * MS)
        start = pipe.sender.snd_nxt
        for i in range(12):
            pipe.drop_data.add(start + i * 1200)
        before = pipe.receiver.bytes_delivered
        sim.run_until(250 * MS)
        assert pipe.receiver.bytes_delivered > before + 12 * 1200
        assert pipe.receiver.rcv_nxt > start + 12 * 1200

    def test_window_reduced_on_fast_retransmit(self):
        sim = Simulator()
        pipe = PipePair(sim)
        pipe.sender.start()
        sim.run_until(50 * MS)
        cwnd_before = pipe.sender.cwnd
        pipe.drop_data.add(pipe.sender.snd_nxt)
        sim.run_until(120 * MS)
        # The recovery episode set ssthresh to half the loss-time pipe;
        # cwnd may have resumed growing since, but from that halved base.
        assert pipe.sender.stats.fast_retransmits >= 1
        assert pipe.sender.ssthresh < cwnd_before

    def test_total_blackout_recovers_via_rto(self):
        sim = Simulator()
        pipe = PipePair(sim)
        pipe.sender.start()
        sim.run_until(40 * MS)
        # Total blackout: both directions dead for 300 ms — nothing can
        # generate dupacks, so only the RTO can recover.
        original_to_receiver = pipe._to_receiver
        original_to_sender = pipe._to_sender
        blackout_until = sim.now + 300 * MS

        def gated_data(packet):
            if sim.now >= blackout_until:
                original_to_receiver(packet)

        def gated_ack(packet):
            if sim.now >= blackout_until:
                original_to_sender(packet)

        pipe.sender.transmit = gated_data
        pipe.receiver.transmit_ack = gated_ack
        progress_before = pipe.receiver.rcv_nxt
        sim.run_until(1500 * MS)
        assert pipe.sender.stats.rto_events >= 1
        assert pipe.receiver.rcv_nxt > progress_before  # Recovered.

    def test_rto_backoff_doubles(self):
        sim = Simulator()
        sender = TcpSender(
            sim, "f", 1, 1, FlowDirection.UPLINK, transmit=lambda p: None
        )
        sender.start()  # Transmits into the void: nothing ever acked.
        sim.run_until(2_000 * MS)
        assert sender.stats.rto_events >= 3
        assert sender.rto_ns > sender.config.min_rto_ns


class TestReceiver:
    def _segment(self, seq, length=1200):
        return TcpSegment(flow_id="f", seq=seq, length=length, ack=0)

    def test_in_order_acks_cumulative(self):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(
            sim, "f", 1, 1, FlowDirection.DOWNLINK,
            transmit_ack=lambda p: acks.append(p.payload.ack),
        )
        receiver.on_segment(self._segment(0))
        receiver.on_segment(self._segment(1200))
        assert acks == [1200, 2400]

    def test_gap_produces_duplicate_acks_with_sack(self):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(
            sim, "f", 1, 1, FlowDirection.DOWNLINK,
            transmit_ack=lambda p: acks.append(p.payload),
        )
        receiver.on_segment(self._segment(0))
        receiver.on_segment(self._segment(2400))  # 1200 missing.
        receiver.on_segment(self._segment(3600))
        assert [a.ack for a in acks] == [1200, 1200, 1200]
        assert acks[-1].sack_blocks == ((2400, 4800),)

    def test_gap_fill_releases_buffered_data(self):
        sim = Simulator()
        acks = []
        receiver = TcpReceiver(
            sim, "f", 1, 1, FlowDirection.DOWNLINK,
            transmit_ack=lambda p: acks.append(p.payload.ack),
        )
        receiver.on_segment(self._segment(0))
        receiver.on_segment(self._segment(2400))
        receiver.on_segment(self._segment(1200))
        assert acks[-1] == 3600
        assert receiver.bytes_delivered == 3600

    def test_duplicate_segment_ignored_for_goodput(self):
        sim = Simulator()
        receiver = TcpReceiver(
            sim, "f", 1, 1, FlowDirection.DOWNLINK, transmit_ack=lambda p: None
        )
        receiver.on_segment(self._segment(0))
        receiver.on_segment(self._segment(0))
        assert receiver.bytes_delivered == 1200

    def test_sack_blocks_merge_contiguous_ranges(self):
        sim = Simulator()
        receiver = TcpReceiver(
            sim, "f", 1, 1, FlowDirection.DOWNLINK, transmit_ack=lambda p: None
        )
        receiver.on_segment(self._segment(2400))
        receiver.on_segment(self._segment(3600))
        receiver.on_segment(self._segment(6000))
        assert receiver._sack_blocks() == ((2400, 4800), (6000, 7200))


class TestLostThenSackedEdge:
    """Pins, does not bless, a suspected over-retransmission (DESIGN.md
    section 6, ROADMAP "The two pins"): a segment RACK marked lost whose original
    then arrives — HARQ delivered it late — is SACKed *and* stays in
    ``_lost``. ``_pipe()`` subtracts it twice and ``_fill_window`` still
    retransmits it. Fixing it moves digests, so it gets a PR of its own."""

    def _ack(self, ack, *blocks, ts_echo=0):
        return TcpSegment(
            flow_id="f", seq=0, length=0, ack=ack * 1200, ts_echo=ts_echo,
            sack_blocks=tuple((a * 1200, b * 1200) for a, b in blocks),
        )

    def test_segment_marked_lost_then_sacked_is_still_retransmitted(self):
        sim = Simulator()
        sent = []
        sender = TcpSender(
            sim, "f", 1, 1, FlowDirection.DOWNLINK,
            transmit=lambda p: sent.append(p.payload.seq // 1200),
        )
        sim.run_until(1 * MS)
        sender.start()
        assert sent == list(range(10))
        # Segment 0 arrives; 1 and 2 are held up by HARQ; 3.. arrive.
        sim.run_until(11 * MS)
        sender.on_ack(self._ack(1, ts_echo=1 * MS))
        sim.run_until(12 * MS)
        sender.on_ack(self._ack(1, (3, 10)))
        assert sent == list(range(19)) and not sender._lost
        # A segment sent 10 ms after 1 and 2 is delivered: RACK gives up
        # on both. The front hole goes out at once; 2 waits for pipe room.
        sim.run_until(22 * MS)
        sender.on_ack(self._ack(1, (3, 12)))
        assert sender.in_fast_recovery
        assert sent[19:] == [1] and sender._lost == {2 * 1200}
        pipe_before = sender._pipe()
        # The late original of 2 arrives after all and is SACKed.
        sender.on_ack(self._ack(1, (2, 12)))
        assert 2 * 1200 in sender._sacked and 2 * 1200 in sender._lost
        assert sender._pipe() == pipe_before - 1200  # Counted out twice.
        assert sent[19:] == [1]
        # Once the pipe drains, the delivered segment is sent again.
        sender.on_ack(self._ack(1, (2, 19)))
        assert sent[19:21] == [1, 2]
        assert sender.stats.retransmissions == 2
        assert 2 * 1200 in sender._sacked and 2 * 1200 not in sender._lost
