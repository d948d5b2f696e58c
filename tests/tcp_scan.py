"""Whole-window-scan TCP sender / receiver — the pre-scoreboard code, a test fixture.

:mod:`repro.transport.tcp` keeps its SACK/RACK scoreboard in ordered
structures so an ACK costs what it changed; this is the code it
replaced, verbatim: ``_apply_sack`` walks ``list(self._flight)`` once per
SACK block, ``_rack_mark_lost`` walks the flight again, the cumulative
ACK rebuilds ``_flight`` / ``_sacked`` / ``_lost`` by comprehension,
``_fill_window`` takes ``min(self._lost)`` and the receiver sorts its
out-of-order store for every segment. ``tests/test_tcp_scoreboard_fuzz.py``
drives both through one lossy, reordering pipe and requires identical
packets, congestion state and scoreboards.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.units import MS, SECOND
from repro.transport.packet import FlowDirection, Packet
from repro.transport import tcp as tcp_module
from repro.transport.tcp import TcpSegment, TcpSenderStats


class ScanTcpSender(Process):
    """Bulk-data TCP sender (the iperf -c side)."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        ue_id: int,
        bearer_id: int,
        direction: FlowDirection,
        transmit: Callable[[Packet], None],
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"tcp-tx:{flow_id}")
        self.flow_id = flow_id
        self.ue_id = ue_id
        self.bearer_id = bearer_id
        self.direction = direction
        self.transmit = transmit
        self.stats = TcpSenderStats()
        # Connection state.
        self.snd_una = 0              # Oldest unacked byte.
        self.snd_nxt = 0              # Next byte to send.
        self.cwnd = tcp_module.INITIAL_CWND_SEGMENTS * tcp_module.MSS_BYTES
        self.ssthresh = 64 * 1024 * 1024
        self.in_fast_recovery = False
        self._recover = 0
        self._dupacks = 0
        # RTT estimation (RFC 6298).
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: int = 0
        self.rto_ns = tcp_module.MIN_RTO_NS
        self._rto_handle: Optional[list] = None
        # SACK scoreboard (RFC 6675) + RACK (time-based loss detection):
        #: Unacked segments by seq (for retransmission).
        self._flight: Dict[int, TcpSegment] = {}
        #: Seqs the receiver reported holding out of order (SACK).
        self._sacked: set = set()
        #: Seqs marked lost and awaiting retransmission.
        self._lost: set = set()
        #: Latest transmit time among delivered (acked/sacked) segments:
        #: RACK's reference point — anything sent a reordering-window
        #: earlier and still undelivered is presumed lost.
        self._rack_time = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the (pre-established) connection and start pushing data."""
        if self._running:
            return
        self._running = True
        self._fill_window()

    def stop(self) -> None:
        self._running = False
        if self._rto_handle is not None:
            self.sim.cancel(self._rto_handle)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def _window(self) -> int:
        rwnd = tcp_module.RECEIVE_WINDOW_SEGMENTS * tcp_module.MSS_BYTES
        return min(int(self.cwnd), rwnd)

    def _pipe(self) -> int:
        """Estimated bytes currently in the network (RFC 6675 'pipe'):
        everything in flight except what SACK says arrived and what has
        been marked lost but not yet retransmitted."""
        mss = tcp_module.MSS_BYTES
        outstanding = len(self._flight) - len(self._sacked) - len(self._lost)
        return max(outstanding, 0) * mss

    def _fill_window(self) -> None:
        """Send while the pipe has room: lost retransmissions first,
        then new data (conservation of packets), bounded per ACK event
        by the burst cap."""
        if not self._running:
            return
        mss = tcp_module.MSS_BYTES
        sent = 0
        while (
            self._pipe() + mss <= self._window()
            and sent < tcp_module.MAX_BURST_SEGMENTS
        ):
            sent += 1
            if self._lost:
                seq = min(self._lost)
                self._lost.discard(seq)
                self._retransmit_one(seq)
                continue
            segment = TcpSegment(
                flow_id=self.flow_id,
                seq=self.snd_nxt,
                length=mss,
                ack=0,
                ts_echo=self.sim.now,
            )
            self.snd_nxt += mss
            self._flight[segment.seq] = segment
            self._emit(segment)
        self._arm_rto()

    def _emit(self, segment: TcpSegment) -> None:
        segment.sent_at = self.sim.now
        self.stats.segments_sent += 1
        packet = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue_id,
            bearer_id=self.bearer_id,
            direction=self.direction,
            payload=segment,
            size_bytes=segment.wire_bytes,
            created_ns=self.sim.now,
            seq=segment.segment_id,
        )
        self.transmit(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _apply_sack(self, segment: TcpSegment) -> None:
        for start, end in segment.sack_blocks:
            for seq in list(self._flight):
                if start <= seq and seq + self._flight[seq].length <= end:
                    if seq not in self._sacked:
                        self._sacked.add(seq)
                        self._lost.discard(seq)
                        self._rack_time = max(
                            self._rack_time, self._flight[seq].sent_at
                        )

    def _reo_wnd(self) -> int:
        """RACK reordering window: a fraction of the smoothed RTT,
        clamped to cover radio-layer (HARQ) reordering."""
        base = (self.srtt_ns or tcp_module.MIN_RTO_NS) // 3
        return min(
            max(base, tcp_module.RACK_REO_WND_MIN_NS),
            tcp_module.RACK_REO_WND_MAX_NS,
        )

    def _rack_mark_lost(self) -> None:
        """Mark undelivered segments sent a reordering-window before the
        newest *delivered* segment as lost. Retransmissions refresh their
        send time, so a lost retransmission is re-detected naturally."""
        deadline = self._rack_time - self._reo_wnd()
        for seq, segment in self._flight.items():
            if seq in self._sacked or seq in self._lost:
                continue
            if segment.sent_at <= deadline:
                self._lost.add(seq)

    def on_ack(self, segment: TcpSegment) -> None:
        """Handle an incoming (possibly duplicate/SACK-bearing) ACK."""
        mss = tcp_module.MSS_BYTES
        self._apply_sack(segment)
        if segment.ack > self.snd_una:
            newly_acked = segment.ack - self.snd_una
            self.stats.bytes_acked += newly_acked
            # Clear acked scoreboard entries; acked data counts as
            # delivered for RACK.
            for seq in [s for s in self._flight if s < segment.ack]:
                self._rack_time = max(self._rack_time, self._flight[seq].sent_at)
                del self._flight[seq]
            self._sacked = {s for s in self._sacked if s >= segment.ack}
            self._lost = {s for s in self._lost if s >= segment.ack}
            self.snd_una = segment.ack
            self._dupacks = 0
            if segment.ts_echo:
                self._sample_rtt(self.sim.now - segment.ts_echo)
            if self.in_fast_recovery and segment.ack >= self._recover:
                # Recovery complete: deflate to the halved window.
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
            elif not self.in_fast_recovery:
                if self.cwnd < self.ssthresh:
                    self.cwnd += newly_acked  # Slow start.
                else:
                    self.cwnd += mss * mss / max(self.cwnd, 1.0)  # AIMD.
            self._arm_rto(reset=True)
        elif segment.ack == self.snd_una and self.flight_size > 0:
            self._dupacks += 1
        # RACK: (re)assess losses on every ACK; enter recovery when a
        # loss is first established.
        self._rack_mark_lost()
        if self._lost and not self.in_fast_recovery:
            self._enter_fast_recovery()
        self._fill_window()

    def _enter_fast_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self.ssthresh = max(self._pipe() / 2, 2 * tcp_module.MSS_BYTES)
        self.cwnd = self.ssthresh
        self.in_fast_recovery = True
        self._recover = self.snd_nxt
        # Guarantee the front hole goes out even when the pipe is full.
        if self.snd_una in self._lost:
            self._lost.discard(self.snd_una)
            self._retransmit_one(self.snd_una)

    def _retransmit_one(self, seq: int) -> None:
        segment = self._flight.get(seq)
        if segment is None:
            return
        self.stats.retransmissions += 1
        refreshed = TcpSegment(
            flow_id=segment.flow_id,
            seq=segment.seq,
            length=segment.length,
            ack=0,
            ts_echo=0,  # Karn's algorithm: no RTT sample from retransmits.
        )
        self._flight[seq] = refreshed
        self._emit(refreshed)

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------
    def _sample_rtt(self, rtt_ns: int) -> None:
        if rtt_ns <= 0:
            return
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
        else:
            delta = abs(self.srtt_ns - rtt_ns)
            self.rttvar_ns = (3 * self.rttvar_ns + delta) // 4
            self.srtt_ns = (7 * self.srtt_ns + rtt_ns) // 8
        self.rto_ns = min(
            max(self.srtt_ns + 4 * self.rttvar_ns, tcp_module.MIN_RTO_NS),
            tcp_module.MAX_RTO_NS,
        )

    def _arm_rto(self, reset: bool = False) -> None:
        if self._rto_handle is not None and (reset or self._rto_handle[3] is None):
            self.sim.cancel(self._rto_handle)
            self._rto_handle = None
        if self.flight_size == 0:
            return
        if self._rto_handle is None or self._rto_handle[3] is None:
            self._rto_handle = self.sim.schedule(self.rto_ns, self._on_rto)

    def _on_rto(self) -> None:
        if not self._running or self.flight_size == 0:
            return
        self.stats.rto_events += 1
        self.ssthresh = max(self._pipe() / 2, 2 * tcp_module.MSS_BYTES)
        self.cwnd = tcp_module.MSS_BYTES
        self.in_fast_recovery = False
        self._dupacks = 0
        self.rto_ns = min(self.rto_ns * 2, tcp_module.MAX_RTO_NS)
        # Everything unsacked is presumed lost; slow start retransmits
        # the backlog under the collapsed window.
        self._lost = {s for s in self._flight if s not in self._sacked}
        self._lost.discard(self.snd_una)
        self._retransmit_one(self.snd_una)
        self._arm_rto(reset=True)


class ScanTcpReceiver(Process):
    """TCP receiver (the iperf -s side): in-order delivery + cumulative ACKs."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        ue_id: int,
        bearer_id: int,
        ack_direction: FlowDirection,
        transmit_ack: Callable[[Packet], None],
        bin_ns: int = 10 * MS,
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"tcp-rx:{flow_id}")
        self.flow_id = flow_id
        self.ue_id = ue_id
        self.bearer_id = bearer_id
        self.ack_direction = ack_direction
        self.transmit_ack = transmit_ack
        self.bin_ns = bin_ns
        self.rcv_nxt = 0
        #: Out-of-order segments held by seq.
        self._ooo: Dict[int, TcpSegment] = {}
        #: Goodput bins: in-order bytes delivered to the application.
        self.bins: Dict[int, int] = {}
        self.bytes_delivered = 0
        self.segments_received = 0

    def _sack_blocks(self, limit: int = 4) -> tuple:
        """Merged (start, end) ranges of the out-of-order store."""
        if not self._ooo:
            return ()
        blocks = []
        start = None
        end = None
        for seq in sorted(self._ooo):
            seg = self._ooo[seq]
            if start is None:
                start, end = seq, seq + seg.length
            elif seq == end:
                end = seq + seg.length
            else:
                blocks.append((start, end))
                start, end = seq, seq + seg.length
        blocks.append((start, end))
        # Most recent ranges matter most; keep the last few.
        return tuple(blocks[-limit:])

    def on_segment(self, segment: TcpSegment) -> None:
        """Accept one data segment; emit a cumulative (+SACK) ACK."""
        self.segments_received += 1
        if segment.length > 0:
            if segment.seq >= self.rcv_nxt and segment.seq not in self._ooo:
                self._ooo[segment.seq] = segment
            delivered = 0
            while self.rcv_nxt in self._ooo:
                seg = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt += seg.length
                delivered += seg.length
            if delivered:
                self.bytes_delivered += delivered
                index = self.sim.now // self.bin_ns
                self.bins[index] = self.bins.get(index, 0) + delivered
        ack = TcpSegment(
            flow_id=self.flow_id,
            seq=0,
            length=0,
            ack=self.rcv_nxt,
            ts_echo=segment.ts_echo,
            sack_blocks=self._sack_blocks(),
        )
        packet = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue_id,
            bearer_id=self.bearer_id,
            direction=self.ack_direction,
            payload=ack,
            size_bytes=ack.wire_bytes,
            created_ns=self.sim.now,
            seq=ack.segment_id,
        )
        self.transmit_ack(packet)

    def throughput_series(
        self, start_ns: int, end_ns: int
    ) -> List[Tuple[float, float]]:
        """(bin start ms, goodput Mbps) over the window."""
        series = []
        first = start_ns // self.bin_ns
        last = (end_ns - 1) // self.bin_ns
        for index in range(first, last + 1):
            bytes_in_bin = self.bins.get(index, 0)
            mbps = bytes_in_bin * 8 / (self.bin_ns / SECOND) / 1e6
            series.append((index * self.bin_ns / MS, mbps))
        return series
