"""Simplified-but-behavioural TCP.

Implements the mechanisms that shape the paper's TCP results (Fig 10):
sliding window with in-order delivery, slow start + AIMD congestion
avoidance, SACK (RFC 6675) with RACK time-based loss detection and fast
recovery, an RTO with exponential backoff, and SRTT/RTTVAR estimation
(RFC 6298 style).

During a PHY failover a burst of in-flight segments is lost; the
receiver's in-order requirement stalls delivery at the gap, goodput
drops to zero, and RACK retransmission / RTO recovery refills the pipe —
the 80 ms zero-throughput window and the 157 Mb/s catch-up burst in the
paper's uplink plot fall out of exactly this machinery.

Every segment is ``MSS_BYTES`` long and ``MSS_BYTES``-aligned, so the
scoreboard addresses the flight by sequence arithmetic and keeps its
views of it ordered: an ACK or a data segment costs what it changed
(segments newly acked, SACKed or marked lost), not the window
(DESIGN.md section 9, "TCP scoreboard: cost model").
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.units import MS, SECOND
from repro.transport.packet import FlowDirection, Packet

#: TCP header bytes attributed to each segment.
TCP_HEADER_BYTES = 20
#: The receiver's goodput bin (the paper's 10 ms reporting interval).
BIN_NS = 10 * MS


# Transport tunables (tuned for a cellular-latency path).

MSS_BYTES = 1200
INITIAL_CWND_SEGMENTS = 10
#: Minimum retransmission timeout. Linux uses 200 ms; the paper's
#: 110 ms recovery implies fast retransmit usually wins the race.
MIN_RTO_NS = 200 * MS
MAX_RTO_NS = 4 * SECOND
#: Receiver window in segments (ample; radio is the bottleneck).
RECEIVE_WINDOW_SEGMENTS = 2048
#: Max segments released per ACK event (Linux-style burst cap; an
#: uncapped release on recovery exit would smash the bottleneck
#: queue and immediately re-enter loss).
MAX_BURST_SEGMENTS = 10
#: RACK reordering window bounds. Radio links reorder heavily (a
#: HARQ retransmission delays one TB's worth of segments by several
#: ms while later TBs sail past), so loss is declared by *time* —
#: a segment is lost only when one sent sufficiently later has been
#: delivered — rather than by dupack counting.
RACK_REO_WND_MIN_NS = 6 * MS
RACK_REO_WND_MAX_NS = 40 * MS


_segment_ids = itertools.count(1)


@dataclass
class TcpSegment:
    """One TCP segment (data or pure ACK)."""

    flow_id: str
    seq: int                      # First data byte index carried.
    length: int                   # Data bytes carried (0 for pure ACK).
    ack: int                      # Cumulative ack: next byte expected.
    segment_id: int = field(default_factory=_segment_ids.__next__)
    #: Timestamp echoed for RTT sampling (sender sets on transmit).
    ts_echo: int = 0
    #: SACK blocks: up to four (start, end) received ranges above ack.
    sack_blocks: Tuple[Tuple[int, int], ...] = ()
    #: Sender-local transmit time (refreshed on retransmission); drives
    #: RACK loss detection.
    sent_at: int = 0

    @property
    def wire_bytes(self) -> int:
        return TCP_HEADER_BYTES + self.length + 8 * len(self.sack_blocks)


@dataclass
class TcpSenderStats:
    segments_sent: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    rto_events: int = 0
    bytes_acked: int = 0


class TcpSender(Process):
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
        self.cwnd = INITIAL_CWND_SEGMENTS * MSS_BYTES
        self.ssthresh = 64 * 1024 * 1024
        self.in_fast_recovery = False
        self._recover = 0
        # RTT estimation (RFC 6298).
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: int = 0
        self.rto_ns = MIN_RTO_NS
        self._rto_handle: Optional[list] = None
        # SACK scoreboard (RFC 6675) + RACK (time-based loss detection):
        #: Unacked segments by seq (for retransmission).
        self._flight: Dict[int, TcpSegment] = {}
        #: Seqs the receiver reported holding out of order (SACK).
        self._sacked: set = set()
        #: Sorted disjoint (start, end) byte ranges already applied to
        #: ``_sacked``: a SACK block visits only what they do not cover.
        self._sack_ranges: List[Tuple[int, int]] = []
        #: Seqs marked lost and awaiting retransmission.
        self._lost: set = set()
        #: Min-heap over ``_lost``; entries whose seq has since left the
        #: set are skipped when popped.
        self._lost_heap: List[int] = []
        #: seq -> transmit time of the segments RACK has yet to judge (in
        #: flight, neither SACKed nor lost). ``sent_at`` is ``sim.now``,
        #: so insertion order is transmit-time order and the oldest is
        #: always first (Linux's ``tsorted_sent_queue``).
        self._unjudged: "OrderedDict[int, int]" = OrderedDict()
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

    def _pipe(self) -> int:
        """Estimated bytes currently in the network (RFC 6675 'pipe'):
        everything in flight except what SACK says arrived and what has
        been marked lost but not yet retransmitted."""
        mss = MSS_BYTES
        outstanding = len(self._flight) - len(self._sacked) - len(self._lost)
        return max(outstanding, 0) * mss

    def _fill_window(self) -> None:
        """Send while the pipe has room: lost retransmissions first,
        then new data (conservation of packets), bounded per ACK event
        by the burst cap. The window is fixed for the call (nothing sent
        here moves ``cwnd``); the pipe is :meth:`_pipe`, inlined."""
        if not self._running:
            return
        mss = MSS_BYTES
        window = min(int(self.cwnd), RECEIVE_WINDOW_SEGMENTS * mss)
        flight, sacked, lost = self._flight, self._sacked, self._lost
        sent = 0
        while (
            max(len(flight) - len(sacked) - len(lost), 0) * mss + mss <= window
            and sent < MAX_BURST_SEGMENTS
        ):
            sent += 1
            if lost:
                seq = heappop(self._lost_heap)
                while seq not in lost:
                    seq = heappop(self._lost_heap)
                lost.discard(seq)
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
            flight[segment.seq] = segment
            self._emit(segment)
        self._arm_rto()

    def _emit(self, segment: TcpSegment) -> None:
        now = self.sim.now
        segment.sent_at = now
        if segment.seq not in self._sacked:
            self._unjudged[segment.seq] = now
        self.stats.segments_sent += 1
        packet = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue_id,
            bearer_id=self.bearer_id,
            direction=self.direction,
            payload=segment,
            # ``wire_bytes`` of a data segment: it carries no SACK blocks.
            size_bytes=TCP_HEADER_BYTES + segment.length,
            created_ns=now,
            seq=segment.segment_id,
        )
        self.transmit(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _apply_sack(self, segment: TcpSegment) -> None:
        ranges = self._sack_ranges
        for start, end in segment.sack_blocks:
            start, end = max(start, self.snd_una), min(end, self.snd_nxt)
            if start >= end:
                continue
            # ranges[i:j] overlap or touch the block; only the gaps
            # between them hold segments not yet SACKed.
            i = bisect_left(ranges, (start,))
            if i and ranges[i - 1][1] >= start:
                i -= 1
            j, cursor = i, start
            while j < len(ranges) and ranges[j][0] <= end:
                self._sack_span(cursor, ranges[j][0])
                cursor = max(cursor, ranges[j][1])
                j += 1
            self._sack_span(cursor, end)
            if i < j:
                start, end = min(start, ranges[i][0]), max(end, ranges[j - 1][1])
            ranges[i:j] = [(start, end)]

    def _sack_span(self, start: int, end: int) -> None:
        """Record the in-flight segments of ``[start, end)`` as SACKed;
        one already marked lost is delivered, not lost (RFC 6675)."""
        for seq in range(start, end, MSS_BYTES):
            self._sacked.add(seq)
            self._lost.discard(seq)
            self._unjudged.pop(seq, None)
            self._rack_time = max(self._rack_time, self._flight[seq].sent_at)

    def _reo_wnd(self) -> int:
        """RACK reordering window: a fraction of the smoothed RTT,
        clamped to cover radio-layer (HARQ) reordering."""
        base = (self.srtt_ns or MIN_RTO_NS) // 3
        return min(
            max(base, RACK_REO_WND_MIN_NS),
            RACK_REO_WND_MAX_NS,
        )

    def _rack_mark_lost(self) -> None:
        """Mark undelivered segments sent a reordering-window before the
        newest *delivered* segment as lost. Retransmissions refresh their
        send time, so a lost retransmission is re-detected naturally."""
        deadline = self._rack_time - self._reo_wnd()
        unjudged = self._unjudged
        while unjudged:
            seq, sent_at = next(iter(unjudged.items()))
            if sent_at > deadline:
                break
            del unjudged[seq]
            self._lost.add(seq)
            heappush(self._lost_heap, seq)

    def on_ack(self, segment: TcpSegment) -> None:
        """Handle an incoming (possibly duplicate/SACK-bearing) ACK."""
        mss = MSS_BYTES
        self._apply_sack(segment)
        if segment.ack > self.snd_una:
            newly_acked = segment.ack - self.snd_una
            self.stats.bytes_acked += newly_acked
            # Clear acked scoreboard entries; acked data counts as
            # delivered for RACK.
            for seq in range(self.snd_una, segment.ack, mss):
                self._rack_time = max(self._rack_time, self._flight.pop(seq).sent_at)
                self._sacked.discard(seq)
                self._lost.discard(seq)
                self._unjudged.pop(seq, None)
            while self._sack_ranges and self._sack_ranges[0][1] <= segment.ack:
                del self._sack_ranges[0]
            self.snd_una = segment.ack
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
        # RACK: (re)assess losses on every ACK; enter recovery when a
        # loss is first established.
        self._rack_mark_lost()
        if self._lost and not self.in_fast_recovery:
            self._enter_fast_recovery()
        self._fill_window()

    def _enter_fast_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self.ssthresh = max(self._pipe() / 2, 2 * MSS_BYTES)
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
            max(self.srtt_ns + 4 * self.rttvar_ns, MIN_RTO_NS),
            MAX_RTO_NS,
        )

    def _arm_rto(self, reset: bool = False) -> None:
        """(Re)arm the RTO while data is in flight. A handle that survives
        the first test is pending, so only a cleared one is re-armed."""
        handle = self._rto_handle
        if handle is not None and (reset or handle[3] is None):
            self.sim.cancel(handle)
            handle = self._rto_handle = None
        if handle is None and self.snd_nxt != self.snd_una:
            self._rto_handle = self.sim.schedule(self.rto_ns, self._on_rto)

    def _on_rto(self) -> None:
        if not self._running or self.flight_size == 0:
            return
        self.stats.rto_events += 1
        self.ssthresh = max(self._pipe() / 2, 2 * MSS_BYTES)
        self.cwnd = MSS_BYTES
        self.in_fast_recovery = False
        self.rto_ns = min(self.rto_ns * 2, MAX_RTO_NS)
        # Everything unsacked is presumed lost; slow start retransmits
        # the backlog under the collapsed window.
        self._lost = {s for s in self._flight if s not in self._sacked}
        self._lost_heap = sorted(self._lost)
        self._unjudged.clear()
        self._lost.discard(self.snd_una)
        self._retransmit_one(self.snd_una)
        self._arm_rto(reset=True)


class TcpReceiver(Process):
    """TCP receiver (the iperf -s side): in-order delivery + cumulative ACKs."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: str,
        ue_id: int,
        bearer_id: int,
        ack_direction: FlowDirection,
        transmit_ack: Callable[[Packet], None],
        name: str = "",
    ) -> None:
        super().__init__(sim, name or f"tcp-rx:{flow_id}")
        self.flow_id = flow_id
        self.ue_id = ue_id
        self.bearer_id = bearer_id
        self.ack_direction = ack_direction
        self.transmit_ack = transmit_ack
        self.rcv_nxt = 0
        #: Out-of-order segments held by seq.
        self._ooo: Dict[int, TcpSegment] = {}
        #: Sorted (start, end) byte ranges of ``_ooo``, exactly adjacent
        #: segments merged.
        self._held: List[Tuple[int, int]] = []
        #: Goodput bins: in-order bytes delivered to the application.
        self.bins: Dict[int, int] = {}
        self.bytes_delivered = 0
        self.segments_received = 0

    def _sack_blocks(self, limit: int = 4) -> tuple:
        """Merged (start, end) ranges of the out-of-order store. Most
        recent ranges matter most; report the last few."""
        return tuple(self._held[-limit:])

    def on_segment(self, segment: TcpSegment) -> None:
        """Accept one data segment; emit a cumulative (+SACK) ACK."""
        self.segments_received += 1
        if segment.length > 0:
            if segment.seq >= self.rcv_nxt and segment.seq not in self._ooo:
                self._ooo[segment.seq] = segment
                held = self._held
                start, end = segment.seq, segment.seq + segment.length
                i = bisect_left(held, (start,))
                if i < len(held) and held[i][0] == end:
                    end = held.pop(i)[1]
                if i and held[i - 1][1] == start:
                    i -= 1
                    start = held.pop(i)[0]
                held.insert(i, (start, end))
            delivered = 0
            while self.rcv_nxt in self._ooo:
                seg = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt += seg.length
                delivered += seg.length
            if delivered:
                del self._held[0]  # The run that started at rcv_nxt.
                self.bytes_delivered += delivered
                index = self.sim.now // BIN_NS
                self.bins[index] = self.bins.get(index, 0) + delivered
        sack_blocks = self._sack_blocks()
        ack = TcpSegment(
            flow_id=self.flow_id,
            seq=0,
            length=0,
            ack=self.rcv_nxt,
            ts_echo=segment.ts_echo,
            sack_blocks=sack_blocks,
        )
        packet = Packet(
            flow_id=self.flow_id,
            ue_id=self.ue_id,
            bearer_id=self.bearer_id,
            direction=self.ack_direction,
            payload=ack,
            size_bytes=TCP_HEADER_BYTES + 8 * len(sack_blocks),  # ``wire_bytes``
            created_ns=self.sim.now,
            seq=ack.segment_id,
        )
        self.transmit_ack(packet)

    def throughput_series(
        self, start_ns: int, end_ns: int
    ) -> List[Tuple[float, float]]:
        """(bin start ms, goodput Mbps) over the window."""
        series = []
        first = start_ns // BIN_NS
        last = (end_ns - 1) // BIN_NS
        for index in range(first, last + 1):
            bytes_in_bin = self.bins.get(index, 0)
            mbps = bytes_in_bin * 8 / (BIN_NS / SECOND) / 1e6
            series.append((index * BIN_NS / MS, mbps))
        return series
