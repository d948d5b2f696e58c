"""Radio Link Control (RLC) — segmentation, reassembly, and ARQ.

Two modes, matching how real deployments map traffic classes:

* **UM (unacknowledged)** — sequencing and reassembly only; losses that
  survive HARQ reach the application. Used for latency-sensitive flows
  (the UDP/video experiments), which is why Table 2's stress test can
  observe nonzero UDP loss rates.
* **AM (acknowledged)** — adds a retransmission buffer driven by
  receiver STATUS PDUs. Used for TCP bearers; together with TCP's own
  recovery it bounds the post-failover reconnection transient.

SDUs (IP packets) are segmented to fit MAC transport blocks and
reassembled at the receiver; both directions of every bearer run one
transmitter/receiver pair.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

#: RLC PDU header overhead on the wire.
PDU_HEADER_BYTES = 5

#: STATUS PDU base size.
STATUS_BASE_BYTES = 8


class RlcMode(enum.Enum):
    """RLC operating mode for a bearer."""

    UM = "UM"
    AM = "AM"


#: :attr:`RlcMode.AM`, bound once for the per-PDU and per-slot mode tests.
RLC_AM = RlcMode.AM


#: AM: maximum retransmissions of one PDU before it is discarded.
MAX_RETX = 8
#: UM: reassembly timer — a gap older than this is declared lost and
#: skipped (3GPP t-Reassembly). Generous enough for MAC-level (DTX
#: driven) HARQ retransmissions to fill the gap first.
UM_T_REASSEMBLY_NS = 40_000_000
#: Transmit queue bound; tail-drop beyond it (keeps TCP's
#: bufferbloat at a realistic level).
QUEUE_LIMIT_BYTES = 512_000


@dataclass(frozen=True)
class RlcBearerConfig:
    """Configuration of one radio bearer's RLC entity pair."""

    bearer_id: int
    mode: RlcMode


_sdu_ids = itertools.count(1)


@dataclass
class RlcPdu:
    """One RLC PDU: a (possibly partial) segment of one SDU.

    ``sdu`` rides along as the payload object; the receiver releases it
    upward only once all segments of the SDU have arrived in order.
    """

    bearer_id: int
    seq: int
    sdu_id: int
    sdu: Any
    #: Segment byte range [offset, offset+length) of the SDU.
    offset: int
    length: int
    sdu_total: int
    is_last_segment: bool

    @property
    def wire_bytes(self) -> int:
        return PDU_HEADER_BYTES + self.length


@dataclass
class RlcStatus:
    """Receiver STATUS PDU: cumulative ack plus selective nacks."""

    bearer_id: int
    #: All seq < ack_seq received.
    ack_seq: int
    #: Missing sequence numbers below the highest received.
    nack_seqs: List[int] = field(default_factory=list)

    @property
    def wire_bytes(self) -> int:
        return STATUS_BASE_BYTES + 3 * len(self.nack_seqs)


@dataclass
class _PendingSdu:
    sdu_id: int
    sdu: Any
    size: int
    sent_offset: int = 0


@dataclass
class RlcTxStats:
    sdus_queued: int = 0
    sdus_dropped_overflow: int = 0
    pdus_sent: int = 0
    pdus_retransmitted: int = 0
    pdus_discarded: int = 0


class RlcTransmitter:
    """Sender side of one bearer's RLC entity."""

    def __init__(
        self, config: RlcBearerConfig, queue_limit_bytes: int = QUEUE_LIMIT_BYTES
    ) -> None:
        self.config = config
        self.queue_limit_bytes = queue_limit_bytes
        self._queue: Deque[_PendingSdu] = deque()
        self._queued_bytes = 0
        self._next_seq = 0
        #: AM only: sent-but-unacked PDUs by seq.
        self._flight: Dict[int, Tuple[RlcPdu, int]] = {}
        #: AM only: PDUs scheduled for retransmission.
        self._retx: Deque[RlcPdu] = deque()
        #: AM only: consecutive status reports that failed to cover a
        #: trailing (never-received) PDU — the t-PollRetransmit stand-in.
        self._trail_misses: Dict[int, int] = {}
        self.stats = RlcTxStats()

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    def enqueue(self, sdu: Any, size_bytes: int) -> bool:
        """Queue one SDU for transmission; False if dropped on overflow."""
        if self._queued_bytes + size_bytes > self.queue_limit_bytes:
            self.stats.sdus_dropped_overflow += 1
            return False
        self._queue.append(
            _PendingSdu(sdu_id=next(_sdu_ids), sdu=sdu, size=size_bytes)
        )
        self._queued_bytes += size_bytes
        self.stats.sdus_queued += 1
        return True

    @property
    def backlog_bytes(self) -> int:
        """Bytes awaiting first transmission (drives MAC scheduling)."""
        retx_bytes = sum(p.wire_bytes for p in self._retx)
        return self._queued_bytes + retx_bytes

    @property
    def has_data(self) -> bool:
        return bool(self._queue or self._retx)

    # ------------------------------------------------------------------
    # MAC interface
    # ------------------------------------------------------------------
    def pull(self, max_bytes: int) -> List[RlcPdu]:
        """Fill up to ``max_bytes`` of a transport block with PDUs.

        Retransmissions take priority over fresh data (standard RLC AM
        behaviour). A PDU costs ``PDU_HEADER_BYTES`` plus its length (its
        ``wire_bytes``).
        """
        pdus: List[RlcPdu] = []
        budget = max_bytes
        retx = self._retx
        while retx and budget >= PDU_HEADER_BYTES + retx[0].length:
            pdu = retx.popleft()
            pdus.append(pdu)
            budget -= PDU_HEADER_BYTES + pdu.length
            self.stats.pdus_retransmitted += 1
        while self._queue and budget > PDU_HEADER_BYTES:
            pending = self._queue[0]
            remaining = pending.size - pending.sent_offset
            segment = min(remaining, budget - PDU_HEADER_BYTES)
            if segment <= 0:
                break
            is_last = pending.sent_offset + segment >= pending.size
            pdu = RlcPdu(
                bearer_id=self.config.bearer_id,
                seq=self._next_seq,
                sdu_id=pending.sdu_id,
                sdu=pending.sdu if is_last else None,
                offset=pending.sent_offset,
                length=segment,
                sdu_total=pending.size,
                is_last_segment=is_last,
            )
            self._next_seq += 1
            pending.sent_offset += segment
            self._queued_bytes -= segment
            if is_last:
                self._queue.popleft()
            pdus.append(pdu)
            budget -= PDU_HEADER_BYTES + segment
            self.stats.pdus_sent += 1
            if self.config.mode is RLC_AM:
                self._flight[pdu.seq] = (pdu, 0)
        return pdus

    # ------------------------------------------------------------------
    # Status handling (AM)
    # ------------------------------------------------------------------
    def on_status(self, status: RlcStatus) -> None:
        """Apply a receiver STATUS PDU: ack flight, queue nacked retx.

        Trailing losses — PDUs the receiver never saw at all, so it
        cannot NACK them — are recovered by the poll-retransmit rule: a
        flight PDU that two consecutive status reports fail to cover is
        presumed lost and retransmitted (3GPP's t-PollRetransmit).
        """
        if self.config.mode is not RLC_AM:
            return
        acked = [seq for seq in self._flight if seq < status.ack_seq]
        for seq in acked:
            self._trail_misses.pop(seq, None)
            if seq not in status.nack_seqs:
                del self._flight[seq]
        already_queued = {p.seq for p in self._retx}
        for seq in status.nack_seqs:
            self._trail_misses.pop(seq, None)
            entry = self._flight.get(seq)
            if entry is None or seq in already_queued:
                continue
            self._queue_retx(seq, already_queued)
        # Poll-retransmit for trailing flight the status did not cover.
        for seq in sorted(self._flight):
            if seq < status.ack_seq or seq in already_queued:
                continue
            misses = self._trail_misses.get(seq, 0) + 1
            self._trail_misses[seq] = misses
            if misses >= 2:
                del self._trail_misses[seq]
                self._queue_retx(seq, already_queued)

    def _queue_retx(self, seq: int, already_queued: set) -> None:
        """Schedule one flight PDU for retransmission (bounded retries)."""
        entry = self._flight.get(seq)
        if entry is None or seq in already_queued:
            return
        pdu, retx_count = entry
        if retx_count + 1 > MAX_RETX:
            del self._flight[seq]
            self.stats.pdus_discarded += 1
            return
        self._flight[seq] = (pdu, retx_count + 1)
        self._retx.append(pdu)
        already_queued.add(seq)

    def reset(self) -> None:
        """Full re-establishment (UE reattach): all state is dropped."""
        self._queue.clear()
        self._queued_bytes = 0
        self._flight.clear()
        self._retx.clear()
        self._next_seq = 0


@dataclass
class RlcRxStats:
    pdus_received: int = 0
    duplicates: int = 0
    sdus_delivered: int = 0
    sdus_lost: int = 0


class RlcReceiver:
    """Receiver side of one bearer's RLC entity.

    * **AM** delivers strictly in sequence, holding gaps until the
      status/retransmission machinery fills them.
    * **UM** follows 3GPP TS 38.322: a *complete* SDU is delivered as
      soon as it is received — there is no cross-SDU in-order guarantee,
      so one lost transport block never head-of-line-blocks the flow.
      Segments of one SDU are reassembled under a per-SDU t-Reassembly
      timer; expiry discards the partial SDU.

    ``now_fn`` supplies the clock used by UM's t-Reassembly logic; when
    omitted, a monotonically increasing PDU counter stands in (tests).
    """

    def __init__(
        self,
        config: RlcBearerConfig,
        now_fn: Optional[Any] = None,
    ) -> None:
        self.config = config
        self._now_fn = now_fn
        #: AM: PDUs received out of order, seq -> pdu.
        self._held: Dict[int, RlcPdu] = {}
        #: AM: next in-sequence PDU expected.
        self._expected_seq = 0
        #: UM: dedup window of recently seen seqs.
        self._seen: set = set()
        self._seen_max = -1
        #: Segment assembly: sdu_id -> [received bytes, first arrival,
        #: sdu object (from the last segment), total].
        self._partial: Dict[int, list] = {}
        #: PDUs accepted since the last status report was built.
        self.pdus_since_status = 0
        self._fallback_clock = 0
        self.stats = RlcRxStats()

    def _now(self) -> int:
        if self._now_fn is not None:
            return self._now_fn()
        # Fallback: one tick per PDU, with t-Reassembly interpreted as a
        # PDU count (keeps unit tests clock-free).
        return self._fallback_clock

    def on_pdu(self, pdu: RlcPdu) -> List[Any]:
        """Accept one PDU; returns the SDUs it makes deliverable.

        UM delivers a complete SDU at once: an unsegmented PDU is handed
        up here, a segment goes through :meth:`_assemble`, and the
        t-Reassembly scan runs only while a partial SDU exists.
        """
        self.stats.pdus_received += 1
        self.pdus_since_status += 1
        self._fallback_clock += 1
        if self.config.mode is RLC_AM:
            return self._on_pdu_am(pdu)
        seen = self._seen
        if pdu.seq in seen:
            self.stats.duplicates += 1
            return []
        seen.add(pdu.seq)
        self._seen_max = max(self._seen_max, pdu.seq)
        if len(seen) > 4096:
            cutoff = self._seen_max - 2048
            self._seen = {s for s in seen if s > cutoff}
        if pdu.offset == 0 and pdu.is_last_segment:
            self.stats.sdus_delivered += 1
            delivered = [pdu.sdu]
        else:
            sdu = self._assemble(pdu)
            delivered = [] if sdu is None else [sdu]
        if self._partial:
            self._expire_partials()
        return delivered

    # --- AM: strict in-order ------------------------------------------
    def _on_pdu_am(self, pdu: RlcPdu) -> List[Any]:
        if pdu.seq < self._expected_seq or pdu.seq in self._held:
            self.stats.duplicates += 1
            return []
        self._held[pdu.seq] = pdu
        delivered: List[Any] = []
        while self._expected_seq in self._held:
            next_pdu = self._held.pop(self._expected_seq)
            self._expected_seq += 1
            sdu = self._assemble(next_pdu)
            if sdu is not None:
                delivered.append(sdu)
        return delivered

    def _assemble(self, pdu: RlcPdu) -> Optional[Any]:
        """Per-SDU segment assembly; returns the SDU when complete."""
        if pdu.offset == 0 and pdu.is_last_segment:
            self.stats.sdus_delivered += 1
            return pdu.sdu  # Unsegmented: deliver directly.
        entry = self._partial.get(pdu.sdu_id)
        if entry is None:
            entry = [0, self._now(), None, pdu.sdu_total]
            self._partial[pdu.sdu_id] = entry
        entry[0] += pdu.length
        if pdu.is_last_segment:
            entry[2] = pdu.sdu
        if entry[0] >= entry[3] and entry[2] is not None:
            del self._partial[pdu.sdu_id]
            self.stats.sdus_delivered += 1
            return entry[2]
        return None

    def _expire_partials(self) -> None:
        """UM t-Reassembly: partial SDUs whose first segment is older
        than the timer are dropped (their missing segments are lost)."""
        deadline = self._now() - UM_T_REASSEMBLY_NS
        expired = [
            sdu_id
            for sdu_id, entry in self._partial.items()
            if entry[1] <= deadline
        ]
        for sdu_id in expired:
            del self._partial[sdu_id]
            self.stats.sdus_lost += 1

    @property
    def status_due(self) -> bool:
        """True when traffic arrived since the last status was built."""
        return self.pdus_since_status > 0 or bool(self._held)

    def build_status(self) -> RlcStatus:
        """AM: cumulative ack + selective nacks for the transmitter."""
        self.pdus_since_status = 0
        highest = max(self._held) if self._held else self._expected_seq - 1
        nacks = [
            seq
            for seq in range(self._expected_seq, highest + 1)
            if seq not in self._held
        ]
        return RlcStatus(
            bearer_id=self.config.bearer_id,
            ack_seq=highest + 1,
            nack_seqs=nacks,
        )

    def reset(self) -> None:
        """Full re-establishment: drop all reordering/reassembly state."""
        self._held.clear()
        self._partial.clear()
        self._seen.clear()
        self._seen_max = -1
        self._expected_seq = 0
