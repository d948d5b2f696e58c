"""MAC scheduler (the L2's realtime heart).

Responsibilities, mirroring a production L2 at the fidelity Slingshot's
evaluation needs:

* per-slot FAPI generation three slots ahead of air time (UL_TTI and
  DL_TTI in **every** slot — null when there is no work — because the
  PHY requires them; §6.2),
* TDD-aware scheduling over the DDDSU pattern,
* PRB allocation across active UEs and SNR-driven MCS selection,
* UL and DL HARQ process management with retransmissions and DTX
  timeouts (so the scheduler self-heals across the few slots a PHY
  migration blacks out),
* RLC bearer multiplexing: transport blocks carry RLC PDUs and STATUS
  PDUs for any number of bearers.

The L2 schedules on the cell's slot clock: it never stops scheduling
just because a PHY died — that is precisely what lets Orion hand the
unmodified FAPI stream to the secondary PHY mid-stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.fapi.channels import ShmChannel
from repro.fapi.messages import (
    ConfigRequest,
    CrcIndication,
    DlTtiRequest,
    FapiMessage,
    PdschPdu,
    PuschPdu,
    RxDataIndication,
    StartRequest,
    TxDataRequest,
    UciIndication,
    UlTtiRequest,
)
from repro.l2.rlc import (
    PDU_HEADER_BYTES,
    RLC_AM,
    RlcBearerConfig,
    RlcPdu,
    RlcReceiver,
    RlcStatus,
    RlcTransmitter,
)
from repro.phy.modulation import Modulation
from repro.phy.numerology import DOWNLINK_SLOT, NUMEROLOGY, TDD, UPLINK_SLOT, SlotClock
from repro.sim.engine import SimClock, Simulator
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, US

#: Items carried inside a transport block.
TbItem = Union[RlcPdu, RlcStatus]


@dataclass(frozen=True)
class McsEntry:
    """One row of the link-adaptation table."""

    min_snr_db: float
    modulation: Modulation
    code_rate: float


class McsTable:
    """SNR-to-MCS mapping with conservative thresholds.

    Thresholds sit ~1.5 dB above each modulation's LDPC waterfall so the
    steady-state BLER is low but HARQ still sees occasional work — the
    regime commercial networks target (0.5–2 % residual BLER, §4.2).
    """

    def __init__(self, entries: Optional[List[McsEntry]] = None) -> None:
        self.entries = entries or [
            McsEntry(min_snr_db=-100.0, modulation=Modulation.QPSK, code_rate=0.5),
            McsEntry(min_snr_db=6.0, modulation=Modulation.QAM16, code_rate=0.5),
            McsEntry(min_snr_db=13.0, modulation=Modulation.QAM64, code_rate=0.5),
        ]
        self.entries.sort(key=lambda e: e.min_snr_db)

    def select(self, snr_db: float) -> McsEntry:
        """Highest-order entry whose threshold the SNR clears."""
        chosen = self.entries[0]
        for entry in self.entries:
            if snr_db >= entry.min_snr_db:
                chosen = entry
        return chosen


# Scheduler tunables.

#: Slots of lead time between FAPI generation and air time (Fig 7).
SCHEDULE_AHEAD_SLOTS = 3
#: DL HARQ processes per UE.
DL_HARQ_PROCESSES = 16
#: UL HARQ processes per UE.
UL_HARQ_PROCESSES = 8
#: Max HARQ retransmissions (total transmissions = this + 1).
MAX_HARQ_RETX = 3
#: Slots to wait for CRC/UCI before declaring DTX.
HARQ_TIMEOUT_SLOTS = 12
#: Interval between RLC AM status reports.
STATUS_INTERVAL_NS = 5 * MS
#: Fraction of a slot's REs usable for shared-channel data.
USABLE_RE_FRACTION = 1.0
#: Idle UEs still get a small poll grant every this many uplink
#: slots, keeping SNR measurements (and hence link adaptation) warm.
UL_POLL_INTERVAL_SLOTS = 50
#: Downlink per-bearer RLC queue bound. gNB-side buffers are sized
#: for the high downlink rate (~70 ms of line-rate buffering).
DL_QUEUE_LIMIT_BYTES = 1_200_000


@dataclass
class _DlOutstanding:
    """A DL TB awaiting HARQ feedback."""

    pdu: PdschPdu
    payload: List[TbItem]
    sent_slot: int
    retx_count: int = 0


@dataclass
class _UlOutstanding:
    """A UL grant awaiting its CRC result."""

    pdu: PuschPdu
    granted_slot: int
    retx_count: int = 0


@dataclass
class UeContext:
    """All per-UE state held by the scheduler (the L2's hard state)."""

    ue_id: int
    snr_db: float = 10.0
    active: bool = True
    #: DL RLC transmitters and UL RLC receivers per bearer.
    dl_tx: Dict[int, RlcTransmitter] = field(default_factory=dict)
    ul_rx: Dict[int, RlcReceiver] = field(default_factory=dict)
    #: Queued RLC status reports to piggyback on DL.
    pending_dl_status: List[RlcStatus] = field(default_factory=list)
    dl_outstanding: Dict[int, _DlOutstanding] = field(default_factory=dict)
    dl_retx_queue: List[int] = field(default_factory=list)
    ul_outstanding: Dict[int, _UlOutstanding] = field(default_factory=dict)
    ul_retx_queue: List[_UlOutstanding] = field(default_factory=list)
    next_ul_harq: int = 0
    last_status_at: int = 0
    #: Last reported UE uplink backlog minus bytes already granted.
    ul_backlog_estimate: int = 0
    #: Slot of the UE's last uplink grant (drives periodic poll grants).
    last_ul_grant_slot: int = -1

    def free_dl_process(self, count: int) -> Optional[int]:
        for pid in range(count):
            if pid not in self.dl_outstanding:
                return pid
        return None


@dataclass
class MacStats:
    dl_tbs_scheduled: int = 0
    dl_tbs_retransmitted: int = 0
    dl_harq_failures: int = 0
    ul_grants_issued: int = 0
    ul_retx_granted: int = 0
    ul_harq_failures: int = 0
    ul_crc_ok: int = 0
    ul_crc_fail: int = 0
    ul_dtx_timeouts: int = 0


class L2Process(Process):
    """The vRAN L2: MAC scheduler + RLC termination for one cell."""

    def __init__(
        self,
        sim: Simulator,
        slot_clock: SlotClock,
        cell_id: int,
        ru_id: int,
        trace: TraceRecorder,
        name: str,
    ) -> None:
        super().__init__(sim, name)
        self.slot_clock = slot_clock
        self.cell_id = cell_id
        self.ru_id = ru_id
        self.mcs_table = McsTable()
        self.trace = trace
        self.ues: Dict[int, UeContext] = {}
        self.stats = MacStats()
        #: FAPI channel toward the PHY (through L2-side Orion when
        #: present; set by the builder before :meth:`start`).
        self.fapi_tx: ShmChannel
        #: Uplink SDU sink: callable(ue_id, bearer_id, sdu), set by
        #: ``CoreNetwork.bind_l2`` before the L2 serves any UE.
        self.uplink_sink: Callable[[int, int, Any], None]
        self._started = False
        self._dl_rr_cursor = 0
        # Per-instance TB id counter: keeps reruns of a scenario
        # bit-identical (a process-global counter would leak state
        # between deployments built in the same interpreter).
        self._tb_id_gen = itertools.count(1_000_000)

    # ------------------------------------------------------------------
    # Wiring / lifecycle
    # ------------------------------------------------------------------
    def set_fapi_channel(self, channel: ShmChannel) -> None:
        self.fapi_tx = channel

    def start(self) -> None:
        """Onboard the cell and begin per-slot scheduling."""
        if self._started:
            return
        self._started = True
        self.fapi_tx.send(
            ConfigRequest(
                cell_id=self.cell_id,
                slot=self.slot_clock.slot_at(self.sim.now),
                num_prbs=NUMEROLOGY.num_prbs,
                numerology_mu=NUMEROLOGY.mu,
                tdd_pattern=TDD.pattern,
                ru_id=self.ru_id,
            )
        )
        self.fapi_tx.send(StartRequest(cell_id=self.cell_id))
        next_slot = self.slot_clock.slot_at(self.sim.now) + 1
        self.sim.schedule_periodic(
            self.slot_clock.slot_duration_ns,
            self._slot_tick,
            first_at=self.slot_clock.slot_start(next_slot) + 10 * US,
        )

    # ------------------------------------------------------------------
    # UE management
    # ------------------------------------------------------------------
    def register_ue(
        self, ue_id: int, bearers: List[RlcBearerConfig], snr_db: float
    ) -> UeContext:
        """Admit a UE with the given bearers (called at attach)."""
        ctx = UeContext(ue_id=ue_id, snr_db=snr_db)
        for bearer in bearers:
            ctx.dl_tx[bearer.bearer_id] = RlcTransmitter(
                bearer, queue_limit_bytes=DL_QUEUE_LIMIT_BYTES
            )
            ctx.ul_rx[bearer.bearer_id] = RlcReceiver(
                bearer, now_fn=SimClock(self.sim)
            )
        self.ues[ue_id] = ctx
        self.trace.record(self.sim.now, "l2.ue_registered", ue=ue_id)
        return ctx

    def deregister_ue(self, ue_id: int) -> None:
        """Remove a UE (RLF/detach): all its L2 state is released."""
        self.ues.pop(ue_id, None)
        self.trace.record(self.sim.now, "l2.ue_deregistered", ue=ue_id)

    def send_downlink(self, ue_id: int, bearer_id: int, sdu: Any, size_bytes: int) -> bool:
        """Entry point for core-network DL traffic toward a UE."""
        ctx = self.ues.get(ue_id)
        if ctx is None:
            return False
        tx = ctx.dl_tx.get(bearer_id)
        if tx is None:
            return False
        return tx.enqueue(sdu, size_bytes)

    # ------------------------------------------------------------------
    # FAPI receive path (indications from the PHY via Orion)
    # ------------------------------------------------------------------
    def receive_fapi(self, message: FapiMessage, channel: ShmChannel) -> None:
        if isinstance(message, CrcIndication):
            self._on_crc(message)
        elif isinstance(message, RxDataIndication):
            self._on_rx_data(message)
        elif isinstance(message, UciIndication):
            self._on_uci(message)

    def _on_crc(self, message: CrcIndication) -> None:
        for result in message.results:
            ctx = self.ues.get(result.ue_id)
            if ctx is None:
                continue
            ctx.snr_db = result.measured_snr_db
            outstanding = ctx.ul_outstanding.pop(result.tb_id, None)
            if result.crc_ok:
                self.stats.ul_crc_ok += 1
                continue
            self.stats.ul_crc_fail += 1
            if outstanding is None:
                continue
            if outstanding.retx_count < MAX_HARQ_RETX:
                outstanding.retx_count += 1
                ctx.ul_retx_queue.append(outstanding)
            else:
                self.stats.ul_harq_failures += 1

    def _on_rx_data(self, message: RxDataIndication) -> None:
        for ue_id, _harq, _tb_id, payload in message.payloads:
            ctx = self.ues.get(ue_id)
            if ctx is None or payload is None:
                continue
            for item in payload:
                self._consume_ul_item(ctx, item)

    def _consume_ul_item(self, ctx: UeContext, item: TbItem) -> None:
        if isinstance(item, RlcStatus):
            # Status for a DL bearer: feed the DL transmitter.
            tx = ctx.dl_tx.get(item.bearer_id)
            if tx is not None:
                tx.on_status(item)
            return
        receiver = ctx.ul_rx.get(item.bearer_id)
        if receiver is None:
            return
        for sdu in receiver.on_pdu(item):
            self.uplink_sink(ctx.ue_id, item.bearer_id, sdu)

    def _on_uci(self, message: UciIndication) -> None:
        for ue_id, pending in message.bsr_reports:
            ctx = self.ues.get(ue_id)
            if ctx is not None:
                ctx.ul_backlog_estimate = pending
        for fb in message.feedback:
            ctx = self.ues.get(fb.ue_id)
            if ctx is None:
                continue
            outstanding = ctx.dl_outstanding.get(fb.harq_process)
            if outstanding is None or outstanding.pdu.tb_id != fb.tb_id:
                continue
            if fb.ack:
                del ctx.dl_outstanding[fb.harq_process]
            else:
                self._queue_dl_retx(ctx, fb.harq_process)

    def _queue_dl_retx(self, ctx: UeContext, harq_process: int) -> None:
        outstanding = ctx.dl_outstanding.get(harq_process)
        if outstanding is None:
            return
        if outstanding.retx_count >= MAX_HARQ_RETX:
            # HARQ exhausted: drop; RLC AM (or TCP) recovers.
            del ctx.dl_outstanding[harq_process]
            self.stats.dl_harq_failures += 1
            return
        if harq_process not in ctx.dl_retx_queue:
            ctx.dl_retx_queue.append(harq_process)

    # ------------------------------------------------------------------
    # Slot engine
    # ------------------------------------------------------------------
    def _slot_tick(self) -> None:
        # Fires 10 µs into each slot, so the current slot is slot_at(now).
        abs_slot = self.slot_clock.slot_at(self.sim.now)
        target = abs_slot + SCHEDULE_AHEAD_SLOTS
        self._expire_harq(abs_slot)
        self._maybe_emit_status(abs_slot)
        slot_type = TDD.slot_type(target)
        ul_req = UlTtiRequest(cell_id=self.cell_id, slot=target, pdus=[])
        dl_req = DlTtiRequest(cell_id=self.cell_id, slot=target, pdus=[])
        payloads = None
        if slot_type is UPLINK_SLOT:
            ul_req.pdus = self._schedule_uplink(target)
        elif slot_type is DOWNLINK_SLOT:
            dl_req.pdus, payloads = self._schedule_downlink(target)
        self.fapi_tx.send(ul_req)
        self.fapi_tx.send(dl_req)
        if payloads:
            self.fapi_tx.send(
                TxDataRequest(cell_id=self.cell_id, slot=target, payloads=payloads)
            )

    def _expire_harq(self, now_slot: int) -> None:
        """DTX timeouts: missing CRC/UCI responses count as NACK."""
        timeout = HARQ_TIMEOUT_SLOTS
        for ctx in self.ues.values():
            expired_ul = [
                tb_id
                for tb_id, out in ctx.ul_outstanding.items()
                if now_slot - out.granted_slot > timeout
            ]
            for tb_id in expired_ul:
                out = ctx.ul_outstanding.pop(tb_id)
                self.stats.ul_dtx_timeouts += 1
                if out.retx_count < MAX_HARQ_RETX:
                    out.retx_count += 1
                    ctx.ul_retx_queue.append(out)
                else:
                    self.stats.ul_harq_failures += 1
            expired_dl = [
                pid
                for pid, out in ctx.dl_outstanding.items()
                if now_slot - out.sent_slot > timeout and pid not in ctx.dl_retx_queue
            ]
            for pid in expired_dl:
                self._queue_dl_retx(ctx, pid)

    def _maybe_emit_status(self, abs_slot: int) -> None:
        """Queue RLC AM status reports for UL bearers onto the DL path."""
        for ctx in self.ues.values():
            if self.sim.now - ctx.last_status_at < STATUS_INTERVAL_NS:
                continue
            ctx.last_status_at = self.sim.now
            for bearer_id, receiver in ctx.ul_rx.items():
                if receiver.config.mode is RLC_AM and receiver.status_due:
                    ctx.pending_dl_status.append(receiver.build_status())

    # ------------------------------------------------------------------
    # Downlink scheduling
    # ------------------------------------------------------------------
    def _tb_bytes(self, prbs: int, entry: McsEntry) -> int:
        res = NUMEROLOGY.resource_elements_per_slot(prbs)
        usable = res * USABLE_RE_FRACTION
        return int(usable * entry.modulation.bits_per_symbol * entry.code_rate) // 8

    def _schedule_downlink(
        self, target_slot: int
    ) -> Tuple[List[PdschPdu], List[Tuple[int, Any]]]:
        pdus: List[PdschPdu] = []
        payloads: List[Tuple[int, Any]] = []
        candidates = [
            ctx
            for ctx in self.ues.values()
            if ctx.active
            and (
                ctx.dl_retx_queue
                or ctx.pending_dl_status
                or any(tx.has_data for tx in ctx.dl_tx.values())
            )
        ]
        if not candidates:
            return pdus, payloads
        prbs_each = max(1, NUMEROLOGY.num_prbs // len(candidates))
        # Round-robin rotation for fairness across slots.
        self._dl_rr_cursor += 1
        rotation = self._dl_rr_cursor % len(candidates)
        candidates = candidates[rotation:] + candidates[:rotation]
        for ctx in candidates:
            pdu_payload = self._schedule_ue_downlink(ctx, target_slot, prbs_each)
            if pdu_payload is not None:
                pdu, payload = pdu_payload
                pdus.append(pdu)
                payloads.append((pdu.tb_id, payload))
        return pdus, payloads

    def _schedule_ue_downlink(
        self, ctx: UeContext, target_slot: int, prbs: int
    ) -> Optional[Tuple[PdschPdu, List[TbItem]]]:
        # HARQ retransmissions take absolute priority.
        if ctx.dl_retx_queue:
            pid = ctx.dl_retx_queue.pop(0)
            outstanding = ctx.dl_outstanding.get(pid)
            if outstanding is not None:
                outstanding.retx_count += 1
                outstanding.sent_slot = target_slot
                pdu = PdschPdu(
                    ue_id=ctx.ue_id,
                    harq_process=pid,
                    modulation=outstanding.pdu.modulation,
                    prbs=outstanding.pdu.prbs,
                    new_data=False,
                    tb_id=outstanding.pdu.tb_id,
                    tb_bytes=outstanding.pdu.tb_bytes,
                    retx_index=outstanding.retx_count,
                )
                self.stats.dl_tbs_retransmitted += 1
                return pdu, outstanding.payload
        pid = ctx.free_dl_process(DL_HARQ_PROCESSES)
        if pid is None:
            return None
        entry = self.mcs_table.select(ctx.snr_db)
        capacity = self._tb_bytes(prbs, entry)
        items: List[TbItem] = []
        used = 0
        while ctx.pending_dl_status and used < capacity:
            status = ctx.pending_dl_status.pop(0)
            items.append(status)
            used += status.wire_bytes
        for tx in ctx.dl_tx.values():
            if used >= capacity:
                break
            pulled = tx.pull(capacity - used)
            items.extend(pulled)
            for rlc_pdu in pulled:
                used += PDU_HEADER_BYTES + rlc_pdu.length  # its ``wire_bytes``
        if not items:
            return None
        tb_id = next(self._tb_id_gen)
        pdu = PdschPdu(
            ue_id=ctx.ue_id,
            harq_process=pid,
            modulation=entry.modulation,
            prbs=prbs,
            new_data=True,
            tb_id=tb_id,
            tb_bytes=max(used, 1),
            retx_index=0,
        )
        ctx.dl_outstanding[pid] = _DlOutstanding(
            pdu=pdu, payload=items, sent_slot=target_slot
        )
        self.stats.dl_tbs_scheduled += 1
        return pdu, items

    # ------------------------------------------------------------------
    # Uplink scheduling
    # ------------------------------------------------------------------
    def _ue_wants_ul_grant(self, ctx: UeContext, target_slot: int) -> bool:
        """BSR-driven admission, plus a periodic poll for idle UEs."""
        if ctx.ul_retx_queue or ctx.ul_backlog_estimate > 0:
            return True
        return (
            target_slot - ctx.last_ul_grant_slot >= UL_POLL_INTERVAL_SLOTS
        )

    def _schedule_uplink(self, target_slot: int) -> List[PuschPdu]:
        pdus: List[PuschPdu] = []
        active = [
            ctx
            for ctx in self.ues.values()
            if ctx.active and self._ue_wants_ul_grant(ctx, target_slot)
        ]
        if not active:
            return pdus
        prbs_each = max(1, NUMEROLOGY.num_prbs // len(active))
        for ctx in active:
            ctx.last_ul_grant_slot = target_slot
            # Pending retransmission grants first.
            if ctx.ul_retx_queue:
                out = ctx.ul_retx_queue.pop(0)
                pdu = PuschPdu(
                    ue_id=ctx.ue_id,
                    harq_process=out.pdu.harq_process,
                    modulation=out.pdu.modulation,
                    prbs=out.pdu.prbs,
                    new_data=False,
                    tb_id=out.pdu.tb_id,
                    tb_bytes=out.pdu.tb_bytes,
                    retx_index=out.retx_count,
                )
                out.granted_slot = target_slot
                ctx.ul_outstanding[pdu.tb_id] = out
                pdus.append(pdu)
                self.stats.ul_retx_granted += 1
                continue
            entry = self.mcs_table.select(ctx.snr_db)
            tb_bytes = self._tb_bytes(prbs_each, entry)
            ctx.ul_backlog_estimate = max(0, ctx.ul_backlog_estimate - tb_bytes)
            harq = ctx.next_ul_harq
            ctx.next_ul_harq = (ctx.next_ul_harq + 1) % UL_HARQ_PROCESSES
            tb_id = next(self._tb_id_gen)
            pdu = PuschPdu(
                ue_id=ctx.ue_id,
                harq_process=harq,
                modulation=entry.modulation,
                prbs=prbs_each,
                new_data=True,
                tb_id=tb_id,
                tb_bytes=tb_bytes,
                retx_index=0,
            )
            ctx.ul_outstanding[tb_id] = _UlOutstanding(
                pdu=pdu, granted_slot=target_slot
            )
            pdus.append(pdu)
            self.stats.ul_grants_issued += 1
        return pdus
