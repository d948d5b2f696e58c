"""The PHY process (Intel FlexRAN stand-in).

A :class:`PhyProcess` is one layer-1 application instance on a vRAN
server. It speaks FAPI on one side (toward its Orion peer or directly to
an L2) and O-RAN fronthaul on the other (toward the RU, through the edge
switch), and behaves like the commercial black box Slingshot must not
modify:

* it requires valid UL_TTI and DL_TTI requests **every slot** once
  started, and crashes after a few consecutive missing slots (§6.2);
* it emits downlink C-plane fronthaul packets in **every** slot — the
  natural heartbeat the in-switch failure detector watches (§5.2.1) —
  at the offsets :func:`downlink_schedule` states, whose maximum healthy
  gap (380 µs) lands near the paper's measured 393 µs;
* it processes uplink slots through a three-slot pipeline (Fig 7):
  indications for slot N are delivered to the L2 during slot N+2, so an
  already-failed-over primary keeps producing output for pre-boundary
  slots, which Orion keeps accepting;
* it holds the inter-TTI soft state of §4.2 (HARQ buffers, SNR filter)
  that migration deliberately discards;
* per-slot CPU cost is accounted, so the null-FAPI overhead claim (§8.5)
  is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.fapi.channels import ShmChannel
from repro.fapi.messages import (
    ConfigRequest,
    CrcIndication,
    CrcResult,
    DlTtiRequest,
    FapiMessage,
    HarqFeedback,
    RxDataIndication,
    SlotIndication,
    StartRequest,
    StopRequest,
    TxDataRequest,
    UciIndication,
    UlTtiRequest,
    is_null_request,
)
from repro.fronthaul.oran import (
    CplaneMessage,
    DlAllocation,
    UlGrant,
    UplaneDownlink,
    UplaneUplink,
    UplaneUplinkControlOnly,
)
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.phy.channel import ChannelRealization
from repro.phy.codec import PhyCodec
from repro.phy.mimo import BeamformingTracker
from repro.phy.numerology import NUMEROLOGY, TDD, SlotClock, SlotType
from repro.phy.snr_filter import SnrMovingAverage
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.engine import PeriodicHandle, Simulator
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder
from repro.sim.units import US

#: Destination of every emitted fronthaul frame: a placeholder the switch
#: rewrites toward the RU port.
_UNRESOLVED_DST = MacAddress(0)

#: Consecutive slots without TTI requests before the process crashes.
MAX_MISSING_TTI_SLOTS = 4
#: Lead time before the over-the-air slot at which DL packets are sent.
TX_LEAD_NS = 80 * US
#: Uplink pipeline delay: slot N's indications reach the L2 during slot
#: N + 2, so each uplink slot occupies the three-slot pipeline (N, N + 1,
#: N + 2) FlexRAN runs (Fig 7).
UL_PIPELINE_SLOTS = 2
#: CPU cost model, in core-microseconds per slot.
CPU_NULL_SLOT_US = 1.0
CPU_PER_UL_PDU_US = 60.0
CPU_PER_DL_PDU_US = 35.0
CPU_PER_PRB_US = 0.9


# One slot's downlink transmit schedule (:meth:`PhyProcess._emit_downlink`),
# from the PHY's slot tick :data:`TX_LEAD_NS` before the slot starts. Every
# frame is a heartbeat to the in-switch detector, so these constants fix
# the healthy gap :func:`downlink_schedule` derives.
#: The first C-plane section's jitter is clipped to [0, this] µs.
FIRST_SECTION_MAX_JITTER_US = 140.0
#: The DL U-plane leaves this long after the first section, ...
UPLANE_DELAY_NS = 20 * US
#: ... one packet every this long.
UPLANE_PACING_NS = 8 * US
#: The mid-slot section leaves this long into the slot, plus a uniform
#: draw of [0, ``MID_SECTION_SPREAD_US``) µs.
MID_SECTION_NS = 250 * US
MID_SECTION_SPREAD_US = 50.0


@dataclass
class PhyConfig:
    """What differs between the PHY processes of a deployment."""

    #: Max LDPC belief-propagation iterations (the FEC-quality knob; the
    #: "upgraded PHY" of Fig 11 uses a higher value).
    decoder_iterations: int = 8
    #: Identity of the vRAN stack this PHY belongs to (see
    #: :class:`repro.fronthaul.oran.CplaneMessage`).
    vran_instance_id: int = 1
    #: Massive-MIMO mode (§10 extension): maintain per-UE beamforming
    #: state whose array gain boosts the effective uplink SNR; the state
    #: is soft and discarded on migration like HARQ buffers.
    massive_mimo: bool = False


class DownlinkSchedule(NamedTuple):
    """When a healthy PHY's downlink sections for one slot leave it: each
    window is ``(earliest, latest)`` in ns from that slot's start."""

    first_section: Tuple[int, int]
    mid_section: Tuple[int, int]
    #: The longest a healthy PHY goes between two downlink frames.
    max_gap_ns: int


def downlink_schedule() -> DownlinkSchedule:
    """The section windows of one :data:`NUMEROLOGY` slot and the maximum
    healthy gap between two consecutive downlink frames of a PHY.

    The DL U-plane only ever follows a first section, so the gaps to
    bound are first → mid of one slot, longest at zero jitter and full
    spread, and mid → the next slot's first, longest at no spread and
    full jitter: ``max(lead + 250 + 50, slot - lead - 250 + 140)`` µs,
    380 µs for the defaults. Every frame crosses the same link to the
    switch, so the gap there is the same.

    The bound needs the L2 to send a TTI request every slot, null FAPI
    included: a slot without one emits no frame at all, and the gap
    grows by a slot.
    """
    lead = TX_LEAD_NS
    first = (-lead, round(FIRST_SECTION_MAX_JITTER_US * US) - lead)
    mid = (MID_SECTION_NS, MID_SECTION_NS + round(MID_SECTION_SPREAD_US * US))
    slot_ns = NUMEROLOGY.slot_duration_ns
    return DownlinkSchedule(
        first, mid, max(mid[1] - first[0], slot_ns + first[1] - mid[0])
    )


@dataclass
class PhyCpuStats:
    """Accumulated compute usage (for the §8.5 overhead analysis)."""

    busy_core_us: float = 0.0
    slots_processed: int = 0
    null_slots: int = 0
    work_slots: int = 0
    fec_decodes: int = 0


@dataclass
class PhyCellContext:
    """Per-cell (per-RU) state inside a PHY process."""

    cell_id: int
    ru_id: int
    configured: bool = False
    started: bool = False
    ul_tti: Dict[int, UlTtiRequest] = field(default_factory=dict)
    dl_tti: Dict[int, DlTtiRequest] = field(default_factory=dict)
    tx_data: Dict[int, Dict[int, bytes]] = field(default_factory=dict)
    #: Captured uplink transmissions per slot, keyed by (slot, ue_id).
    captures: Dict[Tuple[int, int], UplaneUplink] = field(default_factory=dict)
    #: Control-only feedback captures per slot.
    feedback_only: Dict[int, List[Tuple[int, int, int, bool]]] = field(default_factory=dict)
    #: Buffer status reports decoded per slot: {slot: {ue_id: bytes}}.
    bsr: Dict[int, Dict[int, int]] = field(default_factory=dict)
    consecutive_missing_tti: int = 0


class PhyProcess(Process):
    """One software PHY instance, fail-stop, FAPI-driven, fronthaul-emitting."""

    def __init__(
        self,
        sim: Simulator,
        phy_id: int,
        mac: MacAddress,
        slot_clock: SlotClock,
        rng: np.random.Generator,
        config: PhyConfig,
        uplink: Link,
        trace: TraceRecorder,
        name: str,
    ) -> None:
        super().__init__(sim, name)
        self.phy_id = phy_id
        self.mac = mac
        self.slot_clock = slot_clock
        self.rng = rng
        self.config = config
        self.uplink = uplink
        self.trace = trace
        self.codec = PhyCodec(rng, decoder_iterations=self.config.decoder_iterations)
        self.snr_filter = SnrMovingAverage()
        self.beamforming = BeamformingTracker() if self.config.massive_mimo else None
        self.cells: Dict[int, PhyCellContext] = {}
        self.cpu = PhyCpuStats()
        self.alive = True
        #: Gray failure: wedged worker threads — the transmit thread's
        #: heartbeats continue but FAPI output stops (set via hang()).
        self.hung = False
        #: Gray failure: extra per-slot uplink pipeline latency.
        self.service_inflation_ns = 0
        #: FAPI channel back toward the L2 / Orion peer (set by the
        #: builder, before the first slot).
        self.fapi_tx: ShmChannel
        #: The fleet's shared encode backend
        #: (:class:`repro.fleet.phy_backend.FleetPhyBackend`, attached by
        #: ``build_fleet``); None in a standalone cell, which has no peer
        #: to batch with and calls ``codec.encode_blocks`` directly.
        self.phy_backend: Optional[object] = None
        #: The deployment's :class:`~repro.core.standby.StandbyDormancy`
        #: (None: every slot runs eagerly, as in a baseline cell).
        self.dormancy: Optional[object] = None
        #: Set by the dormancy while this PHY's slots run dormant.
        self.asleep = False
        #: Queued completion and emission events (engine heap entries),
        #: cancelled on a crash.
        self._pending: List[list] = []
        self._tick_handle: Optional[PeriodicHandle] = None
        self._schedule_next_slot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self, reason: str) -> None:
        """Fail-stop: cease all processing and emission immediately."""
        if not self.alive:
            return
        self.touch()
        self.alive = False
        if self._tick_handle is not None:
            self._tick_handle.cancel()
        for handle in self._pending:
            self.sim.cancel(handle)
        self._pending.clear()
        self.trace.record(self.sim.now, "phy.crash", phy=self.phy_id, reason=reason)

    def hang(self, reason: str) -> None:
        """Gray failure: the PHY worker pool wedges (e.g. a deadlocked
        pipeline stage) while the realtime transmit thread keeps sending
        fronthaul heartbeats — invisible to the in-switch detector."""
        if not self.alive or self.hung:
            return
        self.touch()
        # In-flight emissions and pipeline stages complete (only *new*
        # work wedges) — cancelling them would tear a hole in the
        # heartbeat cadence that the in-switch detector would see, and a
        # hang is precisely the failure it cannot see.
        self.hung = True
        self.trace.record(self.sim.now, "phy.hang", phy=self.phy_id, reason=reason)

    def unhang(self) -> None:
        """Clear a hang (the wedged stage recovers)."""
        if not self.hung:
            return
        self.touch()
        self.hung = False
        self.trace.record(self.sim.now, "phy.unhang", phy=self.phy_id)

    def restart(self, decoder_iterations: Optional[int] = None) -> None:
        """Bring the process back up, empty (used for upgrade rollarounds).

        All cells must be re-configured and re-started via FAPI; soft
        state is gone, exactly as after a real process restart.
        """
        if self.alive:
            return
        self.touch()
        if decoder_iterations is not None:
            self.config.decoder_iterations = decoder_iterations
        self.codec = PhyCodec(
            self.rng, decoder_iterations=self.config.decoder_iterations
        )
        self.snr_filter = SnrMovingAverage()
        self.cells.clear()
        self.alive = True
        self.hung = False
        self.service_inflation_ns = 0
        self._schedule_next_slot()
        self.trace.record(self.sim.now, "phy.restart", phy=self.phy_id)

    def touch(self) -> None:
        """A fault or a non-null input reaches this deployment: wake its
        dormant standbys into the eager path first."""
        if self.dormancy is not None:
            self.dormancy.wake()

    # ------------------------------------------------------------------
    # FAPI receive path (from PHY-side Orion or the L2 directly)
    # ------------------------------------------------------------------
    def receive_fapi(self, message: FapiMessage, channel: ShmChannel) -> None:
        if not self.alive:
            return
        if self.asleep and not is_null_request(message):
            self.touch()
        cell = self.cells.get(message.cell_id)
        if isinstance(message, ConfigRequest):
            cell = PhyCellContext(cell_id=message.cell_id, ru_id=message.ru_id)
            cell.configured = True
            self.cells[message.cell_id] = cell
            return
        if cell is None:
            return
        if isinstance(message, StartRequest):
            cell.started = True
        elif isinstance(message, StopRequest):
            cell.started = False
        elif isinstance(message, UlTtiRequest):
            cell.ul_tti[message.slot] = message
        elif isinstance(message, DlTtiRequest):
            cell.dl_tti[message.slot] = message
        elif isinstance(message, TxDataRequest):
            cell.tx_data.setdefault(message.slot, {}).update(dict(message.payloads))

    # ------------------------------------------------------------------
    # Fronthaul receive path (UL U-plane from the switch)
    # ------------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, ingress: Link) -> None:
        if not self.alive:
            return
        if self.asleep:
            self.touch()
        payload = frame.payload
        if isinstance(payload, UplaneUplink):
            cell = self._cell_for_ru(payload.ru_id)
            if cell is not None:
                cell.captures[(payload.abs_slot, payload.block.ue_id)] = payload
                if payload.dl_feedback:
                    cell.feedback_only.setdefault(payload.abs_slot, []).extend(
                        payload.dl_feedback
                    )
                cell.bsr.setdefault(payload.abs_slot, {})[
                    payload.block.ue_id
                ] = payload.bsr_bytes
        elif isinstance(payload, UplaneUplinkControlOnly):
            cell = self._cell_for_ru(payload.ru_id)
            if cell is not None:
                if payload.dl_feedback:
                    cell.feedback_only.setdefault(payload.abs_slot, []).extend(
                        payload.dl_feedback
                    )
                if payload.ue_id >= 0:
                    cell.bsr.setdefault(payload.abs_slot, {})[
                        payload.ue_id
                    ] = payload.bsr_bytes

    def _cell_for_ru(self, ru_id: int) -> Optional[PhyCellContext]:
        for cell in self.cells.values():
            if cell.ru_id == ru_id:
                return cell
        return None

    # ------------------------------------------------------------------
    # Slot engine
    # ------------------------------------------------------------------
    def _schedule_next_slot(self) -> None:
        """Arm the periodic per-slot tick at the next transmit deadline."""
        next_slot = self.slot_clock.slot_at(self.sim.now + TX_LEAD_NS) + 1
        fire_at = self.slot_clock.slot_start(next_slot) - TX_LEAD_NS
        self._tick_handle = self.sim.schedule_periodic(
            self.slot_clock.slot_duration_ns,
            self._slot_tick,
            first_at=fire_at,
        )

    def _slot_tick(self) -> None:
        if not self.alive:
            return
        # Fires TX_LEAD_NS before each slot boundary, so the target slot
        # is the one containing now + lead.
        abs_slot = self.slot_clock.slot_at(self.sim.now + TX_LEAD_NS)
        sleeper = (
            None if self.dormancy is None else self.dormancy.sleeper(self, abs_slot)
        )
        if sleeper is not None:
            self._dormant_slot(sleeper, abs_slot)
        else:
            for cell in self.cells.values():
                if cell.started:
                    self._process_cell_slot(cell, abs_slot)
        # Every handle is appended under this tick, healthy or hung, so
        # this is the one place that bounds the list.
        if len(self._pending) > 64:
            self._pending = [h for h in self._pending if h[3] is not None]

    def _tx_jitter_ns(self) -> int:
        """Transmit-time jitter for the slot's first DL packet.

        A clipped normal around the nominal lead plus a rare heavy tail
        (realtime-thread scheduling hiccups). Jitter only shortens the
        first → mid gap, and even the tail's clip at
        :data:`FIRST_SECTION_MAX_JITTER_US` holds mid → first to 310 µs:
        the maximum healthy gap (380 µs, :func:`downlink_schedule`) is
        the first → mid one at zero jitter.
        """
        base = float(self.rng.normal(10.0, 8.0))
        if float(self.rng.random()) < 0.02:
            base += float(self.rng.uniform(40.0, 140.0))
        return round(max(0.0, min(base, FIRST_SECTION_MAX_JITTER_US)) * US)

    def _process_cell_slot(self, cell: PhyCellContext, abs_slot: int) -> None:
        ul_req = cell.ul_tti.pop(abs_slot, None)
        dl_req = cell.dl_tti.pop(abs_slot, None)
        if self.hung:
            # Wedged workers: requests are consumed but never processed
            # and no FAPI response is produced; only the transmit
            # thread's heartbeat C-plane still reaches the fronthaul.
            self._emit_downlink(cell, abs_slot, [], [])
            stale = abs_slot - UL_PIPELINE_SLOTS
            cell.captures = {k: v for k, v in cell.captures.items() if k[0] > stale}
            cell.feedback_only = {
                s: v for s, v in cell.feedback_only.items() if s > stale
            }
            cell.bsr = {s: v for s, v in cell.bsr.items() if s > stale}
            return
        if ul_req is None and dl_req is None:
            cell.consecutive_missing_tti += 1
            if cell.consecutive_missing_tti >= MAX_MISSING_TTI_SLOTS:
                self.crash(reason="missing TTI requests")
            return
        cell.consecutive_missing_tti = 0
        self.cpu.slots_processed += 1
        ul_pdus = ul_req.pdus if ul_req is not None else []
        dl_pdus = dl_req.pdus if dl_req is not None else []
        if not ul_pdus and not dl_pdus:
            self.cpu.null_slots += 1
            self.cpu.busy_core_us += CPU_NULL_SLOT_US
        else:
            self.cpu.work_slots += 1
            self.cpu.busy_core_us += (
                CPU_NULL_SLOT_US
                + len(ul_pdus) * CPU_PER_UL_PDU_US
                + len(dl_pdus) * CPU_PER_DL_PDU_US
                + sum(p.prbs for p in ul_pdus + dl_pdus) * CPU_PER_PRB_US
            )
        self._emit_downlink(cell, abs_slot, ul_pdus, dl_pdus)
        self._emit_slot_indication(cell, abs_slot)
        if TDD.slot_type(abs_slot) is SlotType.UPLINK:
            self._schedule_finish(cell, abs_slot, ul_pdus)

    def _schedule_finish(self, cell: PhyCellContext, abs_slot: int, ul_pdus) -> None:
        """Uplink slot results surface after the processing pipeline,
        even when only control (feedback) was captured. Only an uplink
        slot has a completion: the RU captures, and the L2 grants UL
        PDUs, in no other, so a D / S slot's would have no input."""
        done_at = (
            self.slot_clock.slot_start(abs_slot + UL_PIPELINE_SLOTS)
            + 120 * US
            + self.service_inflation_ns
        )
        handle = self.sim.at(done_at, self._finish_uplink, cell, abs_slot, ul_pdus)
        if ul_pdus and self.phy_backend is not None:
            self.phy_backend.register(done_at, self, cell, abs_slot, ul_pdus)
        self._pending.append(handle)

    def _dormant_slot(self, sleeper, abs_slot: int) -> None:
        """A dormant standby's null slot, evaluated (core/standby.py):
        :meth:`_process_cell_slot` on a null request pair with the same
        CPU accounting, RNG draws, ``SlotIndication`` and (in an uplink
        slot) completion, but the request pair is taken from the books
        and the two C-plane sends are elided into the NIC link."""
        cell = sleeper.cell
        sleeper.take(abs_slot)
        cell.consecutive_missing_tti = 0
        cpu = self.cpu
        cpu.slots_processed += 1
        cpu.null_slots += 1
        cpu.busy_core_us += CPU_NULL_SLOT_US
        # _emit_downlink's draws, in its order: the first C-plane's
        # jitter, then the mid-slot section's offset.
        first_tx = self._tx_jitter_ns()
        mid_offset = TX_LEAD_NS + MID_SECTION_NS + round(
            MID_SECTION_SPREAD_US * float(self.rng.random()) * US
        )
        now = self.sim.now
        uplink = self.uplink
        wire_bytes = sleeper.wire_bytes
        uplink.elide(now + first_tx, wire_bytes, abs_slot)
        uplink.elide(now + mid_offset, wire_bytes, abs_slot)
        self._emit_slot_indication(cell, abs_slot)
        if TDD.slot_type(abs_slot) is SlotType.UPLINK:
            self._schedule_finish(cell, abs_slot, [])

    def _null_cplane(self, cell: PhyCellContext, abs_slot: int) -> CplaneMessage:
        """A C-plane section with no grant or allocation: the mid-slot
        one of every slot, both of a null slot."""
        return CplaneMessage(
            ru_id=cell.ru_id,
            address=self.slot_clock.address_of(abs_slot),
            abs_slot=abs_slot,
            ul_grants=[],
            dl_allocations=[],
            source_phy_id=self.phy_id,
            vran_instance_id=self.config.vran_instance_id,
        )

    # ------------------------------------------------------------------
    # Downlink emission (the heartbeat + DL data)
    # ------------------------------------------------------------------
    def _emit_downlink(
        self,
        cell: PhyCellContext,
        abs_slot: int,
        ul_pdus,
        dl_pdus,
    ) -> None:
        # The mid-slot section, and the first too in a null slot: the two
        # would be equal, and nothing mutates a sent message. Its address
        # is the slot's, computed once.
        mid = self._null_cplane(cell, abs_slot)
        address = mid.address
        cplane = mid
        if ul_pdus or dl_pdus:
            cplane = CplaneMessage(
                ru_id=cell.ru_id,
                address=address,
                abs_slot=abs_slot,
                ul_grants=[
                    UlGrant(
                        ue_id=p.ue_id,
                        harq_process=p.harq_process,
                        modulation=p.modulation,
                        prbs=p.prbs,
                        new_data=p.new_data,
                        tb_id=p.tb_id,
                        tb_bytes=p.tb_bytes,
                        retx_index=p.retx_index,
                    )
                    for p in ul_pdus
                ],
                dl_allocations=[
                    DlAllocation(
                        ue_id=p.ue_id,
                        harq_process=p.harq_process,
                        modulation=p.modulation,
                        prbs=p.prbs,
                        new_data=p.new_data,
                        tb_id=p.tb_id,
                        retx_index=p.retx_index,
                    )
                    for p in dl_pdus
                ],
                source_phy_id=self.phy_id,
                vran_instance_id=self.config.vran_instance_id,
            )
        first_tx = self._tx_jitter_ns()
        self._send_fronthaul_at(self.sim.now + first_tx, cplane, cplane.wire_bytes)
        # DL U-plane data for each allocation, paced across the early slot.
        payloads = cell.tx_data.pop(abs_slot, {})
        offset = first_tx + UPLANE_DELAY_NS
        for pdu in dl_pdus:
            data = payloads.get(pdu.tb_id)
            block = TransportBlock(
                ue_id=pdu.ue_id,
                direction=LinkDirection.DOWNLINK,
                harq_process=pdu.harq_process,
                modulation=pdu.modulation,
                prbs=pdu.prbs,
                data=data,
                size_bytes=pdu.tb_bytes,
                new_data=pdu.new_data,
                retx_index=pdu.retx_index,
                slot=abs_slot,
                tb_id=pdu.tb_id,
            )
            packet = UplaneDownlink(
                ru_id=cell.ru_id,
                address=address,
                abs_slot=abs_slot,
                block=block,
                source_phy_id=self.phy_id,
            )
            self._send_fronthaul_at(self.sim.now + offset, packet, packet.wire_bytes)
            offset += UPLANE_PACING_NS
        # Second C-plane section packet mid-slot (symbol-group sections);
        # keeps the heartbeat cadence dense within the slot.
        mid_offset = TX_LEAD_NS + MID_SECTION_NS + round(
            MID_SECTION_SPREAD_US * float(self.rng.random()) * US
        )
        self._send_fronthaul_at(self.sim.now + mid_offset, mid, mid.wire_bytes)

    def _send_fronthaul_at(self, when: int, payload, wire_bytes: int) -> None:
        handle = self.sim.at(
            max(when, self.sim.now),
            self._send_fronthaul_now,
            payload,
            wire_bytes,
        )
        self._pending.append(handle)

    def _send_fronthaul_now(self, payload, wire_bytes: int) -> None:
        if not self.alive:
            return
        self.uplink.send(self._fronthaul_frame(payload, wire_bytes))

    def _fronthaul_frame(self, payload, wire_bytes: int) -> EthernetFrame:
        return EthernetFrame(
            src=self.mac,
            dst=_UNRESOLVED_DST,
            ethertype=EtherType.ECPRI,
            payload=payload,
            wire_bytes=wire_bytes,
        )

    def _emit_slot_indication(self, cell: PhyCellContext, abs_slot: int) -> None:
        self.fapi_tx.send(SlotIndication(cell_id=cell.cell_id, slot=abs_slot))

    # ------------------------------------------------------------------
    # Uplink pipeline completion
    # ------------------------------------------------------------------
    def _finish_uplink(self, cell: PhyCellContext, abs_slot: int, ul_pdus) -> None:
        if not self.alive:
            return
        crc_results: List[CrcResult] = []
        rx_payloads: List[Tuple[int, int, int, bytes]] = []
        # Pop every capture up front (same pop order as the old per-pdu
        # loop) and batch-encode the captured blocks in one pass — the
        # encode stage is RNG-free, so hoisting it leaves the channel /
        # measurement RNG draw order, and hence every digest, untouched.
        captured = [
            (pdu, cell.captures.pop((abs_slot, pdu.ue_id), None))
            for pdu in ul_pdus
        ]
        blocks = [capture.block for _, capture in captured if capture is not None]
        if not blocks:
            encoded = iter(())
        elif self.phy_backend is not None:
            # Fleet backend: one batched kernel invocation covers every
            # cell completing at this instant; element-for-element
            # identical to the standalone cell's call below.
            encoded = iter(self.phy_backend.encode_blocks(self, blocks))
        else:
            encoded = iter(self.codec.encode_blocks(blocks))
        for pdu, capture in captured:
            if capture is None:
                # Nothing arrived on the fronthaul for this allocation
                # (lost packets or UE never got the grant): the PHY
                # processes garbage samples (§4).
                block = TransportBlock(
                    ue_id=pdu.ue_id,
                    direction=LinkDirection.UPLINK,
                    harq_process=pdu.harq_process,
                    modulation=pdu.modulation,
                    prbs=pdu.prbs,
                    data=None,
                    size_bytes=pdu.tb_bytes,
                    new_data=pdu.new_data,
                    retx_index=pdu.retx_index,
                    slot=abs_slot,
                    tb_id=pdu.tb_id,
                )
                outcome = self.codec.decode_garbage(block)
            else:
                realization = capture.realization
                if self.beamforming is not None:
                    # Massive MIMO: the accumulated beam gain lifts the
                    # effective SNR; this capture also serves as a
                    # sounding observation sharpening the estimate.
                    gain = self.beamforming.gain_db(pdu.ue_id, abs_slot)
                    realization = ChannelRealization(
                        snr_db=realization.snr_db + gain
                    )
                    self.beamforming.on_sounding(pdu.ue_id, abs_slot)
                outcome = self.codec.decode_block(
                    capture.block, realization, symbols=next(encoded)
                )
                self.snr_filter.update(pdu.ue_id, outcome.measured_snr_db)
            self.cpu.fec_decodes += 1
            crc_results.append(
                CrcResult(
                    ue_id=pdu.ue_id,
                    harq_process=pdu.harq_process,
                    tb_id=pdu.tb_id,
                    crc_ok=outcome.crc_ok,
                    measured_snr_db=self.snr_filter.report(pdu.ue_id),
                    retx_index=pdu.retx_index,
                )
            )
            if outcome.crc_ok and outcome.data is not None:
                rx_payloads.append(
                    (pdu.ue_id, pdu.harq_process, pdu.tb_id, outcome.data)
                )
        feedback = [
            HarqFeedback(ue_id=ue, harq_process=hp, tb_id=tb, ack=ack)
            for (ue, hp, tb, ack) in cell.feedback_only.pop(abs_slot, [])
        ]
        bsr_reports = sorted(cell.bsr.pop(abs_slot, {}).items())
        if crc_results:
            self.fapi_tx.send(
                CrcIndication(cell_id=cell.cell_id, slot=abs_slot, results=crc_results)
            )
        if rx_payloads:
            self.fapi_tx.send(
                RxDataIndication(
                    cell_id=cell.cell_id, slot=abs_slot, payloads=rx_payloads
                )
            )
        if feedback or bsr_reports:
            self.fapi_tx.send(
                UciIndication(
                    cell_id=cell.cell_id,
                    slot=abs_slot,
                    feedback=feedback,
                    bsr_reports=bsr_reports,
                )
            )
        # Drop stale captures so memory stays bounded.
        stale = [key for key in cell.captures if key[0] < abs_slot - 8]
        for key in stale:
            del cell.captures[key]

    # ------------------------------------------------------------------
    # Introspection (the state migration would have to copy)
    # ------------------------------------------------------------------
