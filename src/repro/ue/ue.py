"""The UE model.

A :class:`UserEquipment` is attached to one cell's air interface and:

* receives downlink control each slot (its synchronization heartbeat —
  the RLF timer resets on it) and downlink data TBs, which it decodes
  with a real codec including UE-side HARQ chase combining;
* transmits on uplink grants, keeping per-HARQ-process copies so that
  retransmission grants resend the same transport block;
* queues HARQ ACK/NACK feedback for downlink TBs and RLC status reports,
  piggybacking them on uplink transmissions (PUCCH-style control-only
  transmissions happen in uplink slots even without a data grant);
* runs the radio-link-failure state machine: if downlink control goes
  silent for ``RLF_TIMEOUT_NS`` (50 ms in the paper's setup), the UE
  declares RLF, detaches, and begins the full reattach procedure through
  the core network — the ~6.2 s outage that Slingshot eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.fronthaul.air import AirInterface, UeRadioPort
from repro.fronthaul.oran import UlGrant
from repro.l2.rlc import (
    PDU_HEADER_BYTES,
    RLC_AM,
    RlcBearerConfig,
    RlcPdu,
    RlcReceiver,
    RlcStatus,
    RlcTransmitter,
)
from repro.phy.channel import ChannelRealization, UeChannelModel
from repro.phy.codec import PhyCodec
from repro.phy.numerology import TDD, UPLINK_SLOT, SlotClock
from repro.phy.transport import UPLINK_TB, TransportBlock
from repro.sim.engine import SimClock, Simulator
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS, US


# UE tunables.

#: Radio link failure timer (paper setup: 50 ms).
RLF_TIMEOUT_NS = 50 * MS
#: Downlink decoder iterations in the UE modem.
DECODER_ITERATIONS = 8
#: Interval between UE-generated RLC status reports for DL bearers.
STATUS_INTERVAL_NS = 5 * MS
#: Offset into a slot at which control-only uplink is staged.
PUCCH_STAGE_OFFSET_NS = 250 * US


@dataclass
class UeStats:
    dl_tbs_received: int = 0
    dl_crc_ok: int = 0
    dl_crc_fail: int = 0
    ul_transmissions: int = 0
    control_only_transmissions: int = 0
    rlf_events: int = 0
    reattach_completions: int = 0


class UserEquipment(Process):
    """One UE: modem, RLC endpoints, RLF state machine, app dispatch."""

    def __init__(
        self,
        sim: Simulator,
        ue_id: int,
        slot_clock: SlotClock,
        air: AirInterface,
        channel: UeChannelModel,
        rng: np.random.Generator,
        bearers: List[RlcBearerConfig],
        trace: TraceRecorder,
        name: str,
    ) -> None:
        super().__init__(sim, name)
        self.ue_id = ue_id
        self.slot_clock = slot_clock
        self.trace = trace
        self.bearer_configs = list(bearers)
        self.codec = PhyCodec(rng, decoder_iterations=DECODER_ITERATIONS)
        self.stats = UeStats()
        self.attached = True
        #: Radio port registered on the air interface.
        self.port = UeRadioPort(ue_id=ue_id, channel=channel, listener=self)
        air.attach(self.port)
        #: UL transmitters and DL receivers per bearer (UE side).
        self.ul_tx: Dict[int, RlcTransmitter] = {}
        self.dl_rx: Dict[int, RlcReceiver] = {}
        self._build_bearers()
        #: HARQ feedback queued for the next uplink opportunity.
        self._pending_feedback: List[Tuple[int, int, int, bool]] = []
        #: RLC status reports queued for uplink.
        self._pending_ul_status: List[RlcStatus] = []
        #: Sent UL blocks per tb_id (for HARQ retransmission grants).
        self._sent_blocks: Dict[int, TransportBlock] = {}
        #: Slots already staged (avoid double-staging data + control).
        self._staged_slots: set = set()
        self._last_dl_control_ns = sim.now
        self._last_status_ns = sim.now
        #: The vRAN stack identity this UE's RRC context lives in.
        self._vran_instance_id: Optional[int] = None
        self._out_of_sync = False
        #: Called when RLF fires: callable(ue) — wired by
        #: ``CoreNetwork.admit_ue``, which every builder calls for every UE.
        self.on_rlf: Callable[["UserEquipment"], None]
        #: Downlink SDU dispatch: callable(bearer_id, sdu).
        self.dl_sink: Optional[Callable[[int, Any], None]] = None
        self._schedule_tick()

    def _build_bearers(self) -> None:
        self.ul_tx = {b.bearer_id: RlcTransmitter(b) for b in self.bearer_configs}
        self.dl_rx = {
            b.bearer_id: RlcReceiver(b, now_fn=SimClock(self.sim))
            for b in self.bearer_configs
        }

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_uplink(self, bearer_id: int, sdu: Any, size_bytes: int) -> bool:
        """Queue one uplink SDU; False when detached or queue overflows."""
        if not self.attached:
            return False
        tx = self.ul_tx.get(bearer_id)
        if tx is None:
            return False
        return tx.enqueue(sdu, size_bytes)

    @property
    def uplink_backlog_bytes(self) -> int:
        """Bytes awaiting an uplink grant (drives the BSR).

        RLC status reports count too: they can only travel inside a
        granted transport block, so they must attract a grant.
        """
        data = sum(tx.backlog_bytes for tx in self.ul_tx.values())
        status = sum(s.wire_bytes for s in self._pending_ul_status)
        return data + status

    # ------------------------------------------------------------------
    # Air interface listener (UeAirListener protocol)
    # ------------------------------------------------------------------
    def on_dl_control(
        self, abs_slot: int, grants: List[UlGrant], vran_instance_id: int
    ) -> None:
        if not self.attached:
            return
        if self._vran_instance_id is None:
            self._vran_instance_id = vran_instance_id
        elif vran_instance_id != self._vran_instance_id:
            # A *different* vRAN stack took over the cell: this UE's RRC
            # context does not exist there, so service cannot resume until
            # re-establishment. The UE stops treating control as sync and
            # lets its RLF timer expire (then reattaches through the core).
            self._out_of_sync = True
        if self._out_of_sync:
            return
        self._last_dl_control_ns = self.sim.now
        my_grants = [g for g in grants if g.ue_id == self.ue_id]
        for grant in my_grants:
            self._transmit_on_grant(abs_slot, grant)

    def on_dl_data(
        self, abs_slot: int, block: TransportBlock, realization: ChannelRealization
    ) -> None:
        if not self.attached or block.ue_id != self.ue_id:
            return
        self.stats.dl_tbs_received += 1
        outcome = self.codec.decode_block(block, realization)
        self._pending_feedback.append(
            (self.ue_id, block.harq_process, block.tb_id, outcome.crc_ok)
        )
        if not outcome.crc_ok:
            self.stats.dl_crc_fail += 1
            return
        self.stats.dl_crc_ok += 1
        if outcome.data is None:
            return
        for item in outcome.data:
            self._consume_dl_item(item)

    def _consume_dl_item(self, item: Any) -> None:
        if isinstance(item, RlcStatus):
            tx = self.ul_tx.get(item.bearer_id)
            if tx is not None:
                tx.on_status(item)
            return
        if isinstance(item, RlcPdu):
            receiver = self.dl_rx.get(item.bearer_id)
            if receiver is None:
                return
            for sdu in receiver.on_pdu(item):
                if self.dl_sink is not None:
                    self.dl_sink(item.bearer_id, sdu)

    # ------------------------------------------------------------------
    # Uplink transmission
    # ------------------------------------------------------------------
    def _transmit_on_grant(self, abs_slot: int, grant: UlGrant) -> None:
        if grant.new_data:
            items: List[Any] = []
            used = 0
            capacity = grant.tb_bytes
            while self._pending_ul_status and used < capacity:
                status = self._pending_ul_status.pop(0)
                items.append(status)
                used += status.wire_bytes
            for tx in self.ul_tx.values():
                if used >= capacity:
                    break
                pulled = tx.pull(capacity - used)
                items.extend(pulled)
                for rlc_pdu in pulled:
                    used += PDU_HEADER_BYTES + rlc_pdu.length  # its ``wire_bytes``
            block = TransportBlock(
                ue_id=self.ue_id,
                direction=UPLINK_TB,
                harq_process=grant.harq_process,
                modulation=grant.modulation,
                prbs=grant.prbs,
                data=items,
                size_bytes=max(used, 1),
                new_data=True,
                retx_index=0,
                slot=abs_slot,
                tb_id=grant.tb_id,
            )
            self._sent_blocks[grant.tb_id] = block
            if len(self._sent_blocks) > 64:
                oldest = sorted(self._sent_blocks)[: len(self._sent_blocks) - 64]
                for tb_id in oldest:
                    del self._sent_blocks[tb_id]
        else:
            original = self._sent_blocks.get(grant.tb_id)
            if original is None:
                # The original was never built (e.g. grant lost during a
                # blackout): transmit padding so the PHY sees *something*.
                original = TransportBlock(
                    ue_id=self.ue_id,
                    direction=UPLINK_TB,
                    harq_process=grant.harq_process,
                    modulation=grant.modulation,
                    prbs=grant.prbs,
                    data=[],
                    size_bytes=1,
                    slot=abs_slot,
                    tb_id=grant.tb_id,
                )
                self._sent_blocks[grant.tb_id] = original
            block = original.retransmission(abs_slot)
        feedback = self._take_feedback()
        self.port.stage_uplink(
            abs_slot, block, feedback, bsr_bytes=self.uplink_backlog_bytes
        )
        self._staged_slots.add(abs_slot)
        self.stats.ul_transmissions += 1

    def _take_feedback(self) -> List[Tuple[int, int, int, bool]]:
        feedback = self._pending_feedback
        self._pending_feedback = []
        return feedback

    # ------------------------------------------------------------------
    # Per-slot tick: PUCCH staging, status generation, RLF supervision
    # ------------------------------------------------------------------
    def _schedule_tick(self) -> None:
        next_slot = self.slot_clock.slot_at(self.sim.now) + 1
        self.sim.schedule_periodic(
            self.slot_clock.slot_duration_ns,
            self._tick,
            first_at=self.slot_clock.slot_start(next_slot)
            + PUCCH_STAGE_OFFSET_NS,
        )

    def _tick(self) -> None:
        # Fires pucch_stage_offset_ns into each slot.
        abs_slot = self.slot_clock.slot_at(self.sim.now)
        self._staged_slots = {s for s in self._staged_slots if s >= abs_slot - 4}
        if not self.attached:
            return
        # Radio link supervision.
        if self.sim.now - self._last_dl_control_ns > RLF_TIMEOUT_NS:
            self._radio_link_failure()
            return
        # Periodic RLC status generation for DL AM bearers.
        if self.sim.now - self._last_status_ns >= STATUS_INTERVAL_NS:
            self._last_status_ns = self.sim.now
            for bearer_id, receiver in self.dl_rx.items():
                if receiver.config.mode is RLC_AM and receiver.status_due:
                    self._pending_ul_status.append(receiver.build_status())
        # Control-only (PUCCH) transmission in uplink slots without a
        # grant: HARQ feedback, RLC status prompts, and scheduling
        # requests (BSR) all ride here.
        backlog = self.uplink_backlog_bytes
        if (
            TDD.slot_type(abs_slot) is UPLINK_SLOT
            and abs_slot not in self._staged_slots
            and (self._pending_feedback or self._pending_ul_status or backlog)
        ):
            self.port.stage_uplink(
                abs_slot, None, self._take_feedback(), bsr_bytes=backlog
            )
            self._staged_slots.add(abs_slot)
            self.stats.control_only_transmissions += 1

    # ------------------------------------------------------------------
    # RLF / reattach
    # ------------------------------------------------------------------
    def _radio_link_failure(self) -> None:
        self.attached = False
        self.port.attached = False
        self.stats.rlf_events += 1
        # All radio-layer state is lost.
        self._build_bearers()
        self._pending_feedback.clear()
        self._pending_ul_status.clear()
        self._sent_blocks.clear()
        self.codec.harq.discard_all()
        self.trace.record(self.sim.now, "ue.rlf", ue=self.ue_id)
        self.on_rlf(self)

    def complete_reattach(self) -> None:
        """Called by the core once the attach procedure finishes."""
        self.attached = True
        self.port.attached = True
        self._last_dl_control_ns = self.sim.now
        # A fresh RRC context is established with whichever stack now
        # serves the cell.
        self._vran_instance_id = None
        self._out_of_sync = False
        self.stats.reattach_completions += 1
        self.trace.record(self.sim.now, "ue.reattached", ue=self.ue_id)
