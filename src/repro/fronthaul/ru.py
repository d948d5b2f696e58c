"""Radio unit (RU) model.

The RU is dumb by design in split 7.2x: it radiates whatever IQ data the
PHY's C/U-plane packets describe and captures uplink IQ on command. It is
addressed by, and sends to, a single **virtual PHY MAC address**; the
switch middlebox translates that to the current primary PHY (paper §5.1),
so the RU never knows a migration happened.

Protocol compliance checking: the RU records when it observes packets for
the *same* slot from two different PHY sources — the malfunction scenario
that motivates TTI-boundary-aligned migration. The ablation bench flips
the middlebox into unaligned mode and watches this counter go up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.fronthaul.air import AirInterface
from repro.fronthaul.oran import (
    CplaneMessage,
    UplaneDownlink,
    UplaneUplink,
    UplaneUplinkControlOnly,
)
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import ETH_ECPRI, EthernetFrame
from repro.phy.numerology import TDD, UPLINK_SLOT, SlotClock
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder
from repro.sim.units import US

#: How long past slot start the RU waits for the slot's C-plane.
CONTROL_DEADLINE_NS = 200 * US


@dataclass
class RuStats:
    """Counters for RU-side behaviour and compliance checks."""

    cplane_received: int = 0
    uplane_dl_received: int = 0
    ul_packets_sent: int = 0
    slots_with_control: int = 0
    slots_without_control: int = 0
    #: Slots for which packets from more than one PHY source were seen —
    #: the protocol violation unaligned migration would cause.
    conflicting_source_slots: int = 0


class RadioUnit(Process):
    """A split-7.2x radio unit bound to one air interface.

    Per downlink slot, the RU waits (until just past the slot start) for
    the C-plane packet from its PHY; if present, it broadcasts control
    (incl. UL grants) to UEs and radiates any U-plane TBs that arrived.
    Per uplink slot, it captures UE transmissions at slot end and ships
    them to the virtual PHY address.
    """

    def __init__(
        self,
        sim: Simulator,
        ru_id: int,
        mac: MacAddress,
        virtual_phy_mac: MacAddress,
        slot_clock: SlotClock,
        air: AirInterface,
        trace: TraceRecorder,
        name: str,
    ) -> None:
        super().__init__(sim, name)
        self.ru_id = ru_id
        self.mac = mac
        self.virtual_phy_mac = virtual_phy_mac
        self.slot_clock = slot_clock
        self.air = air
        #: Fronthaul link into the switch: its ingress link, which exists
        #: only once the switch has cabled this RU (set by the builder,
        #: before the first slot).
        self.uplink: Link
        self.trace = trace
        self.stats = RuStats()
        #: C-plane messages received, keyed by absolute slot.
        self._cplane: Dict[int, CplaneMessage] = {}
        #: DL U-plane blocks received, keyed by absolute slot.
        self._dl_data: Dict[int, List[UplaneDownlink]] = {}
        #: PHY source ids seen per slot (compliance check).
        self._sources_per_slot: Dict[int, Set[int]] = {}
        #: Most recent downlink source PHY (None until the first frame).
        self._last_source_phy: Optional[int] = None
        self._started = False

    def start(self) -> None:
        """Begin per-slot operation with the next slot: one periodic
        event per slot, at its control deadline."""
        if self._started:
            return
        self._started = True
        next_slot = self.slot_clock.slot_at(self.sim.now) + 1
        self.sim.schedule_periodic(
            self.slot_clock.slot_duration_ns,
            self._process_slot,
            first_at=self.slot_clock.slot_start(next_slot) + CONTROL_DEADLINE_NS,
        )

    # ------------------------------------------------------------------
    # Fronthaul receive path (network endpoint protocol)
    # ------------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, ingress: Link) -> None:
        """Handle a fronthaul packet from the switch."""
        payload = frame.payload
        if isinstance(payload, CplaneMessage):
            self._record_source(payload.abs_slot, payload.source_phy_id)
            self.stats.cplane_received += 1
            # Keep the first C-plane for a slot; duplicates from a second
            # source are counted by _record_source.
            self._cplane.setdefault(payload.abs_slot, payload)
        elif isinstance(payload, UplaneDownlink):
            self._record_source(payload.abs_slot, payload.source_phy_id)
            self.stats.uplane_dl_received += 1
            self._dl_data.setdefault(payload.abs_slot, []).append(payload)

    def _record_source(self, abs_slot: int, source_phy_id: int) -> None:
        if source_phy_id != self._last_source_phy:
            # Compact handover audit trail: one event per PHY transition
            # (invariant checkers compare these against committed
            # migrations to spot stale post-boundary sources).
            self.trace.record(
                self.sim.now,
                "ru.source_changed",
                ru=self.ru_id,
                slot=abs_slot,
                source=source_phy_id,
                previous=self._last_source_phy,
            )
            self._last_source_phy = source_phy_id
        sources = self._sources_per_slot.setdefault(abs_slot, set())
        before = len(sources)
        sources.add(source_phy_id)
        if before == 1 and len(sources) == 2:
            self.stats.conflicting_source_slots += 1
            self.trace.record(
                self.sim.now, "ru.conflicting_sources", slot=abs_slot, ru=self.ru_id
            )

    # ------------------------------------------------------------------
    # Per-slot operation
    # ------------------------------------------------------------------
    def _process_slot(self) -> None:
        # Fires at each slot's control deadline, the PHY's packets having
        # had a grace window past the slot start; the engine re-arms the
        # next one before this callback runs, so a failure in this slot's
        # handling can never stop the radio. A frame arriving at this very
        # nanosecond was sent after the slot started, so it follows.
        abs_slot = self.slot_clock.slot_at(self.sim.now)
        # Garbage-collect state from long-past slots: what a scan frees
        # is at least 16 slots stale, so one scan in 16 slots is enough.
        if abs_slot % 16 == 0:
            self._gc(abs_slot - 16)
        cplane = self._cplane.pop(abs_slot, None)
        if cplane is None:
            self.stats.slots_without_control += 1
            # Nothing to radiate; UEs observe downlink silence this slot.
            self._dl_data.pop(abs_slot, None)
            return
        self.stats.slots_with_control += 1
        # Broadcast downlink control (carries UL grants) to all UEs.
        self.air.broadcast_dl_control(
            abs_slot, cplane.ul_grants, cplane.vran_instance_id
        )
        # Radiate downlink data.
        for packet in self._dl_data.pop(abs_slot, []):
            self.air.deliver_dl_data(abs_slot, packet.block)
        if TDD.slot_type(abs_slot) is UPLINK_SLOT:
            # Capture at the end of the slot: UEs transmit during it.
            capture_at = self.slot_clock.slot_start(abs_slot + 1)
            self.sim.at(capture_at, self._capture_uplink, abs_slot)

    def _capture_uplink(self, abs_slot: int) -> None:
        address = self.slot_clock.address_of(abs_slot)
        transmissions = self.air.collect_uplink(abs_slot)
        for transmission in transmissions:
            if transmission.block is not None:
                payload = UplaneUplink(
                    ru_id=self.ru_id,
                    address=address,
                    abs_slot=abs_slot,
                    block=transmission.block,
                    realization=transmission.realization,
                    dl_feedback=transmission.dl_feedback,
                    bsr_bytes=transmission.bsr_bytes,
                )
            elif transmission.dl_feedback or transmission.bsr_bytes:
                payload = UplaneUplinkControlOnly(
                    ru_id=self.ru_id,
                    address=address,
                    abs_slot=abs_slot,
                    ue_id=transmission.ue_id,
                    dl_feedback=transmission.dl_feedback,
                    bsr_bytes=transmission.bsr_bytes,
                )
            else:
                continue
            frame = EthernetFrame(
                src=self.mac,
                dst=self.virtual_phy_mac,
                ethertype=ETH_ECPRI,
                payload=payload,
                wire_bytes=payload.wire_bytes,
            )
            self.uplink.send(frame)
            self.stats.ul_packets_sent += 1

    def _gc(self, before_slot: int) -> None:
        for store in (self._cplane, self._dl_data, self._sources_per_slot):
            stale = [slot for slot in store if slot < before_slot]
            for slot in stale:
                del store[slot]
