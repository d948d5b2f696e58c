"""The over-the-air interface between one RU and its UEs.

The air is a broadcast medium: the RU radiates downlink control and data
to all attached UEs, and collects whatever the UEs transmitted during an
uplink slot. Propagation delay at cell scale (< 10 km) is microseconds
and is folded into the slot-aligned timing, so exchanges here are
registry operations rather than scheduled events; all *timing* effects
come from which slots carry what.

Channel quality is per-UE: each :class:`UeRadioPort` owns a
:class:`~repro.phy.channel.UeChannelModel` queried at transmission time,
so both the RU-side (uplink) and UE-side (downlink) decodes see the same
slot's realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.phy.channel import ChannelRealization, UeChannelModel
from repro.phy.transport import TransportBlock
from repro.fronthaul.oran import UlGrant


class UeAirListener(Protocol):
    """UE-side hooks invoked by the air interface."""

    def on_dl_control(
        self, abs_slot: int, grants: List[UlGrant], vran_instance_id: int
    ) -> None:
        """Downlink control (incl. this UE's UL grants) received for a slot."""

    def on_dl_data(
        self, abs_slot: int, block: TransportBlock, realization: ChannelRealization
    ) -> None:
        """One downlink TB addressed to this UE arrives over the air."""


@dataclass
class UlTransmission:
    """What one UE put on the air in an uplink slot."""

    ue_id: int
    block: Optional[TransportBlock]
    realization: ChannelRealization
    #: (ue_id, harq_process, tb_id, ack) feedback for DL HARQ.
    dl_feedback: List[Tuple[int, int, int, bool]] = field(default_factory=list)
    #: Buffer status report: uplink bytes awaiting grants at the UE.
    bsr_bytes: int = 0


class UeRadioPort:
    """One UE's attachment point to the air."""

    def __init__(self, ue_id: int, channel: UeChannelModel, listener: UeAirListener) -> None:
        self.ue_id = ue_id
        self.channel = channel
        self.listener = listener
        #: Set False while the UE considers itself detached (post-RLF).
        self.attached = True
        #: Uplink transmissions staged for collection, keyed by slot.
        self._pending_ul: Dict[int, UlTransmission] = {}

    def realization_for(self, abs_slot: int) -> ChannelRealization:
        """The UE's channel realization for a slot (UL/DL reciprocal)."""
        return self.channel.snr_for_slot(abs_slot)

    def stage_uplink(
        self,
        abs_slot: int,
        block: Optional[TransportBlock],
        dl_feedback: List[Tuple[int, int, int, bool]],
        bsr_bytes: int,
    ) -> None:
        """Queue this UE's transmission for an uplink slot."""
        self._pending_ul[abs_slot] = UlTransmission(
            ue_id=self.ue_id,
            block=block,
            realization=self.realization_for(abs_slot),
            dl_feedback=dl_feedback,
            bsr_bytes=bsr_bytes,
        )

    def collect_uplink(self, abs_slot: int) -> Optional[UlTransmission]:
        """RU-side: take whatever this UE transmitted in ``abs_slot``."""
        return self._pending_ul.pop(abs_slot, None)

    def drop_stale(self, before_slot: int) -> None:
        """Discard staged transmissions for slots that already passed."""
        stale = [slot for slot in self._pending_ul if slot < before_slot]
        for slot in stale:
            del self._pending_ul[slot]


class AirInterface:
    """Broadcast medium binding one RU to its attached UEs."""

    def __init__(self) -> None:
        self._ports: Dict[int, UeRadioPort] = {}

    def attach(self, port: UeRadioPort) -> None:
        """Attach a UE's radio port to this cell's air interface."""
        self._ports[port.ue_id] = port

    def port(self, ue_id: int) -> Optional[UeRadioPort]:
        return self._ports.get(ue_id)

    # ------------------------------------------------------------------
    # Downlink (RU -> UEs)
    # ------------------------------------------------------------------
    def broadcast_dl_control(
        self, abs_slot: int, grants: List[UlGrant], vran_instance_id: int
    ) -> None:
        """Radiate the slot's downlink control to every attached UE."""
        for port in self._ports.values():
            if port.attached:
                port.listener.on_dl_control(abs_slot, grants, vran_instance_id)

    def deliver_dl_data(self, abs_slot: int, block: TransportBlock) -> None:
        """Radiate one downlink TB; only its target UE decodes it."""
        port = self._ports.get(block.ue_id)
        if port is not None and port.attached:
            port.listener.on_dl_data(abs_slot, block, port.realization_for(abs_slot))

    # ------------------------------------------------------------------
    # Uplink (UEs -> RU)
    # ------------------------------------------------------------------
    def collect_uplink(self, abs_slot: int) -> List[UlTransmission]:
        """RU-side capture of all transmissions made in an uplink slot."""
        captured: List[UlTransmission] = []
        for port in self._ports.values():
            transmission = port.collect_uplink(abs_slot)
            if transmission is not None and port.attached:
                captured.append(transmission)
            port.drop_stale(abs_slot)
        return captured
