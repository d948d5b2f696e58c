"""O-RAN fronthaul packet payloads.

Modeled at the granularity Slingshot needs: each payload names its RU
(eAxC stand-in), carries the O-RAN timing fields (frame, subframe, slot),
and declares a realistic wire size so link accounting reflects the real
fronthaul volume even though IQ payloads are represented symbolically.

Payload classes:

* :class:`CplaneMessage` — the per-slot control-plane packet from the PHY
  telling the RU which resources to transmit/capture. This is the packet
  stream the failure detector treats as a heartbeat.
* :class:`UplaneDownlink` — downlink IQ data (PHY → RU): encoded
  transport blocks to be radiated.
* :class:`UplaneUplink` — uplink IQ data (RU → PHY): what the RU captured
  in an uplink slot (transport blocks + channel realizations to be
  decoded by the PHY).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.phy.channel import ChannelRealization
from repro.phy.modulation import Modulation
from repro.phy.numerology import NUMEROLOGY, SlotAddress
from repro.phy.transport import TransportBlock

#: Bits per compressed IQ component (9-bit block floating point is the
#: common O-RAN compression choice).
IQ_SAMPLE_BITS = 9 * 2

#: Ethernet + eCPRI + O-RAN section header overhead per packet.
HEADER_OVERHEAD_BYTES = 54


def uplane_wire_bytes(prbs: int) -> int:
    """On-the-wire bytes of IQ data for an allocation of ``prbs`` PRBs.

    For a full 273-PRB slot this comes to ~530 kB across the slot's
    packets, i.e. ≈4.5 Gb/s of downlink fronthaul for three DL slots per
    2.5 ms — matching the paper's testbed figure.
    """
    samples = NUMEROLOGY.resource_elements_per_slot(prbs)
    return HEADER_OVERHEAD_BYTES + (samples * IQ_SAMPLE_BITS + 7) // 8


@dataclass(frozen=True)
class UlGrant:
    """An uplink allocation announced to a UE via downlink control."""

    ue_id: int
    harq_process: int
    modulation: Modulation
    prbs: int
    new_data: bool
    tb_id: int
    tb_bytes: int
    retx_index: int = 0


@dataclass(frozen=True)
class DlAllocation:
    """Descriptor of one downlink TB inside the slot's C-plane message."""

    ue_id: int
    harq_process: int
    modulation: Modulation
    prbs: int
    new_data: bool
    tb_id: int
    retx_index: int = 0


@dataclass
class CplaneMessage:
    """Per-slot control-plane fronthaul packet (PHY → RU).

    Sent by a healthy PHY in **every** slot, even when no user work is
    scheduled — which is what makes it a usable liveness heartbeat.
    """

    ru_id: int
    address: SlotAddress
    #: Absolute slot counter (simulation-side convenience; the real
    #: header carries only the wrapped address above).
    abs_slot: int
    #: UL grants to broadcast to UEs for this slot.
    ul_grants: List[UlGrant] = field(default_factory=list)
    #: DL allocations the RU should expect U-plane data for.
    dl_allocations: List[DlAllocation] = field(default_factory=list)
    #: Which PHY instance produced this packet (for RU-side interop checks).
    source_phy_id: int = -1
    #: Identity of the vRAN stack (L2 instance) behind this PHY. UEs use
    #: continuity of this identity as a proxy for their RRC context being
    #: valid: Slingshot's primary/secondary share one L2 so the identity
    #: never changes; a baseline backup vRAN is a different stack, and
    #: the UE must re-establish (the ~6.2 s outage of §8.1).
    vran_instance_id: int = 1

    @property
    def wire_bytes(self) -> int:
        per_section = 16
        return HEADER_OVERHEAD_BYTES + per_section * (
            len(self.ul_grants) + len(self.dl_allocations) + 1
        )


@dataclass
class UplaneDownlink:
    """Downlink IQ data packet (PHY → RU): one encoded TB to radiate."""

    ru_id: int
    address: SlotAddress
    abs_slot: int
    block: TransportBlock
    source_phy_id: int = -1

    @property
    def wire_bytes(self) -> int:
        return uplane_wire_bytes(self.block.prbs)


@dataclass
class UplaneUplink:
    """Uplink IQ data packet (RU → PHY): one captured transmission.

    ``realization`` is the channel state the transmission experienced;
    the PHY's codec applies the corresponding noise when it decodes, so
    the decode outcome is faithful to the realized SNR.
    """

    ru_id: int
    address: SlotAddress
    abs_slot: int
    block: TransportBlock
    realization: ChannelRealization
    #: HARQ ACK/NACK feedback for downlink TBs, decoded from UL control.
    dl_feedback: List[Tuple[int, int, int, bool]] = field(default_factory=list)
    #: Buffer status report carried in the UL MAC header.
    bsr_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        return uplane_wire_bytes(max(self.block.prbs, 1))


@dataclass
class UplaneUplinkControlOnly:
    """UL control-plane capture when a UE has feedback but no data grant."""

    ru_id: int
    address: SlotAddress
    abs_slot: int
    ue_id: int = -1
    dl_feedback: List[Tuple[int, int, int, bool]] = field(default_factory=list)
    #: Scheduling request / buffer status carried on PUCCH.
    bsr_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        return HEADER_OVERHEAD_BYTES + 8 * len(self.dl_feedback)
