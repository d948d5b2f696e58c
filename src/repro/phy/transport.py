"""Transport blocks and decode outcomes.

A transport block (TB) is the unit of data the MAC hands to the PHY for
one UE in one slot. Real 100 MHz TBs run to tens of kilobytes; the
simulation decodes one representative LDPC codeword per TB and applies its
fate to the whole block, with ``size_bytes`` recording the real size for
throughput accounting (see EXPERIMENTS.md, "scaling").

Payload convention (ns-3 style): ``data`` is a typed Python object (RLC
PDU list, raw bytes in tests); ``size_bytes`` is its declared on-the-wire
size, which drives all link and air-interface accounting.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.phy.modulation import Modulation


class LinkDirection(enum.Enum):
    """Uplink (UE → network) or downlink (network → UE)."""

    UPLINK = "UL"
    DOWNLINK = "DL"


#: The members bound once, for the per-slot paths that build blocks.
UPLINK_TB = LinkDirection.UPLINK
DOWNLINK_TB = LinkDirection.DOWNLINK


_tb_ids = itertools.count(1)


@dataclass
class TransportBlock:
    """One MAC-to-PHY (or UE-to-RU) data unit.

    ``data`` is the payload object carried by the block (it reaches the
    receiving RLC on decode success); ``size_bytes`` is its declared wire
    size.
    """

    ue_id: int
    direction: LinkDirection
    harq_process: int
    modulation: Modulation
    prbs: int
    data: Any
    size_bytes: int = 0
    #: New-data indicator: False for HARQ retransmissions.
    new_data: bool = True
    #: Retransmission index (0 = original transmission).
    retx_index: int = 0
    #: Slot in which the block is (re)transmitted.
    slot: int = -1
    tb_id: int = field(default_factory=_tb_ids.__next__)

    def __post_init__(self) -> None:
        if self.size_bytes == 0 and isinstance(self.data, (bytes, bytearray)):
            self.size_bytes = len(self.data)

    @property
    def payload_bytes(self) -> int:
        return self.size_bytes

    def retransmission(self, slot: int) -> "TransportBlock":
        """Clone this block as its next HARQ retransmission."""
        return TransportBlock(
            ue_id=self.ue_id,
            direction=self.direction,
            harq_process=self.harq_process,
            modulation=self.modulation,
            prbs=self.prbs,
            data=self.data,
            size_bytes=self.size_bytes,
            new_data=False,
            retx_index=self.retx_index + 1,
            slot=slot,
            tb_id=self.tb_id,
        )


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of the PHY's attempt to decode one transport block."""

    tb_id: int
    ue_id: int
    harq_process: int
    crc_ok: bool
    #: Measured SNR of this transmission (before filtering).
    measured_snr_db: float
    #: LDPC iterations used by the decoder.
    decoder_iterations: int
    #: Number of transmissions chase-combined (1 = no combining gain).
    combined_transmissions: int
    #: The decoded payload object; None when CRC failed.
    data: Optional[Any] = None
