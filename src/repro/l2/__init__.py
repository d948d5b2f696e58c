"""L2 (MAC + RLC) substrate — the CapGemini-L2 stand-in.

The L2 owns all *hard* UE state (paper §4): RLC sequence numbers and
retransmission buffers, HARQ process bookkeeping, and link adaptation.
It issues per-slot FAPI work requests to the PHY and reacts to the PHY's
indications. Because the hard state lives here, a PHY migration that
discards layer-1 soft state is recoverable: failed HARQ sequences fall
through to RLC AM retransmission (and ultimately TCP).

Modules:

* :mod:`repro.l2.rlc` — RLC AM/UM with segmentation, reassembly, and
  status-driven retransmission.
* :mod:`repro.l2.mac` — the MAC scheduler: TDD-aware PRB allocation,
  SNR-driven MCS selection, UL/DL HARQ management, and FAPI generation.
"""

from repro.l2.rlc import RlcMode, RlcPdu, RlcBearerConfig, RlcTransmitter, RlcReceiver
from repro.l2.mac import L2Process, McsTable, UeContext

__all__ = [
    "RlcMode",
    "RlcPdu",
    "RlcBearerConfig",
    "RlcTransmitter",
    "RlcReceiver",
    "L2Process",
    "McsTable",
    "UeContext",
]
