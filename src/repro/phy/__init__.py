"""5G PHY (layer-1) substrate.

A software PHY in the mold of Intel FlexRAN, with real (scaled-down)
signal processing so that the paper's central claim — that discarding
inter-TTI PHY state during migration merely looks like bad signal quality
and is absorbed by HARQ/RLC/TCP retransmission machinery — is exercised by
actual FEC math rather than assumed:

* CRC-24 attachment/checking (:mod:`repro.phy.crc`)
* LDPC encoding and belief-propagation decoding (:mod:`repro.phy.ldpc`)
* QAM modulation and soft (LLR) demodulation (:mod:`repro.phy.modulation`)
* AWGN channel with per-UE SNR (:mod:`repro.phy.channel`)
* HARQ chase combining with soft buffers (:mod:`repro.phy.harq`)
* per-UE SNR moving-average filter (:mod:`repro.phy.snr_filter`)
* OFDM numerology / frame structure (:mod:`repro.phy.numerology`)
* the PHY process itself with FlexRAN's pipelined slot processing
  (:mod:`repro.phy.process`)
"""

from repro.phy.crc import crc24a, check_crc, CRC24_BITS
from repro.phy.numerology import Numerology, SlotClock, TddPattern, SlotType
from repro.phy.modulation import Modulation, modulate, demodulate_llr
from repro.phy.ldpc import LdpcCode, LdpcDecodeResult
from repro.phy.channel import AwgnChannel, ChannelRealization, UeChannelModel
from repro.phy.harq import HarqBuffer, HarqProcessPool, HARQ_MAX_RETX
from repro.phy.snr_filter import SnrMovingAverage
from repro.phy.transport import TransportBlock, DecodeOutcome, LinkDirection
from repro.phy.codec import PhyCodec

# PhyProcess depends on the FAPI package, which itself imports this
# package's modulation module; export it lazily (PEP 562) to keep the
# import graph acyclic.
_LAZY_PROCESS_EXPORTS = ("PhyProcess", "PhyConfig", "PhyCellContext")


def __getattr__(name: str):
    if name in _LAZY_PROCESS_EXPORTS:
        from repro.phy import process as _process

        return getattr(_process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "crc24a",
    "check_crc",
    "CRC24_BITS",
    "Numerology",
    "SlotClock",
    "TddPattern",
    "SlotType",
    "Modulation",
    "modulate",
    "demodulate_llr",
    "LdpcCode",
    "LdpcDecodeResult",
    "AwgnChannel",
    "ChannelRealization",
    "UeChannelModel",
    "HarqBuffer",
    "HarqProcessPool",
    "HARQ_MAX_RETX",
    "SnrMovingAverage",
    "TransportBlock",
    "DecodeOutcome",
    "LinkDirection",
    "PhyCodec",
    "PhyProcess",
    "PhyConfig",
    "PhyCellContext",
]
