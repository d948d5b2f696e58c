"""eCPRI / O-RAN fronthaul header codec.

Wire formats for the header portion of split 7.2x fronthaul packets:
the eCPRI common header plus the O-RAN application headers whose timing
fields (frame / subframe / slot / symbol) Slingshot's switch middlebox
parses to execute TTI-aligned migration (§5.1).

The simulation's hot path passes typed payload objects (with declared
wire sizes) for speed, but the codec is the normative definition of the
bytes a real switch would parse, and the round-trip property tests pin
the field packing. ``parse_timing_fields`` is the exact header-arithmetic
a P4 parser would perform.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.phy.numerology import SlotAddress

#: eCPRI protocol revision carried in the common header.
ECPRI_REVISION = 1

#: eCPRI message types (eCPRI spec §3.2.4).
ECPRI_TYPE_IQ_DATA = 0x00         # U-plane IQ data.
ECPRI_TYPE_RT_CONTROL = 0x02      # C-plane realtime control.

#: O-RAN section types (CUS-plane spec).
SECTION_TYPE_UL = 1               # Uplink channel data request.
SECTION_TYPE_DL = 3               # Downlink channel data.

_COMMON = struct.Struct(">BBHH")  # rev/flags, msg type, payload len, eAxC id.
_APP = struct.Struct(">BBBBB")    # seq, frame, subframe<<4|slot-hi, slot-lo<<6|symbol, section type.


class EcpriCodecError(ValueError):
    """Raised for malformed fronthaul headers."""


@dataclass(frozen=True)
class EcpriHeader:
    """Parsed eCPRI + O-RAN application header."""

    message_type: int
    payload_bytes: int
    #: eAxC id: carries the RU port / spatial stream identity.
    eaxc_id: int
    sequence: int
    address: SlotAddress
    symbol: int
    section_type: int


def encode_header(
    message_type: int,
    payload_bytes: int,
    eaxc_id: int,
    sequence: int,
    address: SlotAddress,
    symbol: int = 0,
    section_type: int = SECTION_TYPE_UL,
) -> bytes:
    """Pack the eCPRI common header + O-RAN application header."""
    if not 0 <= address.frame < 1024:
        raise EcpriCodecError(f"frame {address.frame} out of range")
    if not 0 <= address.subframe < 10:
        raise EcpriCodecError(f"subframe {address.subframe} out of range")
    if not 0 <= address.slot < 64:
        raise EcpriCodecError(f"slot {address.slot} out of range")
    if not 0 <= symbol < 16:
        raise EcpriCodecError(f"symbol {symbol} out of range")
    common = _COMMON.pack(
        (ECPRI_REVISION << 4), message_type & 0xFF,
        payload_bytes & 0xFFFF, eaxc_id & 0xFFFF,
    )
    # O-RAN timing: the 10-bit frame is split across two bytes; the
    # 4-bit subframe and 6-bit slot share the middle, per the CUS spec's
    # layout (simplified to byte-aligned groups here, losslessly).
    frame_hi = (address.frame >> 2) & 0xFF
    frame_lo_sub = ((address.frame & 0x3) << 6) | ((address.subframe & 0xF) << 2) | (
        (address.slot >> 4) & 0x3
    )
    slot_sym = ((address.slot & 0xF) << 4) | (symbol & 0xF)
    app = _APP.pack(
        sequence & 0xFF, frame_hi, frame_lo_sub, slot_sym, section_type & 0xFF
    )
    return common + app


def decode_header(data: bytes) -> EcpriHeader:
    """Parse the header; inverse of :func:`encode_header`."""
    if len(data) < _COMMON.size + _APP.size:
        raise EcpriCodecError("truncated fronthaul header")
    rev_flags, message_type, payload_bytes, eaxc_id = _COMMON.unpack_from(data, 0)
    if (rev_flags >> 4) != ECPRI_REVISION:
        raise EcpriCodecError(f"unsupported eCPRI revision {rev_flags >> 4}")
    sequence, frame_hi, frame_lo_sub, slot_sym, section_type = _APP.unpack_from(
        data, _COMMON.size
    )
    frame = (frame_hi << 2) | (frame_lo_sub >> 6)
    subframe = (frame_lo_sub >> 2) & 0xF
    slot = (((frame_lo_sub & 0x3) << 4) | (slot_sym >> 4)) & 0x3F
    symbol = slot_sym & 0xF
    return EcpriHeader(
        message_type=message_type,
        payload_bytes=payload_bytes,
        eaxc_id=eaxc_id,
        sequence=sequence,
        address=SlotAddress(frame=frame, subframe=subframe, slot=slot),
        symbol=symbol,
        section_type=section_type,
    )


def parse_timing_fields(data: bytes) -> Tuple[int, int, int]:
    """Extract only (frame, subframe, slot) — the switch data plane's
    minimal parse for migrate_on_slot matching (§5.1).

    Fast path: touches just the three app-header bytes that carry the
    timing fields (after the same length/revision validation the full
    decoder performs), mirroring how a P4 parser would extract them
    without materializing the whole header.
    """
    if len(data) < HEADER_BYTES:
        raise EcpriCodecError("truncated fronthaul header")
    rev = data[0] >> 4
    if rev != ECPRI_REVISION:
        raise EcpriCodecError(f"unsupported eCPRI revision {rev}")
    frame_hi = data[7]
    frame_lo_sub = data[8]
    slot_sym = data[9]
    frame = (frame_hi << 2) | (frame_lo_sub >> 6)
    subframe = (frame_lo_sub >> 2) & 0xF
    slot = (((frame_lo_sub & 0x3) << 4) | (slot_sym >> 4)) & 0x3F
    return frame, subframe, slot


HEADER_BYTES = _COMMON.size + _APP.size
