"""Binary FAPI codec.

The inter-Orion transport carries FAPI messages over UDP across the edge
datacenter (paper §6.1), so messages need a wire format. The codec here
is a compact struct-based TLV encoding: a fixed header (type, cell, slot)
followed by message-specific fields and repeated PDU records.

Round-tripping through the codec is property-tested; the encoded size
feeds the link-level serialization-delay model, which is how the "L2-PHY
traffic is ~100 Mbps vs 4.5 Gbps fronthaul" comparison (§5) shows up.

What the simulation calls: only :func:`wire_size`, the analytic size —
FAPI messages cross the SHM channels and the Orion datagrams as typed
objects, never as bytes. :func:`encode_message` / :func:`decode_message` are the normative
wire image that size is checked against
(``wire_size(m) == len(encode_message(m))`` over a generated corpus) and
what the codec micro benchmarks drive: type-keyed dispatch tables, and
decoders that build every message through its constructor.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Tuple, Type

from repro.fapi import messages as m
from repro.phy.modulation import Modulation

#: Header: magic (2), type (1), cell_id (2), slot (8 signed), body length (4).
_HEADER = struct.Struct(">HBHqI")
_MAGIC = 0x5FA9

_PDU = struct.Struct(">HBBHBqIB")  # ue, harq, modulation, prbs, ndi, tb_id, bytes, retx
_CRC = struct.Struct(">HBqBfB")  # ue, harq, tb_id, ok, snr, retx
_UCI = struct.Struct(">HBqB")  # ue, harq, tb_id, ack

_COUNT = struct.Struct(">H")

#: int -> Modulation without the Enum.__call__ overhead on the PDU path.
_MODULATION_BY_VALUE: Dict[int, Modulation] = {int(mod): mod for mod in Modulation}


class FapiCodecError(ValueError):
    """Raised for malformed wire data."""


def _encode_pdus(pdus) -> bytes:
    pack = _PDU.pack
    parts = [_COUNT.pack(len(pdus))]
    for pdu in pdus:
        parts.append(
            pack(
                pdu.ue_id,
                pdu.harq_process,
                int(pdu.modulation),
                pdu.prbs,
                1 if pdu.new_data else 0,
                pdu.tb_id,
                pdu.tb_bytes,
                pdu.retx_index,
            )
        )
    return b"".join(parts)


def _decode_pdus(data: bytes, offset: int, cls) -> Tuple[List, int]:
    (count,) = _COUNT.unpack_from(data, offset)
    offset += 2
    pdus = []
    unpack_from = _PDU.unpack_from
    size = _PDU.size
    modulations = _MODULATION_BY_VALUE
    for _ in range(count):
        ue, harq, mod, prbs, ndi, tb_id, tb_bytes, retx = unpack_from(data, offset)
        offset += size
        # Positional construction: PDU field order is part of the class
        # contract (ue_id, harq_process, modulation, prbs, new_data,
        # tb_id, tb_bytes, retx_index).
        pdus.append(
            cls(ue, harq, modulations[mod], prbs, ndi == 1, tb_id, tb_bytes, retx)
        )
    return pdus, offset


def _encode_blob_list(items: List[Tuple[int, bytes]]) -> bytes:
    parts = [_COUNT.pack(len(items))]
    for tb_id, payload in items:
        parts.append(struct.pack(">qI", tb_id, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def _decode_blob_list(data: bytes, offset: int) -> Tuple[List[Tuple[int, bytes]], int]:
    (count,) = _COUNT.unpack_from(data, offset)
    offset += 2
    items = []
    for _ in range(count):
        tb_id, length = struct.unpack_from(">qI", data, offset)
        offset += 12
        items.append((tb_id, bytes(data[offset : offset + length])))
        offset += length
    return items, offset


# ----------------------------------------------------------------------
# Body encoders
# ----------------------------------------------------------------------
def _encode_config(message: "m.ConfigRequest") -> bytes:
    pattern = message.tdd_pattern.encode("ascii")
    return struct.pack(
        ">HBH", message.num_prbs, message.numerology_mu, message.ru_id
    ) + struct.pack(">B", len(pattern)) + pattern


def _encode_empty(message: m.FapiMessage) -> bytes:
    return b""


def _encode_error(message: "m.ErrorIndication") -> bytes:
    detail = message.detail.encode("utf-8")
    return struct.pack(">HH", message.error_code, len(detail)) + detail


def _encode_tti(message) -> bytes:
    return _encode_pdus(message.pdus)


def _encode_tx_data(message: "m.TxDataRequest") -> bytes:
    return _encode_blob_list(message.payloads)


def _encode_rx_data(message: "m.RxDataIndication") -> bytes:
    parts = [_COUNT.pack(len(message.payloads))]
    for ue, harq, tb_id, payload in message.payloads:
        parts.append(struct.pack(">HBqI", ue, harq, tb_id, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def _encode_crc(message: "m.CrcIndication") -> bytes:
    pack = _CRC.pack
    parts = [_COUNT.pack(len(message.results))]
    for result in message.results:
        parts.append(
            pack(
                result.ue_id,
                result.harq_process,
                result.tb_id,
                1 if result.crc_ok else 0,
                result.measured_snr_db,
                result.retx_index,
            )
        )
    return b"".join(parts)


def _encode_uci(message: "m.UciIndication") -> bytes:
    pack = _UCI.pack
    parts = [_COUNT.pack(len(message.feedback))]
    for fb in message.feedback:
        parts.append(pack(fb.ue_id, fb.harq_process, fb.tb_id, 1 if fb.ack else 0))
    parts.append(_COUNT.pack(len(message.bsr_reports)))
    for ue_id, pending in message.bsr_reports:
        parts.append(struct.pack(">HI", ue_id, pending))
    return b"".join(parts)


#: Fast-path dispatch: concrete message type -> (wire type id, body encoder).
_BODY_ENCODERS: Dict[Type[m.FapiMessage], Tuple[int, Callable[..., bytes]]] = {
    m.ConfigRequest: (int(m.MessageType.CONFIG_REQUEST), _encode_config),
    m.StartRequest: (int(m.MessageType.START_REQUEST), _encode_empty),
    m.StopRequest: (int(m.MessageType.STOP_REQUEST), _encode_empty),
    m.SlotIndication: (int(m.MessageType.SLOT_INDICATION), _encode_empty),
    m.ErrorIndication: (int(m.MessageType.ERROR_INDICATION), _encode_error),
    m.UlTtiRequest: (int(m.MessageType.UL_TTI_REQUEST), _encode_tti),
    m.DlTtiRequest: (int(m.MessageType.DL_TTI_REQUEST), _encode_tti),
    m.TxDataRequest: (int(m.MessageType.TX_DATA_REQUEST), _encode_tx_data),
    m.RxDataIndication: (int(m.MessageType.RX_DATA_INDICATION), _encode_rx_data),
    m.CrcIndication: (int(m.MessageType.CRC_INDICATION), _encode_crc),
    m.UciIndication: (int(m.MessageType.UCI_INDICATION), _encode_uci),
}


def encode_message(message: m.FapiMessage) -> bytes:
    """Serialize a FAPI message to its wire representation."""
    entry = _BODY_ENCODERS.get(type(message))
    if entry is None:
        raise FapiCodecError(f"cannot encode message type {type(message).__name__}")
    mtype, encode_body = entry
    body = encode_body(message)
    return (
        _HEADER.pack(_MAGIC, mtype, message.cell_id, message.slot, len(body)) + body
    )


def _wire_size_config(message, size: int) -> int:
    return size + 6 + len(message.tdd_pattern)


def _wire_size_tti(message, size: int) -> int:
    return size + 2 + _PDU.size * len(message.pdus)


def _wire_size_tx_data(message, size: int) -> int:
    size += 2
    for tb_id, payload in message.payloads:
        declared = len(payload) if isinstance(payload, (bytes, bytearray)) else 0
        size += 12 + declared
    return size


def _wire_size_rx_data(message, size: int) -> int:
    size += 2
    for _ue, _harq, _tb, payload in message.payloads:
        declared = len(payload) if isinstance(payload, (bytes, bytearray)) else 0
        size += 15 + declared
    return size


def _wire_size_crc(message, size: int) -> int:
    return size + 2 + _CRC.size * len(message.results)


def _wire_size_uci(message, size: int) -> int:
    return size + 4 + _UCI.size * len(message.feedback) + 6 * len(message.bsr_reports)


def _wire_size_error(message, size: int) -> int:
    return size + 4 + len(message.detail.encode("utf-8"))


def _wire_size_header_only(message, size: int) -> int:
    return size


#: Fast-path dispatch for the analytic size (the hot link-accounting call).
_WIRE_SIZERS: Dict[Type[m.FapiMessage], Callable[..., int]] = {
    m.ConfigRequest: _wire_size_config,
    m.StartRequest: _wire_size_header_only,
    m.StopRequest: _wire_size_header_only,
    m.SlotIndication: _wire_size_header_only,
    m.ErrorIndication: _wire_size_error,
    m.UlTtiRequest: _wire_size_tti,
    m.DlTtiRequest: _wire_size_tti,
    m.TxDataRequest: _wire_size_tx_data,
    m.RxDataIndication: _wire_size_rx_data,
    m.CrcIndication: _wire_size_crc,
    m.UciIndication: _wire_size_uci,
}


def wire_size(message: m.FapiMessage) -> int:
    """Analytic wire size in bytes for link accounting.

    Unlike ``len(encode_message(message))``, this never serializes the message, so it
    also works for data messages whose hot-path payloads are typed
    objects; declared TB sizes stand in for blob lengths.
    """
    sizer = _WIRE_SIZERS.get(type(message), _wire_size_header_only)
    return sizer(message, _HEADER.size)


# ----------------------------------------------------------------------
# Decoders
# ----------------------------------------------------------------------
def _decode_config(cell_id: int, slot: int, body: bytes):
    num_prbs, mu, ru_id = struct.unpack_from(">HBH", body, 0)
    (plen,) = struct.unpack_from(">B", body, 5)
    return m.ConfigRequest(
        cell_id=cell_id,
        slot=slot,
        num_prbs=num_prbs,
        numerology_mu=mu,
        tdd_pattern=body[6 : 6 + plen].decode("ascii"),
        ru_id=ru_id,
    )


def _decode_start(cell_id: int, slot: int, body: bytes):
    return m.StartRequest(cell_id=cell_id, slot=slot)


def _decode_stop(cell_id: int, slot: int, body: bytes):
    return m.StopRequest(cell_id=cell_id, slot=slot)


def _decode_slot_indication(cell_id: int, slot: int, body: bytes):
    return m.SlotIndication(cell_id=cell_id, slot=slot)


def _decode_error(cell_id: int, slot: int, body: bytes):
    code, dlen = struct.unpack_from(">HH", body, 0)
    return m.ErrorIndication(
        cell_id=cell_id,
        slot=slot,
        error_code=code,
        detail=body[4 : 4 + dlen].decode("utf-8"),
    )


def _decode_ul_tti(cell_id: int, slot: int, body: bytes):
    pdus, _ = _decode_pdus(body, 0, m.PuschPdu)
    return m.UlTtiRequest(cell_id=cell_id, slot=slot, pdus=pdus)


def _decode_dl_tti(cell_id: int, slot: int, body: bytes):
    pdus, _ = _decode_pdus(body, 0, m.PdschPdu)
    return m.DlTtiRequest(cell_id=cell_id, slot=slot, pdus=pdus)


def _decode_tx_data(cell_id: int, slot: int, body: bytes):
    payloads, _ = _decode_blob_list(body, 0)
    return m.TxDataRequest(cell_id=cell_id, slot=slot, payloads=payloads)


def _decode_rx_data(cell_id: int, slot: int, body: bytes):
    (count,) = _COUNT.unpack_from(body, 0)
    offset = 2
    payloads = []
    for _ in range(count):
        ue, harq, tb_id, length = struct.unpack_from(">HBqI", body, offset)
        offset += 15
        payloads.append((ue, harq, tb_id, bytes(body[offset : offset + length])))
        offset += length
    return m.RxDataIndication(cell_id=cell_id, slot=slot, payloads=payloads)


def _decode_crc(cell_id: int, slot: int, body: bytes):
    (count,) = _COUNT.unpack_from(body, 0)
    offset = 2
    results = []
    unpack_from = _CRC.unpack_from
    size = _CRC.size
    for _ in range(count):
        ue, harq, tb_id, ok, snr, retx = unpack_from(body, offset)
        offset += size
        results.append(m.CrcResult(ue, harq, tb_id, ok == 1, snr, retx))
    return m.CrcIndication(cell_id=cell_id, slot=slot, results=results)


def _decode_uci(cell_id: int, slot: int, body: bytes):
    (count,) = _COUNT.unpack_from(body, 0)
    offset = 2
    feedback = []
    unpack_from = _UCI.unpack_from
    size = _UCI.size
    for _ in range(count):
        ue, harq, tb_id, ack = unpack_from(body, offset)
        offset += size
        feedback.append(m.HarqFeedback(ue, harq, tb_id, ack == 1))
    (bsr_count,) = _COUNT.unpack_from(body, offset)
    offset += 2
    bsr_reports = []
    for _ in range(bsr_count):
        ue, pending = struct.unpack_from(">HI", body, offset)
        offset += 6
        bsr_reports.append((ue, pending))
    return m.UciIndication(
        cell_id=cell_id, slot=slot, feedback=feedback, bsr_reports=bsr_reports
    )


#: Fast-path dispatch: wire type id -> body decoder.
_BODY_DECODERS: Dict[int, Callable[[int, int, bytes], m.AnyFapiMessage]] = {
    int(m.MessageType.CONFIG_REQUEST): _decode_config,
    int(m.MessageType.START_REQUEST): _decode_start,
    int(m.MessageType.STOP_REQUEST): _decode_stop,
    int(m.MessageType.SLOT_INDICATION): _decode_slot_indication,
    int(m.MessageType.ERROR_INDICATION): _decode_error,
    int(m.MessageType.UL_TTI_REQUEST): _decode_ul_tti,
    int(m.MessageType.DL_TTI_REQUEST): _decode_dl_tti,
    int(m.MessageType.TX_DATA_REQUEST): _decode_tx_data,
    int(m.MessageType.RX_DATA_INDICATION): _decode_rx_data,
    int(m.MessageType.CRC_INDICATION): _decode_crc,
    int(m.MessageType.UCI_INDICATION): _decode_uci,
}


def _parse_header(data: bytes) -> Tuple[int, int, int, bytes]:
    if len(data) < _HEADER.size:
        raise FapiCodecError("truncated FAPI header")
    magic, mtype, cell_id, slot, body_len = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise FapiCodecError(f"bad magic {magic:#x}")
    body = data[_HEADER.size : _HEADER.size + body_len]
    if len(body) != body_len:
        raise FapiCodecError("truncated FAPI body")
    return mtype, cell_id, slot, body


def decode_message(data: bytes) -> m.AnyFapiMessage:
    """Parse wire bytes back into a typed FAPI message."""
    mtype, cell_id, slot, body = _parse_header(data)
    decoder = _BODY_DECODERS.get(mtype)
    if decoder is None:
        raise FapiCodecError(f"unknown message type {mtype}")
    return decoder(cell_id, slot, body)
