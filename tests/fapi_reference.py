"""Straight-line FAPI codec — the pre-dispatch-table code, a test fixture.

:mod:`repro.fapi.codec` encodes and decodes through type-keyed dispatch
tables with positional construction; this is the code it replaced,
verbatim: one ``isinstance`` chain for bodies, one ``if`` chain over
:class:`~repro.fapi.messages.MessageType` with keyword-constructed
dataclasses for decoding. ``tests/test_perf_fuzz.py`` drives ~1k
generated messages through both and requires byte-identical wire images.
The body encoders, struct layouts and header parser are the live
module's own — the two differ in dispatch and construction, not layout.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.fapi import messages as m
from repro.fapi.codec import (
    FapiCodecError,
    _COUNT,
    _CRC,
    _HEADER,
    _MAGIC,
    _PDU,
    _UCI,
    _decode_blob_list,
    _encode_blob_list,
    _encode_config,
    _encode_crc,
    _encode_error,
    _encode_pdus,
    _encode_rx_data,
    _encode_uci,
    _parse_header,
)
from repro.phy.modulation import Modulation


def _decode_pdus_reference(data: bytes, offset: int, cls) -> Tuple[List, int]:
    """Keyword-constructed PDU decode; normative counterpart of _decode_pdus."""
    (count,) = struct.unpack_from(">H", data, offset)
    offset += 2
    pdus = []
    for _ in range(count):
        ue, harq, mod, prbs, ndi, tb_id, tb_bytes, retx = _PDU.unpack_from(data, offset)
        offset += _PDU.size
        pdus.append(
            cls(
                ue_id=ue,
                harq_process=harq,
                modulation=Modulation(mod),
                prbs=prbs,
                new_data=bool(ndi),
                tb_id=tb_id,
                tb_bytes=tb_bytes,
                retx_index=retx,
            )
        )
    return pdus, offset


def _encode_body_reference(message: m.FapiMessage) -> bytes:
    if isinstance(message, m.ConfigRequest):
        return _encode_config(message)
    if isinstance(message, (m.StartRequest, m.StopRequest, m.SlotIndication)):
        return b""
    if isinstance(message, m.ErrorIndication):
        return _encode_error(message)
    if isinstance(message, m.UlTtiRequest):
        return _encode_pdus(message.pdus)
    if isinstance(message, m.DlTtiRequest):
        return _encode_pdus(message.pdus)
    if isinstance(message, m.TxDataRequest):
        return _encode_blob_list(message.payloads)
    if isinstance(message, m.RxDataIndication):
        return _encode_rx_data(message)
    if isinstance(message, m.CrcIndication):
        return _encode_crc(message)
    if isinstance(message, m.UciIndication):
        return _encode_uci(message)
    raise FapiCodecError(f"cannot encode message type {type(message).__name__}")


def encode_message_reference(message: m.FapiMessage) -> bytes:
    """Reference (straight-line) encoder; normative for the wire format."""
    body = _encode_body_reference(message)
    header = _HEADER.pack(
        _MAGIC, int(message.message_type), message.cell_id, message.slot, len(body)
    )
    return header + body


def decode_message_reference(data: bytes) -> m.AnyFapiMessage:
    """Reference decoder: keyword-constructed dataclasses, if/elif chain."""
    raw_mtype, cell_id, slot, body = _parse_header(data)
    try:
        mtype = m.MessageType(raw_mtype)
    except ValueError as exc:
        raise FapiCodecError(f"unknown message type {raw_mtype}") from exc
    if mtype == m.MessageType.CONFIG_REQUEST:
        num_prbs, mu, ru_id = struct.unpack_from(">HBH", body, 0)
        (plen,) = struct.unpack_from(">B", body, 5)
        pattern = body[6 : 6 + plen].decode("ascii")
        return m.ConfigRequest(
            cell_id=cell_id, slot=slot, num_prbs=num_prbs,
            numerology_mu=mu, tdd_pattern=pattern, ru_id=ru_id,
        )
    if mtype == m.MessageType.START_REQUEST:
        return m.StartRequest(cell_id=cell_id, slot=slot)
    if mtype == m.MessageType.STOP_REQUEST:
        return m.StopRequest(cell_id=cell_id, slot=slot)
    if mtype == m.MessageType.SLOT_INDICATION:
        return m.SlotIndication(cell_id=cell_id, slot=slot)
    if mtype == m.MessageType.ERROR_INDICATION:
        code, dlen = struct.unpack_from(">HH", body, 0)
        detail = body[4 : 4 + dlen].decode("utf-8")
        return m.ErrorIndication(cell_id=cell_id, slot=slot, error_code=code, detail=detail)
    if mtype == m.MessageType.UL_TTI_REQUEST:
        pdus, _ = _decode_pdus_reference(body, 0, m.PuschPdu)
        return m.UlTtiRequest(cell_id=cell_id, slot=slot, pdus=pdus)
    if mtype == m.MessageType.DL_TTI_REQUEST:
        pdus, _ = _decode_pdus_reference(body, 0, m.PdschPdu)
        return m.DlTtiRequest(cell_id=cell_id, slot=slot, pdus=pdus)
    if mtype == m.MessageType.TX_DATA_REQUEST:
        payloads, _ = _decode_blob_list(body, 0)
        return m.TxDataRequest(cell_id=cell_id, slot=slot, payloads=payloads)
    if mtype == m.MessageType.RX_DATA_INDICATION:
        (count,) = _COUNT.unpack_from(body, 0)
        offset = 2
        payloads = []
        for _ in range(count):
            ue, harq, tb_id, length = struct.unpack_from(">HBqI", body, offset)
            offset += 15
            payloads.append((ue, harq, tb_id, bytes(body[offset : offset + length])))
            offset += length
        return m.RxDataIndication(cell_id=cell_id, slot=slot, payloads=payloads)
    if mtype == m.MessageType.CRC_INDICATION:
        (count,) = _COUNT.unpack_from(body, 0)
        offset = 2
        results = []
        for _ in range(count):
            ue, harq, tb_id, ok, snr, retx = _CRC.unpack_from(body, offset)
            offset += _CRC.size
            results.append(
                m.CrcResult(
                    ue_id=ue, harq_process=harq, tb_id=tb_id,
                    crc_ok=bool(ok), measured_snr_db=snr, retx_index=retx,
                )
            )
        return m.CrcIndication(cell_id=cell_id, slot=slot, results=results)
    if mtype == m.MessageType.UCI_INDICATION:
        (count,) = _COUNT.unpack_from(body, 0)
        offset = 2
        feedback = []
        for _ in range(count):
            ue, harq, tb_id, ack = _UCI.unpack_from(body, offset)
            offset += _UCI.size
            feedback.append(
                m.HarqFeedback(ue_id=ue, harq_process=harq, tb_id=tb_id, ack=bool(ack))
            )
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
    raise FapiCodecError(f"unknown message type {mtype}")
