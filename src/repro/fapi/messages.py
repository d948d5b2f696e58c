"""FAPI message set.

Message shapes follow the Small Cell Forum 5G FAPI PHY API at the level
of detail the simulation needs: per-slot UL_TTI/DL_TTI work requests with
per-UE PDUs, TX data requests, and the uplink indications (RX data, CRC,
UCI) the PHY returns.

The FAPI contract that matters most to Slingshot (paper §6.2): a running
PHY **must** receive valid UL_TTI and DL_TTI requests in *every* slot —
FlexRAN crashes otherwise. A request whose PDU list is empty ("null
FAPI") is a valid input that schedules no signal-processing work, which
is how Orion keeps the hot-standby secondary PHY alive at negligible CPU
cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

from repro.phy.modulation import Modulation


class MessageType(enum.IntEnum):
    """FAPI message type ids (values follow the SCF numbering style)."""

    CONFIG_REQUEST = 0x02
    START_REQUEST = 0x04
    STOP_REQUEST = 0x05
    SLOT_INDICATION = 0x82
    DL_TTI_REQUEST = 0x80
    UL_TTI_REQUEST = 0x81
    TX_DATA_REQUEST = 0x84
    RX_DATA_INDICATION = 0x85
    CRC_INDICATION = 0x86
    UCI_INDICATION = 0x87
    ERROR_INDICATION = 0x03


@dataclass
class FapiMessage:
    """Common header: every FAPI message names its cell and slot."""

    #: Cell (RU) the message concerns; one PHY process can serve many.
    cell_id: int = 0
    #: Absolute slot counter (the simulation's TTI index).
    slot: int = -1

    @property
    def message_type(self) -> MessageType:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Control-path messages
# ----------------------------------------------------------------------
@dataclass
class ConfigRequest(FapiMessage):
    """Cell/carrier configuration — the 'initialization request' that the
    L2 sends when onboarding an RU, which L2-side Orion intercepts and
    duplicates toward the chosen primary and secondary PHYs (§6.3)."""

    num_prbs: int = 273
    numerology_mu: int = 1
    tdd_pattern: str = "DDDSU"
    ru_id: int = 0

    @property
    def message_type(self) -> MessageType:
        return MessageType.CONFIG_REQUEST


@dataclass
class StartRequest(FapiMessage):
    """Start per-slot operation for a configured cell."""

    @property
    def message_type(self) -> MessageType:
        return MessageType.START_REQUEST


@dataclass
class StopRequest(FapiMessage):
    """Stop per-slot operation (used at teardown)."""

    @property
    def message_type(self) -> MessageType:
        return MessageType.STOP_REQUEST


@dataclass
class SlotIndication(FapiMessage):
    """PHY -> L2 per-slot tick announcing readiness for slot ``slot``."""

    @property
    def message_type(self) -> MessageType:
        return MessageType.SLOT_INDICATION


@dataclass
class ErrorIndication(FapiMessage):
    """PHY -> L2 error report (e.g. missing TTI request)."""

    error_code: int = 0
    detail: str = ""

    @property
    def message_type(self) -> MessageType:
        return MessageType.ERROR_INDICATION


# ----------------------------------------------------------------------
# Per-slot work requests (the TTI requests)
# ----------------------------------------------------------------------
@dataclass
class PuschPdu:
    """One UE's uplink shared-channel allocation in a UL_TTI request."""

    ue_id: int
    harq_process: int
    modulation: Modulation
    prbs: int
    #: New-data indicator: False = HARQ retransmission expected.
    new_data: bool
    #: TB id (RNTI+HARQ bookkeeping stand-in; stable across retx).
    tb_id: int
    #: Expected payload size in bytes (sizing/accounting).
    tb_bytes: int = 0
    retx_index: int = 0


@dataclass
class PdschPdu:
    """One UE's downlink shared-channel allocation in a DL_TTI request."""

    ue_id: int
    harq_process: int
    modulation: Modulation
    prbs: int
    new_data: bool
    tb_id: int
    tb_bytes: int = 0
    retx_index: int = 0


@dataclass
class UlTtiRequest(FapiMessage):
    """UL_CONFIG: the uplink signal-processing work for one slot.

    An empty ``pdus`` list is the *null* request (valid, zero work).
    """

    pdus: List[PuschPdu] = field(default_factory=list)

    @property
    def message_type(self) -> MessageType:
        return MessageType.UL_TTI_REQUEST

    @property
    def is_null(self) -> bool:
        return not self.pdus


@dataclass
class DlTtiRequest(FapiMessage):
    """DL_CONFIG: the downlink signal-processing work for one slot."""

    pdus: List[PdschPdu] = field(default_factory=list)

    @property
    def message_type(self) -> MessageType:
        return MessageType.DL_TTI_REQUEST

    @property
    def is_null(self) -> bool:
        return not self.pdus


@dataclass
class TxDataRequest(FapiMessage):
    """MAC payloads for the PDSCH PDUs of a DL_TTI request.

    Payloads are typed objects on the simulation's hot path (RLC PDU
    lists) and raw bytes when round-tripped through the binary codec;
    wire sizing uses the PDU's declared ``tb_bytes``.
    """

    #: (tb_id, payload) pairs matching the slot's PdschPdus.
    payloads: List[Tuple[int, Any]] = field(default_factory=list)

    @property
    def message_type(self) -> MessageType:
        return MessageType.TX_DATA_REQUEST


# ----------------------------------------------------------------------
# Uplink indications (PHY -> L2 responses)
# ----------------------------------------------------------------------
@dataclass
class RxDataIndication(FapiMessage):
    """Successfully decoded uplink payloads for one slot."""

    #: (ue_id, harq_process, tb_id, payload) per decoded TB.
    payloads: List[Tuple[int, int, int, Any]] = field(default_factory=list)

    @property
    def message_type(self) -> MessageType:
        return MessageType.RX_DATA_INDICATION


@dataclass(frozen=True)
class CrcResult:
    """Decode outcome for one uplink TB."""

    ue_id: int
    harq_process: int
    tb_id: int
    crc_ok: bool
    measured_snr_db: float
    retx_index: int = 0


@dataclass
class CrcIndication(FapiMessage):
    """Per-TB CRC pass/fail results for one uplink slot.

    The L2 uses these to drive HARQ retransmissions and, via the SNR
    field, link adaptation.
    """

    results: List[CrcResult] = field(default_factory=list)

    @property
    def message_type(self) -> MessageType:
        return MessageType.CRC_INDICATION


@dataclass(frozen=True)
class HarqFeedback:
    """One UE's HARQ ACK/NACK for a downlink TB (carried on uplink)."""

    ue_id: int
    harq_process: int
    tb_id: int
    ack: bool


@dataclass
class UciIndication(FapiMessage):
    """Uplink control information decoded by the PHY: DL HARQ feedback
    plus buffer status / scheduling requests."""

    feedback: List[HarqFeedback] = field(default_factory=list)
    #: (ue_id, pending uplink bytes) buffer status reports.
    bsr_reports: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def message_type(self) -> MessageType:
        return MessageType.UCI_INDICATION


AnyFapiMessage = Union[
    ConfigRequest,
    StartRequest,
    StopRequest,
    SlotIndication,
    ErrorIndication,
    UlTtiRequest,
    DlTtiRequest,
    TxDataRequest,
    RxDataIndication,
    CrcIndication,
    UciIndication,
]


# ----------------------------------------------------------------------
# Null FAPI helpers (the heart of §6.2)
# ----------------------------------------------------------------------
def null_ul_tti(cell_id: int, slot: int) -> UlTtiRequest:
    """A valid UL_TTI request scheduling no work (keeps a PHY alive)."""
    return UlTtiRequest(cell_id=cell_id, slot=slot, pdus=[])


def null_dl_tti(cell_id: int, slot: int) -> DlTtiRequest:
    """A valid DL_TTI request scheduling no work."""
    return DlTtiRequest(cell_id=cell_id, slot=slot, pdus=[])


def is_null_request(message: FapiMessage) -> bool:
    """True for UL/DL TTI requests with empty PDU lists."""
    if isinstance(message, (UlTtiRequest, DlTtiRequest)):
        return message.is_null
    return False
