"""FAPI — the L2/PHY "functional API" (Small Cell Forum 5G FAPI).

FAPI is the narrow-waist interface between the MAC (L2) and the PHY that
Slingshot's Orion middlebox interposes on (paper §6). This package
provides:

* the message set (:mod:`repro.fapi.messages`): per-slot UL/DL config
  ("TTI") requests, data requests/indications, CRC and UCI indications,
  and cell configuration — including the **null** UL/DL config requests
  Orion fabricates to keep a secondary PHY alive,
* a binary codec (:mod:`repro.fapi.codec`) used by the inter-Orion UDP
  transport,
* channel models (:mod:`repro.fapi.channels`): the shared-memory channel
  used when L2/Orion/PHY are co-located, and the lean stateless UDP
  transport Orion uses across the datacenter network (§6.1).
"""

from repro.fapi.messages import (
    FapiMessage,
    MessageType,
    ConfigRequest,
    StartRequest,
    StopRequest,
    SlotIndication,
    UlTtiRequest,
    DlTtiRequest,
    PuschPdu,
    PdschPdu,
    TxDataRequest,
    RxDataIndication,
    CrcIndication,
    CrcResult,
    UciIndication,
    HarqFeedback,
    ErrorIndication,
    null_ul_tti,
    null_dl_tti,
    is_null_request,
)
from repro.fapi.codec import encode_message, decode_message
from repro.fapi.channels import ShmChannel, FapiEndpoint

__all__ = [
    "FapiMessage",
    "MessageType",
    "ConfigRequest",
    "StartRequest",
    "StopRequest",
    "SlotIndication",
    "UlTtiRequest",
    "DlTtiRequest",
    "PuschPdu",
    "PdschPdu",
    "TxDataRequest",
    "RxDataIndication",
    "CrcIndication",
    "CrcResult",
    "UciIndication",
    "HarqFeedback",
    "ErrorIndication",
    "null_ul_tti",
    "null_dl_tti",
    "is_null_request",
    "encode_message",
    "decode_message",
    "ShmChannel",
    "FapiEndpoint",
]
