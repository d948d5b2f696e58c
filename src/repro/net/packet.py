"""Ethernet frames.

Frames carry a typed Python payload plus an explicit wire size. The wire
size — not the in-memory representation — drives serialization delay and
bandwidth accounting on links, so scaled-down payloads (e.g. reduced IQ
sample counts) can still model full-rate fronthaul traffic by declaring
their real on-the-wire size.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

from repro.net.addresses import MacAddress

#: Minimum legal Ethernet frame size (64 bytes incl. FCS).
MIN_FRAME_BYTES = 64

#: Standard maximum frame size used for fragmentation decisions.
MTU_BYTES = 1500


class EtherType(enum.IntEnum):
    """EtherType values for the traffic classes in the simulated fabric."""

    #: eCPRI — O-RAN split 7.2x fronthaul (real value from the eCPRI spec).
    ECPRI = 0xAEFE
    #: IPv4 — app/core traffic and Orion's UDP FAPI transport.
    IPV4 = 0x0800
    #: Slingshot control packets (migrate_on_slot, failure notifications,
    #: switch timer/packet-generator packets). A locally-chosen value.
    SLINGSHOT = 0x88B5


_frame_ids = itertools.count(1)


class EthernetFrame:
    """A simulated Ethernet frame.

    ``payload`` is any Python object (typed messages defined by each
    protocol module); ``wire_bytes`` is the frame's on-the-wire size used
    for link timing.

    Frames are identity objects created once per hop on the simulation's
    hottest allocation path, so this is a ``__slots__`` class rather than
    a dataclass: no per-instance ``__dict__``, no generated ``__eq__``
    machinery, one C-level attribute store per field.
    """

    __slots__ = ("src", "dst", "ethertype", "payload", "wire_bytes", "frame_id")

    def __init__(
        self,
        src: MacAddress,
        dst: MacAddress,
        ethertype: EtherType,
        payload: Any,
        wire_bytes: int,
    ) -> None:
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.payload = payload
        self.wire_bytes = wire_bytes if wire_bytes >= MIN_FRAME_BYTES else MIN_FRAME_BYTES
        self.frame_id = next(_frame_ids)

    def copy_to(self, dst: MacAddress) -> "EthernetFrame":
        """Clone the frame with a rewritten destination (switch forwarding)."""
        return EthernetFrame(
            src=self.src,
            dst=dst,
            ethertype=self.ethertype,
            payload=self.payload,
            wire_bytes=self.wire_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Frame #{self.frame_id} {self.src}->{self.dst} "
            f"{self.ethertype.name} {self.wire_bytes}B>"
        )
