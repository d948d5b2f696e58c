"""User-plane packets.

A :class:`Packet` is the unit of traffic between the application server
and a UE application. It names its flow, its UE and bearer, and carries a
typed payload (a UDP datagram descriptor or a TCP segment) plus its
declared wire size — which is what RLC segmentation, TB filling, and
throughput accounting all use.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

#: IP + transport header overhead attributed to each packet.
IP_HEADER_BYTES = 40


class FlowDirection(enum.Enum):
    """Direction of a flow relative to the UE."""

    UPLINK = "UL"
    DOWNLINK = "DL"


_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One user-plane packet."""

    flow_id: str
    ue_id: int
    bearer_id: int
    direction: FlowDirection
    payload: Any
    size_bytes: int
    #: Creation timestamp (set by the sender) for latency measurement.
    created_ns: int = 0
    #: Flow-scope sequence number (loss/reordering accounting).
    seq: int = 0
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.flow_id}#{self.seq} ue={self.ue_id} "
            f"{self.direction.value} {self.size_bytes}B>"
        )
