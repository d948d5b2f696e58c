"""Datacenter network substrate.

Models the edge-datacenter Ethernet fabric connecting the radio unit (RU),
the vRAN servers (PHY and L2), and the core-network uplink: frames, links
with latency and serialization delay, switch ports, and a programmable
(P4-style) switch pipeline in :mod:`repro.net.p4` on which Slingshot's
fronthaul middlebox is built.
"""

from repro.net.addresses import MacAddress
from repro.net.packet import EtherType, EthernetFrame
from repro.net.link import Link, NetworkEndpoint
from repro.net.switch import Switch, SwitchPort

__all__ = [
    "MacAddress",
    "EtherType",
    "EthernetFrame",
    "Link",
    "NetworkEndpoint",
    "Switch",
    "SwitchPort",
]
