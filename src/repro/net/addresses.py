"""MAC addresses.

Fronthaul packets in O-RAN split 7.2x deployments are raw Ethernet frames
addressed by MAC; Slingshot's virtual-PHY-address scheme (§5.1 of the
paper) rewrites destination MACs in the switch data plane. A tiny value
type keeps addresses hashable, comparable, and printable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit Ethernet MAC address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError(f"MAC address out of range: {self.value:#x}")

    def __str__(self) -> str:
        """``aa:bb:cc:dd:ee:ff`` rendering."""
        octets = [(self.value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{octet:02x}" for octet in octets)

    def __int__(self) -> int:
        return self.value

    def __hash__(self) -> int:
        # The generated hash builds a one-element tuple per table lookup.
        return hash(self.value)


#: The all-ones broadcast address.
BROADCAST_MAC = MacAddress((1 << 48) - 1)

#: The allocator's OUI: the 0x02 prefix is locally administered, unicast.
OUI = 0x02_00_00


class MacAllocator:
    """Hands out unique unicast MAC addresses for simulated nodes."""

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> MacAddress:
        """Return a fresh unique address."""
        mac = MacAddress(OUI << 24 | self._next)
        self._next += 1
        return mac
