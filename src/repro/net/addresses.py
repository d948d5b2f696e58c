"""MAC addresses.

Fronthaul packets in O-RAN split 7.2x deployments are raw Ethernet frames
addressed by MAC; Slingshot's virtual-PHY-address scheme (§5.1 of the
paper) rewrites destination MACs in the switch data plane. An address is
an ``int``, so the tables keyed by it hash and compare in C.
"""

from __future__ import annotations


class MacAddress(int):
    """A 48-bit Ethernet MAC address."""

    __slots__ = ()

    def __new__(cls, value: int) -> "MacAddress":
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC address out of range: {value:#x}")
        return super().__new__(cls, value)

    def __str__(self) -> str:
        """``aa:bb:cc:dd:ee:ff`` rendering."""
        return ":".join(f"{(self >> shift) & 0xFF:02x}" for shift in range(40, -8, -8))

    def __repr__(self) -> str:
        return f"MacAddress({int(self):#x})"


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
