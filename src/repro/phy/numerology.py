"""OFDM numerology and TDD frame structure.

The reproduced cell matches the paper's testbed: 100 MHz bandwidth at
3.5 GHz with 30 kHz subcarrier spacing (numerology µ = 1, 500 µs slots),
time-division duplexing with a "DDDSU" slot format — three downlink slots,
a special/guard slot, then one uplink slot.

The slot/subframe/frame counters defined here are the same fields carried
in O-RAN fronthaul packet headers, which Slingshot's switch middlebox
parses to align migration to TTI boundaries (paper §5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.sim.units import US

#: Subframes per 10 ms radio frame.
SUBFRAMES_PER_FRAME = 10

#: Frame number wraps at 1024 (3GPP system frame number is 10 bits).
MAX_FRAME = 1024

#: Simulated time at which slot 0 starts.
SLOT_EPOCH_NS = 0


class SlotType(enum.Enum):
    """Link direction of a TDD slot."""

    DOWNLINK = "D"
    SPECIAL = "S"
    UPLINK = "U"


@dataclass(frozen=True)
class TddPattern:
    """A repeating TDD slot-format pattern, e.g. "DDDSU"."""

    pattern: str = "DDDSU"
    #: The :class:`SlotType` of each position of the pattern, built once:
    #: every RU, PHY, L2 and UE asks for a slot's type every slot.
    _types: Tuple[SlotType, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        valid = set("DSU")
        if not self.pattern or any(ch not in valid for ch in self.pattern):
            raise ValueError(f"invalid TDD pattern {self.pattern!r}")
        object.__setattr__(self, "_types", tuple(SlotType(ch) for ch in self.pattern))

    def slot_type(self, slot_index: int) -> SlotType:
        """Slot type for an absolute slot counter."""
        types = self._types
        return types[slot_index % len(types)]

    @property
    def period(self) -> int:
        return len(self.pattern)


@dataclass(frozen=True)
class Numerology:
    """OFDM numerology parameters."""

    #: 3GPP numerology index; 1 → 30 kHz SCS, 500 µs slots.
    mu: int = 1
    #: Channel bandwidth in MHz (display only; PRB count is the real knob).
    bandwidth_mhz: float = 100.0
    #: Physical resource blocks available (273 for 100 MHz @ 30 kHz).
    num_prbs: int = 273
    #: OFDM symbols per slot (normal cyclic prefix).
    symbols_per_slot: int = 14
    #: Subcarriers per PRB.
    subcarriers_per_prb: int = 12

    @property
    def slot_duration_ns(self) -> int:
        """Slot (TTI) duration: 1 ms / 2^mu."""
        return (1000 * US) >> self.mu

    @property
    def slots_per_subframe(self) -> int:
        return 1 << self.mu

    @property
    def slots_per_frame(self) -> int:
        return SUBFRAMES_PER_FRAME * self.slots_per_subframe

    def resource_elements_per_slot(self, prbs: int) -> int:
        """Modulation symbols carried by ``prbs`` PRBs in one slot.

        Uses 12 of 14 symbols for data (2 reserved for DMRS/control), the
        standard first-order overhead assumption.
        """
        data_symbols = self.symbols_per_slot - 2
        return prbs * self.subcarriers_per_prb * data_symbols


#: The testbed's carrier (Table 1): 100 MHz at 30 kHz SCS, 500 µs slots.
NUMEROLOGY = Numerology()
#: The testbed's TDD slot format, "DDDSU".
TDD = TddPattern()
#: :data:`NUMEROLOGY`'s slots per subframe and per frame, read once here
#: rather than through its properties on every :meth:`SlotClock.address_of`.
SLOTS_PER_SUBFRAME = NUMEROLOGY.slots_per_subframe
SLOTS_PER_FRAME = NUMEROLOGY.slots_per_frame


@dataclass(frozen=True)
class SlotAddress:
    """(frame, subframe, slot) triple — the timing fields in O-RAN headers."""

    frame: int
    subframe: int
    slot: int

    def __str__(self) -> str:
        return f"{self.frame}.{self.subframe}.{self.slot}"


class SlotClock:
    """Maps simulated time to :data:`NUMEROLOGY`'s slot counters and
    O-RAN header fields."""

    def __init__(self) -> None:
        #: The slot (TTI) duration, read under every ``slot_at`` /
        #: ``slot_start``.
        self.slot_duration_ns = NUMEROLOGY.slot_duration_ns

    def slot_at(self, time_ns: int) -> int:
        """Absolute slot counter containing ``time_ns``."""
        return (time_ns - SLOT_EPOCH_NS) // self.slot_duration_ns

    def slot_start(self, slot: int) -> int:
        """Start time of an absolute slot."""
        return SLOT_EPOCH_NS + slot * self.slot_duration_ns

    def address_of(self, slot: int) -> SlotAddress:
        """O-RAN (frame, subframe, slot-in-subframe) address of a slot."""
        within = slot % SLOTS_PER_FRAME
        return SlotAddress(
            frame=(slot // SLOTS_PER_FRAME) % MAX_FRAME,
            subframe=within // SLOTS_PER_SUBFRAME,
            slot=within % SLOTS_PER_SUBFRAME,
        )
