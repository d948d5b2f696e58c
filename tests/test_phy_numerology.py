"""Tests for OFDM numerology, TDD patterns, and the slot clock."""

import pytest

from repro.phy import numerology as numerology_module
from repro.phy.numerology import (
    MAX_FRAME,
    Numerology,
    SlotAddress,
    SlotClock,
    SlotType,
    TddPattern,
)
from repro.sim.units import US


class TestNumerology:
    def test_mu1_slot_is_500_us(self):
        assert Numerology(mu=1).slot_duration_ns == 500 * US

    def test_mu0_slot_is_1_ms(self):
        assert Numerology(mu=0).slot_duration_ns == 1000 * US

    def test_slots_per_frame(self):
        assert Numerology(mu=1).slots_per_frame == 20

    def test_resource_elements(self):
        numerology = Numerology()
        # 12 data symbols x 12 subcarriers per PRB.
        assert numerology.resource_elements_per_slot(1) == 144
        assert numerology.resource_elements_per_slot(273) == 273 * 144


class TestTddPattern:
    def test_dddsu_types(self):
        tdd = TddPattern("DDDSU")
        assert tdd.slot_type(0) is SlotType.DOWNLINK
        assert tdd.slot_type(3) is SlotType.SPECIAL
        assert tdd.slot_type(4) is SlotType.UPLINK
        assert tdd.slot_type(9) is SlotType.UPLINK  # Repeats mod 5.

    def test_counts(self):
        tdd = TddPattern("DDDSU")
        types = [tdd.slot_type(slot) for slot in range(5)]
        assert types.count(SlotType.DOWNLINK) == 3
        assert types.count(SlotType.SPECIAL) == 1
        assert types.count(SlotType.UPLINK) == 1

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            TddPattern("DDXU")
        with pytest.raises(ValueError):
            TddPattern("")


class TestSlotClock:
    def test_slot_boundaries(self):
        clock = SlotClock()
        assert clock.slot_at(0) == 0
        assert clock.slot_at(499_999) == 0
        assert clock.slot_at(500_000) == 1
        assert clock.slot_start(7) == 7 * 500_000

    def test_epoch_offset(self, monkeypatch):
        monkeypatch.setattr(numerology_module, "SLOT_EPOCH_NS", 100)
        clock = SlotClock()
        assert clock.slot_at(99) == -1
        assert clock.slot_at(100) == 0

    def test_address_of_wraps_at_1024_frames(self):
        clock = SlotClock()
        slots_per_frame = 20
        address = clock.address_of(MAX_FRAME * slots_per_frame + 3)
        assert address.frame == 0
        assert address.subframe == 1
        assert address.slot == 1

    def test_address_fields_in_range(self):
        clock = SlotClock()
        for slot in (0, 1, 19, 20, 54321):
            address = clock.address_of(slot)
            assert 0 <= address.frame < MAX_FRAME
            assert 0 <= address.subframe < 10
            assert 0 <= address.slot < 2
