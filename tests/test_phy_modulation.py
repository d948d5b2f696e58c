"""Tests for QAM modulation and LLR demodulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.modulation import (
    Modulation,
    demodulate_llr,
    modulate,
)


ALL_MODULATIONS = [
    Modulation.BPSK,
    Modulation.QPSK,
    Modulation.QAM16,
    Modulation.QAM64,
]


class TestModulation:
    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_unit_average_energy(self, modulation):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 6000 * modulation.bits_per_symbol // 6, dtype=np.uint8)
        bits = bits[: len(bits) - len(bits) % modulation.bits_per_symbol]
        symbols = modulate(bits, modulation)
        energy = float(np.mean(np.abs(symbols) ** 2))
        assert energy == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_symbol_count(self, modulation):
        bits = np.zeros(modulation.bits_per_symbol * 10, dtype=np.uint8)
        assert len(modulate(bits, modulation)) == 10

    def test_bad_bit_count_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.zeros(5, dtype=np.uint8), Modulation.QAM16)

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_distinct_bit_groups_map_to_distinct_symbols(self, modulation):
        bps = modulation.bits_per_symbol
        labels = np.arange(1 << bps)
        bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8)
        symbols = modulate(bits.ravel(), modulation)
        assert len(set(np.round(symbols, 9))) == 1 << bps

    @pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
    def test_gray_mapping_adjacent_symbols_differ_by_one_bit(self, modulation):
        """Neighbouring constellation points on one axis differ in one bit,
        the defining Gray property that keeps near-threshold errors cheap."""
        bps = modulation.bits_per_symbol
        labels = np.arange(1 << bps)
        bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8)
        symbols = modulate(bits.ravel(), modulation)
        by_point = {}
        for label, symbol in zip(labels, symbols):
            by_point[complex(np.round(symbol, 9))] = label
        points = sorted(by_point, key=lambda p: (p.imag, p.real))
        # Compare horizontally adjacent points within each row.
        rows = {}
        for p in points:
            rows.setdefault(round(p.imag, 9), []).append(p)
        for row in rows.values():
            row.sort(key=lambda p: p.real)
            for left, right in zip(row, row[1:]):
                diff = by_point[left] ^ by_point[right]
                assert bin(diff).count("1") == 1


class TestDemodulation:
    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_noiseless_llr_sign_roundtrip(self, modulation):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, modulation.bits_per_symbol * 64, dtype=np.uint8)
        symbols = modulate(bits, modulation)
        llrs = demodulate_llr(symbols, modulation, noise_var=0.01)
        assert np.array_equal(llrs < 0, bits)

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_llr_count_matches_bits(self, modulation):
        bits = np.zeros(modulation.bits_per_symbol * 7, dtype=np.uint8)
        symbols = modulate(bits, modulation)
        assert len(demodulate_llr(symbols, modulation, 0.1)) == len(bits)

    def test_llr_magnitude_scales_with_noise_confidence(self):
        bits = np.array([0, 0, 1, 1], dtype=np.uint8)
        symbols = modulate(bits, Modulation.QPSK)
        confident = demodulate_llr(symbols, Modulation.QPSK, noise_var=0.01)
        vague = demodulate_llr(symbols, Modulation.QPSK, noise_var=1.0)
        assert np.all(np.abs(confident) > np.abs(vague))

    def test_llr_sign_convention_positive_is_zero(self):
        bits = np.array([0, 1], dtype=np.uint8)
        symbols = modulate(bits, Modulation.QPSK)
        llrs = demodulate_llr(symbols, Modulation.QPSK, noise_var=0.1)
        assert llrs[0] > 0  # bit 0 transmitted
        assert llrs[1] < 0  # bit 1 transmitted

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property_qam64(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 6 * 32, dtype=np.uint8)
        symbols = modulate(bits, Modulation.QAM64)
        llrs = demodulate_llr(symbols, Modulation.QAM64, noise_var=0.001)
        assert np.array_equal(llrs < 0, bits)

    def test_ber_improves_with_snr(self):
        rng = np.random.default_rng(2)
        from repro.phy.channel import AwgnChannel, ChannelRealization

        channel = AwgnChannel(rng)
        bits = rng.integers(0, 2, 4 * 3000, dtype=np.uint8)
        symbols = modulate(bits, Modulation.QAM16)

        def ber(snr_db):
            realization = ChannelRealization(snr_db)
            received = channel.apply(symbols, realization)
            llrs = demodulate_llr(received, Modulation.QAM16, realization.noise_var)
            return float(np.mean((llrs < 0) != bits))

        assert ber(4.0) > ber(12.0)
        assert ber(12.0) > ber(20.0)
