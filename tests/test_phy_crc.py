"""Unit + property tests for CRC-24A."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.crc import (
    CRC24_BITS,
    attach_crc_batch,
    check_crc,
    crc24a,
    crc24a_batch,
)
from tests.crc_serial import attach_crc, crc24a_reference


class TestCrcBasics:
    def test_crc_is_24_bits(self):
        bits = np.ones(64, dtype=np.uint8)
        assert 0 <= crc24a(bits) < (1 << 24)

    def test_attach_appends_24_bits(self):
        payload = np.zeros(100, dtype=np.uint8)
        block = attach_crc(payload)
        assert len(block) == 100 + CRC24_BITS

    def test_attach_then_check_passes(self):
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 2, 300, dtype=np.uint8)
        assert check_crc(attach_crc(payload))

    def test_single_bit_error_detected(self):
        rng = np.random.default_rng(1)
        block = attach_crc(rng.integers(0, 2, 300, dtype=np.uint8))
        for position in (0, 57, 150, len(block) - 1):
            corrupted = block.copy()
            corrupted[position] ^= 1
            assert not check_crc(corrupted), f"missed flip at {position}"

    def test_burst_error_detected(self):
        rng = np.random.default_rng(2)
        block = attach_crc(rng.integers(0, 2, 300, dtype=np.uint8))
        corrupted = block.copy()
        corrupted[40:60] ^= 1
        assert not check_crc(corrupted)

    def test_too_short_block_fails_check(self):
        assert not check_crc(np.ones(CRC24_BITS, dtype=np.uint8))
        assert not check_crc(np.ones(5, dtype=np.uint8))

    def test_known_differences_across_payloads(self):
        a = crc24a(np.zeros(48, dtype=np.uint8))
        b = crc24a(np.ones(48, dtype=np.uint8))
        assert a != b

    def test_bit_serial_matches_table_for_byte_multiple(self):
        """The byte-wise fast path and bit-serial path must agree."""
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 128, dtype=np.uint8)
        fast = crc24a(bits)
        # Force the bit-serial path with a non-multiple length, padded
        # back to equivalence manually: compute serially on same input.
        register = 0
        poly = 0x1864CFB
        for bit in bits:
            register ^= int(bit) << 23
            register <<= 1
            if register & 0x1000000:
                register ^= poly
            register &= 0xFFFFFF
        assert fast == register


class TestCrcProperties:
    @given(st.binary(min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_payloads(self, data):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        assert check_crc(attach_crc(bits))

    @given(
        st.binary(min_size=2, max_size=60),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_single_flip_detected(self, data, position_seed):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        block = attach_crc(bits)
        position = position_seed % len(block)
        block[position] ^= 1
        assert not check_crc(block)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=97))
    @settings(max_examples=40, deadline=None)
    def test_non_byte_aligned_lengths(self, bit_list):
        bits = np.array(bit_list, dtype=np.uint8)
        assert check_crc(attach_crc(bits))


class TestCrcFuzzPins:
    """The vectorized fast paths pinned to the bit-serial reference.

    ``tests.crc_serial.crc24a_reference`` is the normative register
    loop; ``crc24a``
    (single-block gather) and ``crc24a_batch`` (padded matrix) must match
    it exactly on every input. The corpus is ~1k random blocks spanning
    lengths 0..4096 from a reserved ``perf.*`` RngRegistry stream.
    """

    def _corpus(self):
        from repro.sim.rng import RngRegistry
        from tests.corpora import CORPUS_SEED

        rng = RngRegistry(CORPUS_SEED).stream("perf.crc_fuzz")
        return [
            rng.integers(0, 2, size=int(rng.integers(0, 4097)), dtype=np.uint8)
            for _ in range(1000)
        ]

    def test_fast_and_batch_pin_to_reference(self):
        blocks = self._corpus()
        references = np.array(
            [crc24a_reference(block) for block in blocks], dtype=np.int64
        )
        scalars = np.array([crc24a(block) for block in blocks], dtype=np.int64)
        batch = crc24a_batch(blocks).astype(np.int64)
        assert np.array_equal(scalars, references)
        assert np.array_equal(batch, references)

    def test_attach_batch_roundtrip(self):
        blocks = self._corpus()[:200]
        attached = attach_crc_batch(blocks)
        for payload, block in zip(blocks, attached):
            assert len(block) == len(payload) + CRC24_BITS
            assert np.array_equal(block, attach_crc(payload))
            assert check_crc(block)

    def test_batch_of_empty_and_edge_lengths(self):
        edges = [
            np.zeros(0, dtype=np.uint8),
            np.ones(1, dtype=np.uint8),
            np.zeros(7, dtype=np.uint8),
            np.ones(8, dtype=np.uint8),
            np.ones(4096, dtype=np.uint8),
        ]
        batch = crc24a_batch(edges).astype(np.int64)
        for value, block in zip(batch, edges):
            assert int(value) == crc24a_reference(block) == crc24a(block)
