"""Fuzz pins for the batched PHY kernels.

Every kernel in :mod:`repro.phy.batch` must be **bit-identical** to a
loop over its per-block reference — not approximately equal: the batch
path drives the live uplink slot pipeline, so a single differing float
would shift golden trace digests. All fuzz corpora come from reserved
``perf.*`` RngRegistry streams (seed ``CORPUS_SEED``) so they never
collide with simulation streams.
"""

import numpy as np
import pytest

from repro.perf.benchmarks import CORPUS_SEED
from repro.phy.batch import (
    demodulate_llr_batch,
    ldpc_encode_batch,
    modulate_batch,
)
from repro.phy.codec import PhyCodec
from repro.phy.ldpc import get_code
from repro.phy.modulation import Modulation, demodulate_llr, modulate
from repro.phy.transport import LinkDirection, TransportBlock
from repro.sim.rng import RngRegistry

MODULATIONS = list(Modulation)


def _random_bit_blocks(rng, count, modulations):
    """Per-block bit arrays whose lengths are symbol-aligned."""
    blocks = []
    for modulation in modulations:
        symbols = int(rng.integers(1, 64))
        size = symbols * modulation.bits_per_symbol
        blocks.append(rng.integers(0, 2, size=size, dtype=np.uint8))
    return blocks


class TestModulationBatch:
    def test_modulate_batch_pins_to_per_block_reference(self):
        rng = RngRegistry(CORPUS_SEED).stream("perf.batch_fuzz")
        for _ in range(60):
            count = int(rng.integers(1, 12))
            modulations = [
                MODULATIONS[int(rng.integers(0, len(MODULATIONS)))]
                for _ in range(count)
            ]
            bit_blocks = _random_bit_blocks(rng, count, modulations)
            batch = modulate_batch(bit_blocks, modulations)
            for bits, modulation, symbols in zip(bit_blocks, modulations, batch):
                reference = modulate(bits, modulation)
                assert symbols.dtype == reference.dtype
                assert np.array_equal(symbols, reference)

    def test_demodulate_llr_batch_pins_to_per_block_reference(self):
        rng = RngRegistry(CORPUS_SEED).stream("perf.batch_fuzz.demod")
        for _ in range(60):
            count = int(rng.integers(1, 12))
            modulations = [
                MODULATIONS[int(rng.integers(0, len(MODULATIONS)))]
                for _ in range(count)
            ]
            bit_blocks = _random_bit_blocks(rng, count, modulations)
            symbol_blocks = [
                modulate(bits, modulation) + (
                    rng.normal(0, 0.3, size=len(bits) // modulation.bits_per_symbol)
                    + 1j * rng.normal(0, 0.3, size=len(bits) // modulation.bits_per_symbol)
                )
                for bits, modulation in zip(bit_blocks, modulations)
            ]
            noise_vars = [float(v) for v in rng.uniform(0.01, 2.0, size=count)]
            batch = demodulate_llr_batch(symbol_blocks, modulations, noise_vars)
            for symbols, modulation, noise_var, llrs in zip(
                symbol_blocks, modulations, noise_vars, batch
            ):
                reference = demodulate_llr(symbols, modulation, noise_var)
                assert llrs.dtype == reference.dtype
                assert np.array_equal(llrs, reference)

    def test_length_mismatches_rejected(self):
        with pytest.raises(ValueError):
            modulate_batch([np.zeros(2, dtype=np.uint8)], [])
        with pytest.raises(ValueError):
            demodulate_llr_batch([np.zeros(2, dtype=complex)], [Modulation.QPSK], [])


class TestLdpcBatch:
    def test_encode_batch_pins_to_per_block_reference(self):
        code = get_code()
        rng = RngRegistry(CORPUS_SEED).stream("perf.batch_fuzz.ldpc")
        for _ in range(20):
            count = int(rng.integers(1, 10))
            info_blocks = [
                rng.integers(0, 2, size=code.k, dtype=np.uint8)
                for _ in range(count)
            ]
            batch = ldpc_encode_batch(code, info_blocks)
            assert batch.shape == (count, code.n)
            assert batch.dtype == np.uint8
            for row, info in zip(batch, info_blocks):
                assert np.array_equal(row, code.encode(info))

    def test_wrong_info_width_rejected(self):
        code = get_code()
        with pytest.raises(ValueError, match="info bits"):
            ldpc_encode_batch(code, [np.zeros(code.k + 1, dtype=np.uint8)])


def _slot_blocks(count=12):
    rng = RngRegistry(CORPUS_SEED).stream("perf.batch_fuzz.codec")
    return [
        TransportBlock(
            ue_id=1 + (i % 8),
            direction=LinkDirection.UPLINK,
            harq_process=i % 16,
            modulation=MODULATIONS[int(rng.integers(0, len(MODULATIONS)))],
            prbs=int(rng.integers(1, 273)),
            data=None,
            size_bytes=int(rng.integers(32, 4096)),
            new_data=True,
            retx_index=0,
            slot=0,
            tb_id=7000 + i,
        )
        for i in range(count)
    ]


class TestCodecBatch:
    def test_encode_blocks_pins_to_encode_block(self):
        codec = PhyCodec(rng=np.random.default_rng(3))
        blocks = _slot_blocks()
        batch = codec.encode_blocks(blocks)
        assert len(batch) == len(blocks)
        for block, symbols in zip(blocks, batch):
            reference = codec.encode_block(block)
            assert symbols.dtype == reference.dtype
            assert np.array_equal(symbols, reference)

    def test_encode_blocks_empty(self):
        codec = PhyCodec(rng=np.random.default_rng(3))
        assert codec.encode_blocks([]) == []

    def test_decode_block_accepts_precomputed_symbols(self):
        """Supplying encode_blocks output must not change the decode
        outcome or the RNG draw order (encoding is RNG-free)."""
        from repro.phy.channel import ChannelRealization

        blocks = _slot_blocks(count=4)
        codec_a = PhyCodec(rng=np.random.default_rng(11))
        codec_b = PhyCodec(rng=np.random.default_rng(11))
        encoded = codec_b.encode_blocks(blocks)
        for i, (block, symbols) in enumerate(zip(blocks, encoded)):
            realization = ChannelRealization(snr_db=9.0 + i)
            outcome_a = codec_a.decode_block(block, realization)
            outcome_b = codec_b.decode_block(block, realization, symbols=symbols)
            assert outcome_a == outcome_b
