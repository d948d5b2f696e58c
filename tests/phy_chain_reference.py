"""The per-TB PHY chain as it was before it was cut to fewer numpy calls — a test fixture.

``PhyCodec`` now derives a transport block's codeword with one packed
generator product (CRC24A folded into the LDPC generator), draws its
payload bits from a bare ``PCG64``, modulates by constellation table,
draws channel noise in one call, demodulates with one gather and decodes
with a 9-ufunc two-smallest network. :class:`ReferenceCodec` is the chain
those replaced, verbatim in its arithmetic: payload bits from a
``Generator``, ``attach_crc`` then ``LdpcCode.encode``, per-axis level
lookups, two noise draws, one ``take`` + ``minimum.reduce`` pair per bit,
the running two-smallest pair and the ``bincount`` scatter-add, and the
info-word verdict. ``tests/test_phy_chain_fuzz.py`` holds the live codec
equal to it call for call: every ``DecodeOutcome`` field, the HARQ
buffers and the RNG state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.channel import ChannelRealization
from repro.phy.codec import CodecStats
from repro.phy.crc import CRC24_BITS
from repro.phy.harq import HarqProcessPool
from repro.phy.ldpc import LdpcCode, LdpcDecodeResult, get_code
from repro.phy.modulation import _NORMS, _PAM_LEVELS, Modulation
from repro.phy.transport import DecodeOutcome, TransportBlock
from tests.crc_serial import attach_crc


def modulate_reference(bits: np.ndarray, modulation: Modulation) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    bps = modulation.bits_per_symbol
    if len(bits) % bps != 0:
        raise ValueError(f"bit count {len(bits)} not a multiple of {bps}")
    norm = _NORMS[modulation]
    if modulation is Modulation.BPSK:
        return ((1 - 2 * bits.astype(np.float64)) / norm).astype(np.complex128)
    axis_bits = bps // 2
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = (bits.reshape(-1, bps) * weights).sum(axis=1)
    i_labels = labels >> axis_bits
    q_labels = labels & ((1 << axis_bits) - 1)
    levels = _PAM_LEVELS[modulation]
    return (levels[i_labels] + 1j * levels[q_labels]) / norm


def _bit_rows(axis_bits: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    labels = np.arange(1 << axis_bits)
    bit_of = [(labels >> (axis_bits - 1 - index)) & 1 for index in range(axis_bits)]
    return tuple((np.flatnonzero(bit == 0), np.flatnonzero(bit == 1)) for bit in bit_of)


_DEMOD_TABLES = {
    modulation: (
        (levels / _NORMS[modulation])[:, None],
        _bit_rows(modulation.bits_per_symbol // 2),
    )
    for modulation, levels in _PAM_LEVELS.items()
}


def demodulate_reference(symbols: np.ndarray, modulation: Modulation, noise_var) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.complex128)
    noise_var = np.maximum(noise_var, 1e-12)
    norm = _NORMS[modulation]
    if modulation is Modulation.BPSK:
        return 4.0 * symbols.real / (norm * noise_var) * norm ** 0
    levels, bit_rows = _DEMOD_TABLES[modulation]
    dist = (np.concatenate([symbols.real, symbols.imag]) - levels) ** 2
    diffs = np.array([
        np.minimum.reduce(dist.take(one_rows, 0)) - np.minimum.reduce(dist.take(zero_rows, 0))
        for zero_rows, one_rows in bit_rows
    ])
    axis_noise = noise_var / 2.0
    llrs = diffs.reshape(len(bit_rows), 2, len(symbols)) / (2.0 * axis_noise)
    return llrs.transpose(2, 1, 0).reshape(-1)


def _two_smallest(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    low = np.minimum(rows[0], rows[1])
    high = np.maximum(rows[0], rows[1])
    for row in rows[2:]:
        high = np.minimum(high, np.maximum(low, row))
        low = np.minimum(low, row)
    return low, high


def _syndrome_ok(code: LdpcCode, hard_bits: np.ndarray) -> bool:
    checks = np.asarray(hard_bits)[code._neighbours]
    return not np.bitwise_xor.reduce(checks, axis=0).any()


def decode_reference(code: LdpcCode, llr: np.ndarray, max_iterations: int = 8) -> LdpcDecodeResult:
    """``LdpcCode.decode`` as it was (``hard_bits`` added for comparison)."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} LLRs, got {llr.shape}")
    neighbours = code._neighbours
    totals = llr
    negative = totals < 0
    converged = _syndrome_ok(code, negative)
    c2v = np.zeros(neighbours.shape, dtype=np.float64)
    iterations = 0
    while not converged and iterations < max_iterations:
        iterations += 1
        v2c = totals[neighbours] - c2v
        signs = np.where(v2c < 0, -1.0, 1.0)
        row_sign = signs.prod(axis=0)
        magnitude = np.abs(v2c)
        min1, min2 = _two_smallest(magnitude)
        out_mag = np.where(magnitude > min1, min1, min2)
        c2v = code.normalization * row_sign * signs * out_mag
        totals = llr + np.bincount(
            code.chk_to_var.ravel(), weights=c2v.T.ravel(), minlength=code.n
        )
        negative = totals < 0
        converged = _syndrome_ok(code, negative)
    info_bits = negative[code._info_cols].astype(np.uint8)
    return LdpcDecodeResult(info_bits, converged, iterations, negative)


class ReferenceCodec:
    """``PhyCodec``'s transmit and receive chain as it was, with its own
    (unbounded) info-word table: a miss only recomputes."""

    def __init__(
        self,
        rng: np.random.Generator,
        decoder_iterations: int = 8,
        code: Optional[LdpcCode] = None,
    ) -> None:
        self.rng = rng
        self.decoder_iterations = decoder_iterations
        self.code = code if code is not None else get_code()
        self.harq = HarqProcessPool()
        self.stats = CodecStats()
        self.payload_bits = self.code.k - CRC24_BITS
        self._info_words: Dict[int, np.ndarray] = {}

    def representative_bits(self, block: TransportBlock) -> np.ndarray:
        bit_rng = np.random.default_rng(block.tb_id)
        return bit_rng.integers(0, 2, size=self.payload_bits, dtype=np.uint8)

    def info_word(self, block: TransportBlock) -> np.ndarray:
        word = self._info_words.get(block.tb_id)
        if word is None:
            word = attach_crc(self.representative_bits(block))
            self._info_words[block.tb_id] = word
        return word

    def encode_block(self, block: TransportBlock) -> np.ndarray:
        codeword = self.code.encode(self.info_word(block))
        bps = block.modulation.bits_per_symbol
        pad = (-len(codeword)) % bps
        if pad:
            codeword = np.concatenate([codeword, np.zeros(pad, dtype=np.uint8)])
        return modulate_reference(codeword, block.modulation)

    def encode_blocks(self, blocks: Sequence[TransportBlock]) -> List[np.ndarray]:
        return [self.encode_block(block) for block in blocks]

    def apply_channel(self, symbols: np.ndarray, realization: ChannelRealization) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=np.complex128)
        sigma = np.sqrt(realization.noise_var / 2.0)
        noise = self.rng.normal(0.0, sigma, size=symbols.shape) + 1j * self.rng.normal(
            0.0, sigma, size=symbols.shape
        )
        return symbols + noise

    def garbage(self, count: int) -> np.ndarray:
        sigma = np.sqrt(0.5)
        return self.rng.normal(0.0, sigma, size=count) + 1j * self.rng.normal(
            0.0, sigma, size=count
        )

    def decode_block(
        self,
        block: TransportBlock,
        realization: ChannelRealization,
        symbols: Optional[np.ndarray] = None,
    ) -> DecodeOutcome:
        if symbols is None:
            symbols = self.encode_block(block)
        received = self.apply_channel(symbols, realization)
        llrs = demodulate_reference(received, block.modulation, realization.noise_var)
        llrs = llrs[: self.code.n]
        combined = self.harq.combine(
            block.ue_id, block.harq_process, block.tb_id, llrs, block.new_data
        )
        result = decode_reference(self.code, combined, self.decoder_iterations)
        crc_ok = False
        if result.parity_ok:
            crc_ok = bool(np.array_equal(result.info_bits, self.info_word(block)))
        buf = self.harq.buffer(block.ue_id, block.harq_process)
        combined_transmissions = buf.transmissions
        if crc_ok:
            self.harq.release(block.ue_id, block.harq_process)
        self.stats.blocks_decoded += 1
        self.stats.total_decoder_iterations += result.iterations_used
        if not crc_ok:
            self.stats.crc_failures += 1
        return DecodeOutcome(
            tb_id=block.tb_id,
            ue_id=block.ue_id,
            harq_process=block.harq_process,
            crc_ok=crc_ok,
            measured_snr_db=realization.snr_db + float(self.rng.normal(0.0, 0.4)),
            decoder_iterations=result.iterations_used,
            combined_transmissions=combined_transmissions,
            data=block.data if crc_ok else None,
        )

    def decode_garbage(self, block: TransportBlock) -> DecodeOutcome:
        noise_symbols = self.garbage(
            (self.code.n + block.modulation.bits_per_symbol - 1)
            // block.modulation.bits_per_symbol
        )
        demodulate_reference(noise_symbols, block.modulation, 1.0)
        self.stats.blocks_decoded += 1
        self.stats.garbage_decodes += 1
        self.stats.crc_failures += 1
        return DecodeOutcome(
            tb_id=block.tb_id,
            ue_id=block.ue_id,
            harq_process=block.harq_process,
            crc_ok=False,
            measured_snr_db=-5.0,
            decoder_iterations=0,
            combined_transmissions=self.harq.buffer(
                block.ue_id, block.harq_process
            ).transmissions,
            data=None,
        )
