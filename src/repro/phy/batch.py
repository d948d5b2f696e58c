"""Batched PHY kernels: one numpy call per slot, not one per UE.

The scale-up counterpart to :mod:`repro.parallel`'s scale-out: where the
shard runner spreads independent runs across cores, these kernels process
**all transport blocks of a slot together**.

What the live slot pipeline runs, through
:meth:`repro.phy.codec.PhyCodec.encode_blocks` (a cell's uplink
completion, or one :class:`~repro.fleet.phy_backend.FleetPhyBackend`
gather for every cell completing at an instant):
:func:`repro.phy.crc.attach_crc_batch` for the info words not yet in the
codec's table, :func:`ldpc_encode_batch` and :func:`modulate_batch`. The
receive side does not batch: ``PhyCodec.decode_block`` demodulates and
decodes one block per call, its channel-noise and SNR-measurement draws
interleaved block by block. :func:`demodulate_llr_batch` is driven only
by the tests (``tests/test_phy_batch.py``).

Every batch kernel is pinned **byte-identical** to a loop over its
per-block reference (``tests/test_phy_batch.py`` fuzzes the pins), which
stays the normative implementation per the repo's optimization
convention. The pins are exact, not approximate: grouping blocks by
modulation and concatenating their bits feeds the very same elementwise
numpy operations the per-block calls run, so not a single float may
differ — and for the three live kernels the golden macro-scenario
digests enforce that end to end.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.phy.ldpc import LdpcCode
from repro.phy.modulation import Modulation, demodulate_llr, modulate

__all__ = [
    "demodulate_llr_batch",
    "ldpc_encode_batch",
    "modulate_batch",
]


def _groups_by_modulation(
    modulations: Sequence[Modulation],
) -> Dict[Modulation, List[int]]:
    """Input indices grouped by modulation, preserving input order."""
    groups: Dict[Modulation, List[int]] = {}
    for index, modulation in enumerate(modulations):
        groups.setdefault(modulation, []).append(index)
    return groups


def modulate_batch(
    bit_blocks: Sequence[np.ndarray],
    modulations: Sequence[Modulation],
) -> List[np.ndarray]:
    """Map every block's bits to symbols; one kernel call per modulation.

    Identical to ``[modulate(bits, mod) for ...]``: blocks sharing a
    modulation are concatenated (each block's bit count is already a
    multiple of bits-per-symbol, so symbol boundaries survive the
    concatenation), modulated in one call, and split back.
    """
    if len(bit_blocks) != len(modulations):
        raise ValueError("one modulation per bit block required")
    out: List[np.ndarray] = [np.empty(0)] * len(bit_blocks)
    for modulation, indices in _groups_by_modulation(modulations).items():
        blocks = [np.asarray(bit_blocks[i], dtype=np.uint8) for i in indices]
        symbols = modulate(np.concatenate(blocks), modulation)
        bps = modulation.bits_per_symbol
        bounds = np.cumsum([len(block) // bps for block in blocks])[:-1]
        for index, chunk in zip(indices, np.split(symbols, bounds)):
            out[index] = chunk
    return out


def demodulate_llr_batch(
    symbol_blocks: Sequence[np.ndarray],
    modulations: Sequence[Modulation],
    noise_vars: Sequence[float],
) -> List[np.ndarray]:
    """Soft-demodulate every block; one kernel call per modulation group.

    Identical to ``[demodulate_llr(sym, mod, nv) for ...]``: a group's
    blocks are concatenated and demodulated against a per-symbol noise
    vector holding each block's value, which is elementwise the same
    arithmetic the per-block call performs.
    """
    if not (len(symbol_blocks) == len(modulations) == len(noise_vars)):
        raise ValueError("blocks, modulations, and noise_vars must align")
    out: List[np.ndarray] = [np.empty(0)] * len(symbol_blocks)
    for modulation, indices in _groups_by_modulation(modulations).items():
        blocks = [
            np.asarray(symbol_blocks[i], dtype=np.complex128) for i in indices
        ]
        counts = [len(block) for block in blocks]
        per_symbol_nv = np.repeat([noise_vars[i] for i in indices], counts)
        llrs = demodulate_llr(np.concatenate(blocks), modulation, per_symbol_nv)
        bps = modulation.bits_per_symbol
        bounds = np.cumsum([count * bps for count in counts])[:-1]
        for index, chunk in zip(indices, np.split(llrs, bounds)):
            out[index] = chunk
    return out


def ldpc_encode_batch(code: LdpcCode, info_blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Systematically encode a batch of info-bit blocks in one kernel call.

    Returns a ``(B, n)`` uint8 codeword matrix; row ``i`` is identical
    to ``code.encode(info_blocks[i])`` (the same packed GF(2) generator
    product, batched).
    """
    info = np.stack([np.asarray(block, dtype=np.uint8) for block in info_blocks])
    if info.shape[1] != code.k:
        raise ValueError(f"expected {code.k} info bits, got {info.shape[1]}")
    codewords = np.zeros((len(info), code.n), dtype=np.uint8)
    codewords[:, code._info_cols] = info
    codewords[:, code._parity_cols] = code.parity_bits(info)
    return codewords
