"""QAM modulation and soft demodulation.

Gray-mapped BPSK/QPSK/16-QAM/64-QAM with unit average symbol energy, plus
max-log LLR soft demodulation. The L2's MCS selection (driven by reported
SNR) picks the modulation order; the PHY's decoder consumes the LLRs.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple, Union

import numpy as np


class Modulation(enum.IntEnum):
    """Modulation orders used by the MAC's MCS table."""

    BPSK = 1
    QPSK = 2
    QAM16 = 4
    QAM64 = 6

    @property
    def bits_per_symbol(self) -> int:
        return int(self.value)


def _gray_pam_levels(bits: int) -> np.ndarray:
    """Amplitude levels of a Gray-coded 2^bits-PAM, indexed by Gray label.

    ``levels[label]`` is the (unnormalized) amplitude transmitted for the
    per-axis bit group ``label``.
    """
    count = 1 << bits
    # Natural binary order of amplitudes: -(count-1), ..., -1, 1, ..., count-1.
    amplitudes = 2 * np.arange(count) - (count - 1)
    levels = np.empty(count)
    for position, amplitude in enumerate(amplitudes):
        gray = position ^ (position >> 1)
        levels[gray] = amplitude
    return levels


# Per-axis Gray levels and normalization for each modulation.
_PAM_LEVELS: Dict[Modulation, np.ndarray] = {
    Modulation.QPSK: _gray_pam_levels(1),
    Modulation.QAM16: _gray_pam_levels(2),
    Modulation.QAM64: _gray_pam_levels(3),
}
_NORMS: Dict[Modulation, float] = {
    Modulation.BPSK: 1.0,
    Modulation.QPSK: np.sqrt(2.0),
    Modulation.QAM16: np.sqrt(10.0),
    Modulation.QAM64: np.sqrt(42.0),
}


def _constellation(modulation: Modulation) -> np.ndarray:
    """Unit-energy symbol of every label (the symbol's bits, MSB first):
    the first half of a label's bits selects the I level, the second half
    the Q level (both Gray-coded)."""
    labels = np.arange(1 << modulation.bits_per_symbol)
    if modulation is Modulation.BPSK:
        return ((1 - 2 * labels.astype(np.float64)) / _NORMS[modulation]).astype(np.complex128)
    axis_bits = modulation.bits_per_symbol // 2
    levels = _PAM_LEVELS[modulation]
    i_labels = labels >> axis_bits
    q_labels = labels & ((1 << axis_bits) - 1)
    return (levels[i_labels] + 1j * levels[q_labels]) / _NORMS[modulation]


#: Per modulation: the constellation by label, and the label weight of
#: each of a symbol's bits.
_MOD_TABLES: Dict[Modulation, Tuple[np.ndarray, np.ndarray]] = {
    modulation: (
        _constellation(modulation),
        1 << np.arange(modulation.bits_per_symbol - 1, -1, -1),
    )
    for modulation in Modulation
}


def modulate(bits: np.ndarray, modulation: Modulation) -> np.ndarray:
    """Map bits to unit-energy complex symbols.

    The bit count must be a multiple of ``bits_per_symbol``. For QAM, the
    first half of each symbol's bits selects the I axis, the second half
    the Q axis (both Gray-coded); each symbol is one lookup of its label
    in a constellation table built from the same expression.
    """
    bps = modulation.bits_per_symbol
    if len(bits) % bps != 0:
        raise ValueError(f"bit count {len(bits)} not a multiple of {bps}")
    table, weights = _MOD_TABLES[modulation]
    return table[np.reshape(bits, (-1, bps)) @ weights]


def _bit_rows(axis_bits: int) -> np.ndarray:
    """Level rows per axis bit (MSB first): the rows whose Gray label has
    the bit 1 for every bit, then those where it is 0."""
    labels = np.arange(1 << axis_bits)
    bit_of = [(labels >> (axis_bits - 1 - index)) & 1 for index in range(axis_bits)]
    return np.array(
        [np.flatnonzero(bit == 1) for bit in bit_of]
        + [np.flatnonzero(bit == 0) for bit in bit_of]
    )


#: Per modulation: unit-energy PAM levels as a column, and the bit rows.
_DEMOD_TABLES: Dict[Modulation, Tuple[np.ndarray, np.ndarray]] = {
    modulation: (
        (levels / _NORMS[modulation])[:, None],
        _bit_rows(modulation.bits_per_symbol // 2),
    )
    for modulation, levels in _PAM_LEVELS.items()
}


def demodulate_llr(
    symbols: np.ndarray, modulation: Modulation, noise_var: Union[float, np.ndarray]
) -> np.ndarray:
    """Max-log soft demodulation into per-bit LLRs (positive favours 0).

    ``noise_var`` is the complex noise variance (per complex dimension
    total), one value or one per symbol; the per-axis variance is half of
    it. Squared distances to every PAM level are laid out as
    ``(levels, 2 * symbols)`` rows, I then Q; one gather of the rows of
    :data:`_DEMOD_TABLES` and one ``minimum.reduce`` over the level axis
    give every bit's two minima.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    noise_var = np.maximum(noise_var, 1e-12)
    norm = _NORMS[modulation]
    if modulation is Modulation.BPSK:
        return 4.0 * symbols.real / (norm * noise_var) * norm ** 0  # = 4*Re(y)/N0
    levels, bit_rows = _DEMOD_TABLES[modulation]
    dist = (np.concatenate([symbols.real, symbols.imag]) - levels) ** 2
    minima = np.minimum.reduce(dist.take(bit_rows, 0), axis=1)
    axis_bits = len(bit_rows) // 2
    diffs = minima[:axis_bits] - minima[axis_bits:]
    axis_noise = noise_var / 2.0
    # (bit, I/Q, symbol) -> per symbol: the I bits MSB first, then the Q bits.
    llrs = diffs.reshape(axis_bits, 2, len(symbols)) / (2.0 * axis_noise)
    return llrs.transpose(2, 1, 0).reshape(-1)
