"""Boolean-mask soft demodulation and the CRC-recheck verdict — test fixtures.

:func:`repro.phy.modulation.demodulate_llr` takes per-bit minima over
precomputed index rows of one ``(levels, 2 * symbols)`` distance matrix;
these are the kernels it replaced, verbatim: ``_pam_llrs`` selected the
candidate columns with one boolean mask per bit value and axis,
``demodulate_llr_masked`` ran it once for I and once for Q, and
``demodulate_with_noise_vector_masked`` was the line-for-line duplicate
``repro.phy.batch`` kept for a per-symbol noise vector (its caller
clamped each block's variance with ``max(nv, 1e-12)`` first).
``verdict_recheck`` is the expression ``PhyCodec.decode_block`` used to
declare a parity-clean decode good: re-derive the CRC of what the
decoder returned and compare the payload with the transmitted one.
``tests/test_phy_kernel_fuzz.py`` pins the live code to all of them on
the raw float bits.
"""

from __future__ import annotations

import numpy as np

from repro.phy.crc import check_crc
from repro.phy.modulation import _NORMS, _PAM_LEVELS, Modulation


def _pam_llrs(y: np.ndarray, axis_bits: int, levels: np.ndarray, noise_var: float) -> np.ndarray:
    """Max-log LLRs for the per-axis PAM component.

    Returns an array of shape (len(y), axis_bits): LLR per bit, MSB first.
    Positive LLR favours bit 0.
    """
    count = 1 << axis_bits
    labels = np.arange(count)
    # Squared distance from each observation to each candidate level.
    dist = (y[:, None] - levels[None, :]) ** 2
    llrs = np.empty((len(y), axis_bits))
    for bit_index in range(axis_bits):
        mask = (labels >> (axis_bits - 1 - bit_index)) & 1
        d0 = dist[:, mask == 0].min(axis=1)
        d1 = dist[:, mask == 1].min(axis=1)
        llrs[:, bit_index] = (d1 - d0) / noise_var
    return llrs


def demodulate_llr_masked(
    symbols: np.ndarray, modulation: Modulation, noise_var: float
) -> np.ndarray:
    """Soft-demodulate symbols into per-bit LLRs (positive favours 0).

    ``noise_var`` is the complex noise variance (per complex dimension
    total); the per-axis variance is half of it.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    noise_var = max(noise_var, 1e-12)
    norm = _NORMS[modulation]
    if modulation is Modulation.BPSK:
        return 4.0 * symbols.real / (norm * noise_var) * norm ** 0  # = 4*Re(y)/N0
    axis_bits = modulation.bits_per_symbol // 2
    levels = _PAM_LEVELS[modulation] / norm
    axis_noise = noise_var / 2.0
    i_llrs = _pam_llrs(symbols.real, axis_bits, levels, 2.0 * axis_noise)
    q_llrs = _pam_llrs(symbols.imag, axis_bits, levels, 2.0 * axis_noise)
    interleaved = np.concatenate([i_llrs, q_llrs], axis=1)
    return interleaved.reshape(-1)


def demodulate_with_noise_vector_masked(
    symbols: np.ndarray, modulation: Modulation, noise_var: np.ndarray
) -> np.ndarray:
    """``demodulate_llr_masked`` generalized to a per-symbol noise vector
    (already clamped by the caller)."""
    norm = _NORMS[modulation]
    if modulation is Modulation.BPSK:
        return 4.0 * symbols.real / (norm * noise_var) * norm ** 0
    axis_bits = modulation.bits_per_symbol // 2
    levels = _PAM_LEVELS[modulation] / norm
    axis_noise = noise_var / 2.0
    i_llrs = _pam_llrs(symbols.real, axis_bits, levels, 2.0 * axis_noise)
    q_llrs = _pam_llrs(symbols.imag, axis_bits, levels, 2.0 * axis_noise)
    interleaved = np.concatenate([i_llrs, q_llrs], axis=1)
    return interleaved.reshape(-1)


def verdict_recheck(
    decoded_with_crc: np.ndarray, sent_payload: np.ndarray, payload_bits: int
) -> bool:
    """The old pass/fail of a parity-clean decode."""
    return check_crc(decoded_with_crc) and bool(
        np.array_equal(decoded_with_crc[:payload_bits], sent_payload)
    )
