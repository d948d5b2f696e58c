"""Register-loop CRC24A — the normative serial implementation, a test fixture.

:mod:`repro.phy.crc` computes every CRC through per-position tables; this
is the shift-register definition those tables are derived from, kept so
``tests/test_phy_crc.py`` and ``tests/test_phy_kernel_fuzz.py`` can pin
the table path to it at every length: byte-at-a-time for byte-multiple
messages, bit-serial otherwise. :func:`attach_crc` is the one-block form
of ``attach_crc_batch`` that the PHY chain references encode through.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.phy.crc import _CRC_SHIFTS, _TABLE, CRC24A_POLY, crc24a


def _crc_bytes_serial(data: Sequence[int]) -> int:
    """Normative byte-at-a-time register loop."""
    register = 0
    for byte in data:
        index = ((register >> 16) ^ int(byte)) & 0xFF
        register = ((register << 8) ^ int(_TABLE[index])) & 0xFFFFFF
    return register


def crc_bits_serial(bits: np.ndarray) -> int:
    """Normative bit-serial loop (any length)."""
    register = 0
    for bit in bits:
        register ^= int(bit) << 23
        register <<= 1
        if register & 0x1000000:
            register ^= CRC24A_POLY
        register &= 0xFFFFFF
    return register


def crc24a_reference(bits: np.ndarray) -> int:
    """Normative CRC24A of a bit array (MSB-first bit order)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) % 8 == 0:
        return _crc_bytes_serial(np.packbits(bits))
    return crc_bits_serial(bits)


def attach_crc(payload_bits: np.ndarray) -> np.ndarray:
    """Append the 24 CRC bits (MSB first) to one payload bit array."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    crc_bits = ((crc24a(payload_bits) >> _CRC_SHIFTS) & 1).astype(np.uint8)
    return np.concatenate([payload_bits, crc_bits])
