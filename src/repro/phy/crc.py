"""CRC-24A transport-block checksums.

5G NR attaches a 24-bit CRC to each transport block before LDPC encoding
(3GPP TS 38.212 uses the CRC24A polynomial for this). The CRC is what lets
the PHY declare a decode success/failure — the signal the whole HARQ
machinery, and therefore Slingshot's state-discarding argument, hinges on.

Cost model: one table lookup per message *byte*, at every length, for
one block (:func:`crc24a`) or a batch (:func:`crc24a_batch`); no per-bit
Python loop exists. No CRC runs per transport block on the live path:
the codec folds CRC24A into its payload -> codeword generator, built
once per code from :func:`attach_crc_batch` of the unit payloads, and
its verdict compares codewords. :func:`crc24a_batch` is that builder
and the reference the fold is pinned to.

The vectorization rests on GF(2) linearity: the register recurrence
``r' = (r << 8) ^ TABLE[(r >> 16) ^ byte]`` splits into
``advance(r) ^ TABLE[byte]`` because ``TABLE`` is itself linear
(``TABLE[a ^ b] = TABLE[a] ^ TABLE[b]``), so the CRC of a message is
the XOR of one precomputed per-position contribution per byte — a
single gather + XOR-reduction instead of a Python loop.

A length that is not a byte multiple is **left**-padded with zero bits.
That is exact: the register starts at zero and a zero bit shifted into
an all-zero register leaves it zero, so leading zero bits (or bytes —
``TABLE[0] == 0`` at every position) do not change the remainder. The
shift-register definition lives in ``tests/crc_serial.py`` and is pinned
equal at every length 0..400 bits (``tests/test_phy_kernel_fuzz.py``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: CRC24A generator polynomial (x^24 + x^23 + x^18 + x^17 + x^14 + x^11 +
#: x^10 + x^7 + x^6 + x^5 + x^4 + x^3 + x + 1), 3GPP TS 38.212 §5.1.
CRC24A_POLY = 0x1864CFB

#: Number of CRC bits appended.
CRC24_BITS = 24


def _build_table() -> np.ndarray:
    """Byte-at-a-time CRC table, built with vectorized numpy bit ops.

    All 256 registers step through the 8 shift-and-conditional-XOR
    rounds together; identical to the scalar double loop it replaced.
    """
    registers = (np.arange(256, dtype=np.uint32)) << np.uint32(16)
    poly = np.uint32(CRC24A_POLY)
    for _ in range(8):
        registers = registers << np.uint32(1)
        registers ^= ((registers >> np.uint32(24)) & np.uint32(1)) * poly
    return registers & np.uint32(0xFFFFFF)


# Precomputed byte-at-a-time table for speed.
_TABLE = _build_table()

#: Per-position contribution tables, grown on demand: row ``p`` maps a
#: byte value to its contribution to the final CRC when it sits ``p``
#: bytes from the *end* of the message. Row 0 is ``_TABLE`` itself; row
#: ``p`` is row ``p - 1`` advanced by one zero byte. Deterministic by
#: construction, so fork workers inheriting a grown cache stay exact.
_POSITION_TABLES = _TABLE[np.newaxis, :].copy()


def _position_tables(length: int) -> np.ndarray:
    """At least ``length`` rows of per-position contribution tables."""
    global _POSITION_TABLES
    grown = _POSITION_TABLES
    if len(grown) < length:
        rows: List[np.ndarray] = [row for row in grown]
        current = grown[-1]
        while len(rows) < length:
            # advance-by-one-zero-byte, vectorized over all 256 entries.
            current = (
                (current << np.uint32(8)) ^ _TABLE[current >> np.uint32(16)]
            ) & np.uint32(0xFFFFFF)
            rows.append(current)
        _POSITION_TABLES = grown = np.stack(rows)
    return grown


def _packed_bytes(bits: np.ndarray) -> np.ndarray:
    """MSB-first bytes of a bit array, zero bits prepended up to a byte
    boundary (module docstring: leading zeros leave the CRC unchanged)."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = -len(bits) % 8
    if pad:
        bits = np.concatenate([np.zeros(pad, dtype=np.uint8), bits])
    return np.packbits(bits)


def crc24a(bits: np.ndarray) -> int:
    """Compute the CRC24A of a bit array (MSB-first bit order).

    One per-position table gather plus an XOR-reduction, at every
    length; the cost is one table lookup per message byte.
    """
    data = _packed_bytes(bits)
    tables = _position_tables(len(data))
    contributions = tables[np.arange(len(data) - 1, -1, -1), data]
    return int(np.bitwise_xor.reduce(contributions))


def crc24a_batch(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """CRC24A of every bit-array block, vectorized across the batch.

    Returns a ``uint32`` array of per-block CRCs, each identical to
    ``crc24a(block)``. Blocks of any mix of lengths are right-aligned in
    one byte matrix — the columns left of a shorter block are zero bytes,
    which contribute nothing — and share one gather + XOR-reduction.
    """
    packed = [_packed_bytes(block) for block in blocks]
    width = max((len(data) for data in packed), default=0)
    matrix = np.zeros((len(packed), width), dtype=np.uint8)
    for row, data in enumerate(packed):
        matrix[row, width - len(data):] = data
    # Column j of the right-aligned matrix sits width-1-j bytes from the end.
    tables = _position_tables(width)
    contributions = tables[np.arange(width - 1, -1, -1), matrix]
    return np.bitwise_xor.reduce(contributions, axis=1)


#: MSB-first bit positions of a 24-bit CRC, and their weights.
_CRC_SHIFTS = np.arange(CRC24_BITS - 1, -1, -1)
_CRC_WEIGHTS = 1 << _CRC_SHIFTS


def attach_crc_batch(payloads: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Append the 24 CRC bits (MSB first) to every payload, with one CRC
    kernel call for the whole batch."""
    crcs = crc24a_batch(payloads)
    all_crc_bits = (
        (crcs[:, np.newaxis] >> _CRC_SHIFTS[np.newaxis, :]) & 1
    ).astype(np.uint8)
    return [
        np.concatenate([np.asarray(payload, dtype=np.uint8), bits])
        for payload, bits in zip(payloads, all_crc_bits)
    ]


def check_crc(block_bits: np.ndarray) -> bool:
    """True if the trailing 24 bits are a valid CRC of the rest."""
    block_bits = np.asarray(block_bits, dtype=np.uint8)
    if len(block_bits) <= CRC24_BITS:
        return False
    received = int(block_bits[-CRC24_BITS:] @ _CRC_WEIGHTS)
    return crc24a(block_bits[:-CRC24_BITS]) == received
