"""P4 register arrays.

Registers are the only switch state writable from the data plane at line
rate, which is what lets Slingshot (a) flip the RU-to-PHY mapping exactly
when the first fronthaul packet of the migration slot arrives and (b) run
the failure-detector counters at per-packet granularity.

The paper's indirection trick (§5.1): rather than a MAC-to-MAC hash table
(which data planes cannot update), operators assign small integer RU/PHY
IDs at installation time, and the RU-to-PHY mapping is a plain register
array indexed by RU ID — collision-free by construction.
"""

from __future__ import annotations

from typing import List


class RegisterArray:
    """A fixed-size array of unsigned integer registers."""

    def __init__(self, name: str, size: int, width_bits: int) -> None:
        if size <= 0:
            raise ValueError("register array size must be positive")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._cells: List[int] = [0] * size
        self.reads = 0
        self.writes = 0

    def _check(self, index: int) -> None:
        """Raise for an out-of-range index (accessors test the bound inline)."""
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")

    def read(self, index: int) -> int:
        """Data-plane read."""
        if not 0 <= index < self.size:
            self._check(index)
        self.reads += 1
        return self._cells[index]

    def peek(self, index: int) -> int:
        """Control-plane read: the value, counted in no statistic."""
        if not 0 <= index < self.size:
            self._check(index)
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        """Data-plane write; values wrap at the register width."""
        if not 0 <= index < self.size:
            self._check(index)
        self.writes += 1
        self._cells[index] = value & self._mask

    def increment(self, index: int, amount: int) -> int:
        """Saturating increment (the detector counters saturate, not wrap)."""
        if not 0 <= index < self.size:
            self._check(index)
        self.writes += 1
        value = min(self._cells[index] + amount, self._mask)
        self._cells[index] = value
        return value

    def __len__(self) -> int:
        return self.size
