"""Exact-match match-action tables.

These model P4 tables that can only be written from the switch control
plane. Lookups (data-plane reads) are instantaneous in simulated time;
writes are installed at bring-up, long before realtime traffic flows
(why a rule update cannot trigger a migration: DESIGN §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional


@dataclass
class TableEntry:
    """One installed rule: an exact-match key mapped to an action value."""

    key: Hashable
    value: Any
    installed_at: int = 0


class MatchActionTable:
    """An exact-match table with a fixed capacity.

    Capacity models the ASIC's SRAM allocation for the table; exceeding it
    raises, mirroring a compile-time resource failure.
    """

    def __init__(self, name: str, capacity: int, key_bits: int, value_bits: int) -> None:
        self.name = name
        self.capacity = capacity
        self.key_bits = key_bits
        self.value_bits = value_bits
        self._entries: Dict[Hashable, TableEntry] = {}
        self.lookups = 0
        self.hits = 0

    def install(self, key: Hashable, value: Any, now: int = 0) -> None:
        """Insert or overwrite a rule (control-plane operation)."""
        if key not in self._entries and len(self._entries) >= self.capacity:
            raise RuntimeError(
                f"table {self.name} full ({self.capacity} entries)"
            )
        self._entries[key] = TableEntry(key=key, value=value, installed_at=now)

    def remove(self, key: Hashable) -> None:
        """Delete a rule; missing keys are ignored."""
        self._entries.pop(key, None)

    def lookup(self, key: Hashable) -> Optional[Any]:
        """Data-plane exact-match lookup; returns the action value or None."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.hits += 1
        return entry.value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Table {self.name} {len(self._entries)}/{self.capacity}>"
