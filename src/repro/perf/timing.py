"""Sanctioned wall-clock access for performance measurement.

Simulation logic must never read the host clock; the shard pool's
accounting, the soak report and the CLI's elapsed-time print obviously
must. This module is the single one in ``src/repro`` allowed to touch
:mod:`time`: it is the sanctioned module of slinglint's DET001 row, which
resolves names through imports and flags a host-clock read anywhere
else, so every measurement is forced through these helpers (one clock,
monotonic, ns resolution).
"""

from __future__ import annotations

import time


def wall_ns() -> int:
    """Monotonic host wall-clock in integer nanoseconds.

    The only wall-clock read in the package: the shard pool, the soak
    report and the CLI's user-facing elapsed-time output all call it.
    """
    return time.perf_counter_ns()
