"""Pre-copy VM live migration of a FlexRAN VM (paper §2.4, Fig 3).

The paper measured 80 live migrations of a (PCIe-less, already
charitable) FlexRAN VM under QEMU/KVM, over TCP and over RDMA on
100 GbE: the median VM pause was 244 ms — nearly three orders of
magnitude beyond the sub-10 µs interruption tolerance of a realtime
PHY — and FlexRAN crashed in **every** run.

This module models the pre-copy algorithm mechanistically:

1. The full guest RAM is copied while the VM runs (round 0).
2. Signal processing keeps dirtying pages at a high rate, so each
   subsequent round copies the pages dirtied during the previous round.
3. Rounds shrink only while bandwidth exceeds the dirty rate; when the
   remaining set stops shrinking (or a round cap is hit), the VM is
   **paused** and the residual dirty set plus device state is copied —
   that pause is the blackout Fig 3 plots.

FlexRAN's hot working set (IQ buffers, FEC scratch, DPDK rings) is
re-dirtied continuously, which bounds how small the residual set can
get — the mechanism behind the paper's observation that "signal
processing continuously generates dirty memory pages".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sim.units import MS, SECOND, US, ns_to_ms


class TransportKind(enum.Enum):
    """Migration transport (Fig 3 compares the two)."""

    TCP = "TCP"
    RDMA = "RDMA"


# Pre-copy model parameters (calibrated to the paper's testbed).

#: Guest RAM of the FlexRAN VM.
GUEST_RAM_BYTES = 16e9
#: Page size used for dirty tracking.
PAGE_BYTES = 4096
#: Mean rate at which FlexRAN dirties memory while processing slots.
DIRTY_RATE_BYTES_PER_S = 2.8e9
#: Hot working set that is re-dirtied every slot regardless of round
#: length (IQ buffers, FEC scratch, DPDK rings).
HOT_SET_BYTES = 1.2e9
#: Run-to-run variation of the hot set (lognormal sigma).
HOT_SET_SIGMA = 0.18
#: Effective migration bandwidth by transport. TCP on 100 GbE lands
#: well below line rate (single-stream, copies through the kernel);
#: RDMA gets closer but pays per-round registration overheads.
TCP_BANDWIDTH_BYTES_PER_S = 4.2e9
RDMA_BANDWIDTH_BYTES_PER_S = 7.0e9
#: Pre-copy gives up when a round fails to shrink by this factor.
MIN_SHRINK_FACTOR = 0.9
#: Maximum pre-copy rounds before forcing stop-and-copy.
MAX_ROUNDS = 12
#: Fixed stop-and-copy overhead (device state, CPU state, switchover).
STOP_COPY_OVERHEAD_NS = 18 * MS
#: Jitter of the overhead term.
OVERHEAD_SIGMA_NS = 5 * MS
#: Thread-interruption tolerance of the realtime PHY (§2.4: vRAN
#: platforms must keep interruptions under ~10 µs).
PHY_JITTER_TOLERANCE_NS = 10 * US


@dataclass
class MigrationRun:
    """Result of one simulated live migration."""

    transport: TransportKind
    pause_time_ns: int
    total_time_ns: int
    rounds: int
    bytes_transferred: float
    #: True when the pause exceeded the PHY's interruption tolerance —
    #: i.e. FlexRAN crashed (it did in all 80 of the paper's runs).
    phy_crashed: bool

    @property
    def pause_time_ms(self) -> float:
        return ns_to_ms(self.pause_time_ns)


class PrecopyMigrationModel:
    """Monte-Carlo pre-copy migration simulator."""

    def __init__(self, *, rng: np.random.Generator) -> None:
        self.rng = rng

    def _bandwidth(self, transport: TransportKind) -> float:
        base = (
            TCP_BANDWIDTH_BYTES_PER_S
            if transport is TransportKind.TCP
            else RDMA_BANDWIDTH_BYTES_PER_S
        )
        # Run-to-run variation (co-scheduled traffic, NUMA placement).
        return base * float(self.rng.uniform(0.85, 1.1))

    def migrate_once(self, transport: TransportKind) -> MigrationRun:
        """Simulate one live migration; returns its timing breakdown."""
        bandwidth = self._bandwidth(transport)
        hot_set = float(HOT_SET_BYTES * self.rng.lognormal(0.0, HOT_SET_SIGMA))
        dirty_rate = DIRTY_RATE_BYTES_PER_S * float(self.rng.uniform(0.9, 1.1))
        remaining = GUEST_RAM_BYTES
        total_time = 0.0
        total_bytes = 0.0
        rounds = 0
        previous = float("inf")
        while rounds < MAX_ROUNDS:
            round_time = remaining / bandwidth
            total_time += round_time
            total_bytes += remaining
            rounds += 1
            # Pages dirtied during this round; the hot set is always
            # re-dirtied, and it caps how low pre-copy can drive the
            # residual (you cannot copy the hot set faster than FlexRAN
            # re-touches it).
            dirtied = min(dirty_rate * round_time, GUEST_RAM_BYTES)
            next_remaining = max(dirtied, hot_set)
            if next_remaining >= previous * MIN_SHRINK_FACTOR:
                remaining = next_remaining
                break
            previous = next_remaining
            remaining = next_remaining
        # Stop-and-copy: the VM is paused while the residual set moves.
        overhead = max(
            0.0, float(self.rng.normal(STOP_COPY_OVERHEAD_NS, OVERHEAD_SIGMA_NS))
        )
        pause_ns = int(remaining / bandwidth * SECOND + overhead)
        total_bytes += remaining
        total_ns = int(total_time * SECOND) + pause_ns
        return MigrationRun(
            transport=transport,
            pause_time_ns=pause_ns,
            total_time_ns=total_ns,
            rounds=rounds,
            bytes_transferred=total_bytes,
            phy_crashed=pause_ns > PHY_JITTER_TOLERANCE_NS,
        )

    def run_campaign(
        self, transport: TransportKind, runs: int
    ) -> List[MigrationRun]:
        """Repeat migrations, as the paper's 80-run campaign does."""
        return [self.migrate_once(transport) for _ in range(runs)]
