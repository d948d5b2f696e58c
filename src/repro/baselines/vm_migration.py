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
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.sim.units import MS, SECOND, US, ns_to_ms


class TransportKind(enum.Enum):
    """Migration transport (Fig 3 compares the two)."""

    TCP = "TCP"
    RDMA = "RDMA"


@dataclass
class VmMigrationConfig:
    """Pre-copy model parameters (calibrated to the paper's testbed)."""

    #: Guest RAM of the FlexRAN VM.
    guest_ram_bytes: float = 16e9
    #: Page size used for dirty tracking.
    page_bytes: int = 4096
    #: Mean rate at which FlexRAN dirties memory while processing slots.
    dirty_rate_bytes_per_s: float = 2.8e9
    #: Hot working set that is re-dirtied every slot regardless of round
    #: length (IQ buffers, FEC scratch, DPDK rings).
    hot_set_bytes: float = 1.2e9
    #: Run-to-run variation of the hot set (lognormal sigma).
    hot_set_sigma: float = 0.18
    #: Effective migration bandwidth by transport. TCP on 100 GbE lands
    #: well below line rate (single-stream, copies through the kernel);
    #: RDMA gets closer but pays per-round registration overheads.
    tcp_bandwidth_bytes_per_s: float = 4.2e9
    rdma_bandwidth_bytes_per_s: float = 7.0e9
    #: Pre-copy gives up when a round fails to shrink by this factor.
    min_shrink_factor: float = 0.9
    #: Maximum pre-copy rounds before forcing stop-and-copy.
    max_rounds: int = 12
    #: Fixed stop-and-copy overhead (device state, CPU state, switchover).
    stop_copy_overhead_ns: int = 18 * MS
    #: Jitter of the overhead term.
    overhead_sigma_ns: int = 5 * MS
    #: Thread-interruption tolerance of the realtime PHY (§2.4: vRAN
    #: platforms must keep interruptions under ~10 µs).
    phy_jitter_tolerance_ns: int = 10 * US


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

    def __init__(
        self,
        config: Optional[VmMigrationConfig] = None,
        *,
        rng: np.random.Generator,
    ) -> None:
        self.config = config or VmMigrationConfig()
        self.rng = rng

    def _bandwidth(self, transport: TransportKind) -> float:
        cfg = self.config
        base = (
            cfg.tcp_bandwidth_bytes_per_s
            if transport is TransportKind.TCP
            else cfg.rdma_bandwidth_bytes_per_s
        )
        # Run-to-run variation (co-scheduled traffic, NUMA placement).
        return base * float(self.rng.uniform(0.85, 1.1))

    def migrate_once(self, transport: TransportKind) -> MigrationRun:
        """Simulate one live migration; returns its timing breakdown."""
        cfg = self.config
        bandwidth = self._bandwidth(transport)
        hot_set = float(
            cfg.hot_set_bytes * self.rng.lognormal(0.0, cfg.hot_set_sigma)
        )
        dirty_rate = cfg.dirty_rate_bytes_per_s * float(self.rng.uniform(0.9, 1.1))
        remaining = cfg.guest_ram_bytes
        total_time = 0.0
        total_bytes = 0.0
        rounds = 0
        previous = float("inf")
        while rounds < cfg.max_rounds:
            round_time = remaining / bandwidth
            total_time += round_time
            total_bytes += remaining
            rounds += 1
            # Pages dirtied during this round; the hot set is always
            # re-dirtied, and it caps how low pre-copy can drive the
            # residual (you cannot copy the hot set faster than FlexRAN
            # re-touches it).
            dirtied = min(dirty_rate * round_time, cfg.guest_ram_bytes)
            next_remaining = max(dirtied, hot_set)
            if next_remaining >= previous * cfg.min_shrink_factor:
                remaining = next_remaining
                break
            previous = next_remaining
            remaining = next_remaining
        # Stop-and-copy: the VM is paused while the residual set moves.
        overhead = max(
            0.0, float(self.rng.normal(cfg.stop_copy_overhead_ns, cfg.overhead_sigma_ns))
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
            phy_crashed=pause_ns > cfg.phy_jitter_tolerance_ns,
        )

    def run_campaign(
        self, transport: TransportKind, runs: int = 40
    ) -> List[MigrationRun]:
        """Repeat migrations, as the paper's 80-run campaign does."""
        return [self.migrate_once(transport) for _ in range(runs)]

    @staticmethod
    def pause_cdf(runs: List[MigrationRun]) -> List[tuple]:
        """(pause ms, cumulative fraction) points, sorted."""
        pauses = sorted(run.pause_time_ms for run in runs)
        count = len(pauses)
        return [(pause, (i + 1) / count) for i, pause in enumerate(pauses)]
