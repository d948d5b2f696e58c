"""Fig 3 — VM pause time while pre-copy-migrating FlexRAN.

Paper result: over 80 live migrations (TCP and RDMA-accelerated), the
median VM pause is 244 ms — far beyond the ~10 µs interruption budget of
a realtime PHY — and FlexRAN crashes in all runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.baselines.vm_migration import (
    MigrationRun,
    PrecopyMigrationModel,
    TransportKind,
)


@dataclass
class Fig3Result:
    """Pause-time distributions for both transports."""

    tcp_runs: List[MigrationRun]
    rdma_runs: List[MigrationRun]

    @property
    def all_runs(self) -> List[MigrationRun]:
        return self.tcp_runs + self.rdma_runs

    def median_pause_ms(self) -> float:
        return float(np.median([r.pause_time_ms for r in self.all_runs]))

    def crash_fraction(self) -> float:
        runs = self.all_runs
        return sum(r.phy_crashed for r in runs) / len(runs)


def run(runs_per_transport: int = 40, seed: int = 0) -> Fig3Result:
    """Reproduce the 80-migration campaign (40 per transport)."""
    model = PrecopyMigrationModel(rng=np.random.default_rng(seed))
    return Fig3Result(
        tcp_runs=model.run_campaign(TransportKind.TCP, runs_per_transport),
        rdma_runs=model.run_campaign(TransportKind.RDMA, runs_per_transport),
    )


def summarize(result: Fig3Result) -> str:
    lines = ["Fig 3 — VM pause time migrating FlexRAN (pre-copy)"]
    for name, runs in (("TCP", result.tcp_runs), ("RDMA", result.rdma_runs)):
        pauses = np.array([r.pause_time_ms for r in runs])
        lines.append(
            f"  {name:4s}: median {np.median(pauses):6.0f} ms   "
            f"p10 {np.percentile(pauses, 10):6.0f} ms   "
            f"p90 {np.percentile(pauses, 90):6.0f} ms"
        )
    lines.append(
        f"  overall median {result.median_pause_ms():.0f} ms (paper: 244 ms); "
        f"FlexRAN crashed in {result.crash_fraction() * 100:.0f}% of runs "
        f"(paper: 100%)"
    )
    return "\n".join(lines)
