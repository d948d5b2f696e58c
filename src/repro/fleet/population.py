"""Aggregate UE population model: flow-level cohorts + tracer UEs.

Simulating ~10⁶ users at per-UE PHY/RLC/TCP fidelity is six orders of
magnitude more event work than the fleet needs to answer its question
(how much user-weighted downtime does a given standby-pool size cost?).
The population model therefore splits the user base:

* **Cohorts** — each cell carries flow-level user cohorts whose
  offered/served byte accounting advances once per *epoch* (default
  10 ms) in a single event per fleet, so per-slot work scales with the
  number of cells, not the number of users.
* **Tracer cells** — a small sample of cells (drawn from the reserved
  ``fleet.tracers`` RNG stream) is built with full per-UE fidelity;
  their canonical traces are byte-identical to a standalone single-cell
  run of the same config (pinned by ``tests/test_fleet.py``), which is
  what licenses trusting the cohort approximation for everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS

#: Cohort accounting period.
EPOCH_NS = 10 * MS

#: Per-user downlink demand per cohort class, bytes per 10 ms epoch
#: (~1.2 Mb/s video + ~80 kb/s interactive — the §8 workload mix).
COHORT_CLASSES: Tuple[Tuple[str, int], ...] = (
    ("video", 1500),
    ("interactive", 100),
)


@dataclass
class UeCohort:
    """One cell's flow-level slice of the user population."""

    cell_index: int
    name: str
    users: int
    bytes_per_user_epoch: int
    offered_bytes: int = 0
    served_bytes: int = 0
    lost_bytes: int = 0


@dataclass
class FleetPopulation:
    """Fleet-wide cohort accounting, advanced one event per epoch."""

    sim: Simulator
    trace: TraceRecorder
    num_cells: int
    users_per_cell: int
    cohorts: List[UeCohort] = field(default_factory=list)
    cell_down: List[bool] = field(default_factory=list)
    epochs: int = 0
    #: Σ users × epochs spent degraded (the user-weighted downtime the
    #: availability curve is made of).
    degraded_user_epochs: int = 0
    served_user_epochs: int = 0

    def __post_init__(self) -> None:
        if not self.cohorts:
            self.cohorts = self._build_cohorts()
        if not self.cell_down:
            self.cell_down = [False] * self.num_cells

    def _build_cohorts(self) -> List[UeCohort]:
        cohorts: List[UeCohort] = []
        for cell_index in range(self.num_cells):
            remaining = self.users_per_cell
            for position, (name, demand) in enumerate(COHORT_CLASSES):
                last = position == len(COHORT_CLASSES) - 1
                users = remaining if last else self.users_per_cell // 2
                remaining -= users
                cohorts.append(
                    UeCohort(
                        cell_index=cell_index,
                        name=name,
                        users=users,
                        bytes_per_user_epoch=demand,
                    )
                )
        return cohorts

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule_periodic(EPOCH_NS, self._epoch_tick)

    def _epoch_tick(self) -> None:
        """Advance every cohort one epoch — one event for the whole fleet."""
        self.epochs += 1
        served_users = 0
        degraded_users = 0
        for cohort in self.cohorts:
            offered = cohort.users * cohort.bytes_per_user_epoch
            cohort.offered_bytes += offered
            if self.cell_down[cohort.cell_index]:
                cohort.lost_bytes += offered
                degraded_users += cohort.users
            else:
                cohort.served_bytes += offered
                served_users += cohort.users
        self.served_user_epochs += served_users
        self.degraded_user_epochs += degraded_users
        self.trace.record(
            self.sim.now,
            "fleet.pop.epoch",
            epoch=self.epochs,
            served_users=served_users,
            degraded_users=degraded_users,
        )

    # ------------------------------------------------------------------
    # Degradation hooks (driven by the pool gate and failover completion)
    # ------------------------------------------------------------------
    def mark_down(self, cell_index: int) -> None:
        self.cell_down[cell_index] = True

    def mark_up(self, cell_index: int) -> None:
        self.cell_down[cell_index] = False

    def on_pool_decision(self, cell_index: int, granted: bool) -> None:
        """Gate observer: either way the cell is degraded *now* — a grant
        recovers at failover commit (``FleetFailoverHook``), a denial
        stays down until an operator intervenes."""
        self.mark_down(cell_index)

    def total_users(self) -> int:
        return sum(c.users for c in self.cohorts)

    def summary(self) -> dict:
        return {
            "epochs": self.epochs,
            "total_users": self.total_users(),
            "served_user_epochs": self.served_user_epochs,
            "degraded_user_epochs": self.degraded_user_epochs,
            "offered_bytes": sum(c.offered_bytes for c in self.cohorts),
            "served_bytes": sum(c.served_bytes for c in self.cohorts),
            "lost_bytes": sum(c.lost_bytes for c in self.cohorts),
        }


class FleetFailoverHook:
    """Per-cell ``L2SideOrion.on_failover`` adapter (closure-free)."""

    __slots__ = ("population", "cell_index")

    def __init__(self, population: FleetPopulation, cell_index: int) -> None:
        self.population = population
        self.cell_index = cell_index

    def __call__(self, cell_id: int, dest_phy: int) -> None:
        self.population.mark_up(self.cell_index)


def sample_tracer_cells(
    registry: RngRegistry, num_cells: int, count: int
) -> Tuple[int, ...]:
    """Sample which cells get full per-UE fidelity, from ``fleet.tracers``.

    The stream is reserved to the fleet subsystem (a strict namespace
    that ``RngRegistry.stream`` refuses to any other subsystem), so
    tracer selection never perturbs any cell-local stream.
    """
    if count <= 0:
        return ()
    if count >= num_cells:
        return tuple(range(num_cells))
    stream = registry.stream("fleet.tracers")
    picks = stream.choice(num_cells, size=count, replace=False)
    return tuple(sorted(int(i) for i in picks))
