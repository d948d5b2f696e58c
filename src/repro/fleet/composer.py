"""Fleet composer: N island cells on one event loop, pool-gated failover.

Each fleet cell is built by the standard single-cell builder
(:func:`repro.cell.deployment.build_slingshot_cell`) with its own RNG
registry, trace recorder, switch, middlebox, RU, and L2 — an *island*
sharing only the simulator's event loop with its siblings.  Because no
state crosses island boundaries and canonical traces factor out
same-timestamp serialization, every cell's trace is byte-identical to a
standalone run of the same config — the property the tracer-UE
differential test pins.

The composer's own additions sit beside the islands: the shared
:class:`~repro.fleet.pool.StandbyPool` gating failover promotions, and
the :class:`~repro.fleet.population.FleetPopulation` cohort model
advancing the ~10⁶-user byte accounting one event per epoch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cell.config import CellConfig
from repro.cell.deployment import SlingshotCell, build_slingshot_cell
from repro.core.fh_middlebox import MAX_PHYS, MAX_RUS
from repro.fleet.phy_backend import FleetPhyBackend
from repro.fleet.pool import PoolGate, StandbyPool
from repro.fleet.population import (
    FleetFailoverHook,
    FleetPopulation,
    sample_tracer_cells,
)
from repro.net.p4.resources import PipelineResourceModel, ResourceUsage
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

#: Deterministic per-cell seed derivation: cells of one fleet draw from
#: disjoint seed points, and cell ``i`` of fleet seed ``s`` always gets
#: the same value (tests rebuild standalone cells from it).
FLEET_CELL_SEED_STRIDE = 10_007

#: PHY servers per island cell: its primary and its hot standby.
PHYS_PER_CELL = 2


def fleet_cell_seed(fleet_seed: int, cell_index: int) -> int:
    return fleet_seed + FLEET_CELL_SEED_STRIDE * (cell_index + 1)


class FleetBudgetError(ValueError):
    """The requested fleet exceeds the P4 pipeline's §8.6 envelope."""


def validate_fleet_budget(num_cells: int) -> ResourceUsage:
    """Check a fleet against the switch's 256-RU/256-PHY directories and
    the Tofino pipeline resource model; raise with every overflow listed."""
    num_rus = num_cells
    num_phys = num_cells * PHYS_PER_CELL
    problems: List[str] = []
    if num_rus > MAX_RUS:
        problems.append(f"{num_rus} RUs > ru_id_directory capacity {MAX_RUS}")
    if num_phys > MAX_PHYS:
        problems.append(
            f"{num_phys} PHYs > phy_id_directory capacity {MAX_PHYS}"
        )
    usage = PipelineResourceModel().usage(
        min(num_rus, MAX_RUS), min(num_phys, MAX_PHYS)
    )
    for resource in sorted(usage.fraction):
        if usage.fraction[resource] >= 1.0:
            problems.append(
                f"pipeline resource {resource} at "
                f"{usage.percent(resource):.1f}% of the Tofino budget"
            )
    if problems:
        raise FleetBudgetError(
            f"fleet of {num_cells} cells x {PHYS_PER_CELL} PHYs does not fit "
            f"the P4 envelope: " + "; ".join(problems)
        )
    return usage


@dataclass
class FleetConfig:
    """Shape of one composed fleet."""

    seed: int = 0
    num_cells: int = 12
    #: M in N:M — warm standby capacity tokens shared by all cells.
    standby_pool_size: int = 2
    #: Aggregate (cohort-modelled) users per cell.
    users_per_cell: int = 10_000
    #: Cells expanded to full per-UE fidelity (sampled from
    #: ``fleet.tracers``), each with the single-cell default UEs.
    tracer_cells: int = 0
    tie_shuffle_seed: Optional[int] = None

    def cell_config(self, cell_index: int, tracer: bool) -> CellConfig:
        """The standalone-equivalent config of one island cell."""
        seed = fleet_cell_seed(self.seed, cell_index)
        if tracer:
            return CellConfig(seed=seed)
        return CellConfig(seed=seed, ue_profiles=[])


@dataclass
class FleetHarness:
    """One composed fleet: islands + pool + population on one sim."""

    config: FleetConfig
    sim: Simulator
    #: Fleet-level recorder: pool and population events only — island
    #: cells keep their own recorders (see :func:`fleet_digest`).
    trace: TraceRecorder
    rng: RngRegistry
    pool: StandbyPool
    population: FleetPopulation
    #: The encode backend shared by every PHY of the fleet.
    phy_backend: FleetPhyBackend
    cells: List[SlingshotCell]
    tracer_indices: Tuple[int, ...] = ()
    gates: List[PoolGate] = field(default_factory=list)

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def run_until(self, time_ns: int) -> None:
        self.sim.run_until(time_ns)


def build_fleet(
    config: FleetConfig, sim: Optional[Simulator] = None
) -> FleetHarness:
    """Compose, validate, and start a fleet (built at sim time zero).

    ``sim`` lets a caller supply the event engine (the engine
    differential tests run the same fleet on the old engine kept in
    ``tests/engine_legacy.py``); default is a fresh :class:`Simulator`.

    Every PHY of every island shares one
    :class:`~repro.fleet.phy_backend.FleetPhyBackend`: a fleet always
    has peers to batch an encode with. A standalone cell has none, so
    its PHYs keep the direct ``codec.encode_blocks`` call.
    """
    validate_fleet_budget(config.num_cells)
    if sim is None:
        sim = Simulator(tie_shuffle_seed=config.tie_shuffle_seed)
    trace = TraceRecorder()
    rng = RngRegistry(seed=config.seed)
    tracer_indices = sample_tracer_cells(
        rng, config.num_cells, config.tracer_cells
    )
    pool = StandbyPool(sim, size=config.standby_pool_size, trace=trace)
    population = FleetPopulation(
        sim=sim,
        trace=trace,
        num_cells=config.num_cells,
        users_per_cell=config.users_per_cell,
    )
    backend = FleetPhyBackend()
    cells: List[SlingshotCell] = []
    gates: List[PoolGate] = []
    for cell_index in range(config.num_cells):
        cell_cfg = config.cell_config(
            cell_index, tracer=cell_index in tracer_indices
        )
        cell = build_slingshot_cell(cell_cfg, sim=sim)
        gate = PoolGate(pool, cell_index, on_decision=population.on_pool_decision)
        cell.l2_orion.standby_gate = gate
        cell.l2_orion.on_failover = FleetFailoverHook(population, cell_index)
        for server in cell.phy_servers:
            server.phy.phy_backend = backend
        cells.append(cell)
        gates.append(gate)
    population.start()
    return FleetHarness(
        config=config,
        sim=sim,
        trace=trace,
        rng=rng,
        pool=pool,
        population=population,
        phy_backend=backend,
        cells=cells,
        tracer_indices=tracer_indices,
        gates=gates,
    )


def fleet_digest(harness: FleetHarness) -> str:
    """Canonical fleet digest: fold of the fleet trace and every island's
    trace, in cell order — bit-identical iff every component run is."""
    hasher = hashlib.sha256()
    hasher.update(harness.trace.digest().encode("ascii"))
    for cell in harness.cells:
        hasher.update(cell.trace.digest().encode("ascii"))
    return hasher.hexdigest()
