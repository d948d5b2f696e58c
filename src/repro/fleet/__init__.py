"""Metro-scale fleet composition: O(100) cells, N:M pooled standbys.

The single-cell deployments in :mod:`repro.cell` dedicate one warm
standby PHY to every cell (1:1 redundancy).  Real metro deployments
(§2.2, §8.6 of the paper; *Designing Reliable Virtualized RANs*,
Usubütün et al.) share a much smaller pool of standby capacity across
the whole fleet — N cells backed by M << N warm seats.  This package
composes that deployment shape out of the existing cell builder:

* :mod:`repro.fleet.composer` — instantiate N island cells on one shared
  event loop, validated against the P4 pipeline's 256-RU budget;
* :mod:`repro.fleet.pool` — the shared standby-capacity pool: promotion
  claims, exhaustion (surfaced as ``failovers_impossible``), and re-warm
  of consumed seats;
* :mod:`repro.fleet.population` — the aggregate UE population model:
  flow-level cohorts billed per cell per epoch (so per-slot work scales
  with cells, not users), with sampled *tracer* cells expanded to full
  per-UE fidelity;
* :mod:`repro.fleet.campaign` — the availability-vs-standby-count
  experiment over the chaos fault classes: every run a branch of one
  warm base per seed (:func:`repro.harness.branch_sweep`), gated by
  ``benchmarks/BENCH_fleet.json``.
"""

from repro.fleet.composer import (
    FleetBudgetError,
    FleetConfig,
    FleetHarness,
    build_fleet,
    fleet_cell_seed,
    fleet_digest,
    validate_fleet_budget,
)
from repro.fleet.pool import PoolGate, StandbyPool
from repro.fleet.population import FleetPopulation, UeCohort

__all__ = [
    "FleetBudgetError",
    "FleetConfig",
    "FleetHarness",
    "FleetPopulation",
    "PoolGate",
    "StandbyPool",
    "UeCohort",
    "build_fleet",
    "fleet_cell_seed",
    "fleet_digest",
    "validate_fleet_budget",
]
