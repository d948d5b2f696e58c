"""Scenario forking: branch one warm checkpoint into many chaos futures.

Every chaos scenario spends its first ~540 ms identically: build the
cell, attach the UE, start the probe, idle until the fault window. A
cold sweep pays that warmup once per (scenario, seed); a *forked* sweep
pays it once per **fork base** — a warm, unarmed
:class:`~repro.faults.campaign.ProbeHarness` checkpointed just before
the earliest fault of the scenarios it serves — and then branches the
checkpoint into every scenario by restoring, arming the plan, and
running the remainder.

Digest-exactness is not approximate: link impairments draw RNG only
inside their spec windows (fixed per-frame draw order), process/clock
transitions are scheduled at absolute times, and registry streams are
seeded by name alone — so arming a plan at the fork point consumes
exactly the draws an at-build arm would have, and every forked branch's
canonical trace digest equals the cold run's. ``--check`` and the
tier-1 tests assert this against ``BENCH_chaos.json``.

Digests and verdicts, not the whole record: a branch attaches its link
impairments at the fork point, a cold run at build time, and
``ImpairmentStats.frames_seen`` (and, on an impaired switch-egress link,
one deferred-send event per frame) counts from attachment — so a
link-fault branch's ``counters`` differ from the cold run's while its
digest does not.

Fork bases are keyed by ``(seed, num_phy_servers, fork_ns)``: most
scenarios share one base (fault at :data:`~repro.faults.scenarios.FAULT_AT_NS`),
``clock_drift`` needs an earlier branch point (its clock fault leads
the crash by 100 ms), and ``no_secondary`` runs a one-PHY cell.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.snapshot import Checkpoint
from repro.faults.campaign import (
    CampaignReport,
    ProbeHarness,
    arm_plan,
    build_probe_harness,
    drive_to,
    judge_execution,
)
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import ChaosScenario, RUN_END_NS
from repro.harness import fan_out
from repro.parallel.pool import run_shards
from repro.sim.units import MS

#: Branch this long before a scenario's earliest fault: late enough to
#: amortize warmup, early enough that every plan-scheduled transition
#: is still in the future when the restored harness arms it.
FORK_MARGIN_NS = 10 * MS

#: ``(seed, num_phy_servers, fork_ns)`` — one warm base per key.
ForkKey = Tuple[int, int, int]


def earliest_fault_ns(plan: FaultPlan) -> int:
    """The first absolute time at which a plan touches the cell."""
    times = (
        [spec.at_ns for spec in plan.process_faults]
        + [spec.start_ns for spec in plan.link_faults]
        + [spec.at_ns for spec in plan.clock_faults]
    )
    if not times:
        raise ValueError(f"plan {plan.name!r} has no faults to fork before")
    return min(times)


def fork_key(scenario: ChaosScenario, seed: int) -> ForkKey:
    """The warm-base key serving one (scenario, seed) branch."""
    return (
        seed,
        scenario.num_phy_servers,
        earliest_fault_ns(scenario.plan) - FORK_MARGIN_NS,
    )


def build_fork_base(key: ForkKey) -> Checkpoint:
    """Build and checkpoint one warm, unarmed harness at its fork point."""
    seed, num_phy_servers, fork_ns = key
    harness = build_probe_harness(seed, num_phy_servers=num_phy_servers)
    drive_to(harness, fork_ns)
    return Checkpoint.capture(
        harness, label=f"fork-base seed={seed} phys={num_phy_servers} t={fork_ns}"
    )


def run_forked_scenario(
    scenario: ChaosScenario, seed: int, checkpoint: Checkpoint
):
    """Branch one checkpoint into one scenario and judge the result."""
    harness = checkpoint.restore()
    assert isinstance(harness, ProbeHarness)
    arm_plan(harness, scenario.plan)
    drive_to(harness, RUN_END_NS)
    return judge_execution(scenario, seed, harness)


def ensure_fork_bases(
    scenarios: Sequence[ChaosScenario],
    seeds: Sequence[int],
    checkpoint_dir: Path,
    jobs: int = 1,
) -> Tuple[Dict[ForkKey, Path], int]:
    """Build every warm base the matrix needs that is not already on disk.

    Bases are persistent, deterministic artifacts — the same key always
    produces the same checkpoint — so a base written by an earlier
    sweep (or by the soak's periodic checkpointing workflow) is simply
    reused; this is where the forked sweep's repeated-use speedup comes
    from. Missing bases build as independent shards on the same pool.
    A base written by a different source tree is neither reused nor
    silently replaced: loading it raises ``SnapshotError``.

    Returns ``(key -> checkpoint path, number built this call)``.
    """
    from repro.parallel.workers import build_fork_base_shard

    checkpoint_dir = Path(checkpoint_dir)
    base_paths: Dict[ForkKey, Path] = {}
    for scenario in scenarios:
        for seed in seeds:
            key = fork_key(scenario, seed)
            if key not in base_paths:
                base_paths[key] = checkpoint_dir / (
                    f"base_s{key[0]}_p{key[1]}_t{key[2]}.ckpt"
                )
    missing = []
    for key, path in sorted(base_paths.items()):
        if path.exists():
            Checkpoint.load(path)
        else:
            missing.append((key, path))
    if missing:
        run_shards(
            build_fork_base_shard,
            [(key, (*key, str(path))) for key, path in missing],
            jobs=jobs,
        )
    return base_paths, len(missing)


def forked_sweep(
    scenarios: Sequence[ChaosScenario],
    seeds: Sequence[int],
    checkpoint_dir: Path,
    jobs: int = 1,
    progress=None,
) -> Tuple[CampaignReport, Dict[str, object]]:
    """Run a (scenario x seed) matrix by forking warm checkpoints.

    Warm bases found under ``checkpoint_dir`` are reused; missing ones
    are built as independent shards first (:func:`ensure_fork_bases`).
    The branches then run through
    :func:`~repro.parallel.pool.run_shards` in canonical (scenario,
    seed) order — same merge/stream contract as the cold campaign, so
    the reports are comparable entry for entry.

    Returns the campaign report plus a fork accounting block (bases
    built vs reused, branches run, base reuse factor).
    """
    from repro.parallel.workers import run_forked_scenario_shard

    checkpoint_dir = Path(checkpoint_dir)
    pairs = [(scenario, seed) for scenario in scenarios for seed in seeds]
    base_paths, bases_built = ensure_fork_bases(
        scenarios, seeds, checkpoint_dir, jobs=jobs
    )

    shards = [
        (
            (scenario.name, seed),
            (scenario, seed, str(base_paths[fork_key(scenario, seed)])),
        )
        for scenario, seed in pairs
    ]
    results, execution = fan_out(run_forked_scenario_shard, shards, jobs, progress)
    report = CampaignReport(runs=list(results.values()), execution=execution)
    fork_info = {
        "bases_total": len(base_paths),
        "bases_built": bases_built,
        "bases_reused": len(base_paths) - bases_built,
        "branches_run": len(pairs),
        "base_reuse": round(len(pairs) / len(base_paths), 2) if base_paths else 0,
        "fork_margin_ns": FORK_MARGIN_NS,
    }
    return report, fork_info
