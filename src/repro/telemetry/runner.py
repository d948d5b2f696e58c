"""Telemetry CLI: ``python -m repro telemetry``.

Runs the chaos scenarios under an
:class:`~repro.telemetry.probe.EventCountProbe`, reads the finished
harness with :func:`~repro.telemetry.collect.collect`, and reports, per
``(scenario, seed)`` run:

* the canonical trace **digest**, compared against the recorded chaos
  baseline (``benchmarks/BENCH_chaos.json``): the probed, read run must
  produce the digest the plain chaos campaign recorded, which is the
  digest-neutrality contract made mechanical;
* the reconstructed :class:`~repro.telemetry.timeline.FailoverTimeline`
  (failure → detect → notify → commit → first good delivery, plus the
  probe-gap downtime that exactly matches the chaos invariant bound);
* the **metrics snapshot**: every non-zero counter of every layer, the
  per-subsystem event counts, the detection-latency histogram.

Usage::

    python -m repro telemetry                   # full 13x3 matrix
    python -m repro telemetry --out benchmarks/BENCH_telemetry.json   # re-record
    python -m repro telemetry --quick           # 3-scenario x seed-1 smoke
    python -m repro telemetry --check --quick   # the tier-1 gate
    python -m repro telemetry --scenario crash --seeds 1 2 --jobs 2
    python -m repro telemetry --format csv      # timeline table

Flags, baseline handling and exit codes are the shared harness's
(:mod:`repro.harness`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence

from repro import harness
from repro.faults.campaign import (
    CHAOS,
    build_probe_harness,
    drive_to,
    judge_execution,
    recorded_digests,
    scenario_arguments,
    selected_matrix,
)
from repro.faults.scenarios import (
    MEASURE_END_NS,
    MEASURE_START_NS,
    RUN_END_NS,
    scenario_by_name,
)
from repro.parallel.workers import run_telemetry_shard
from repro.telemetry.collect import collect
from repro.telemetry.metrics import merge_snapshots, snapshot
from repro.telemetry.probe import EVENT_COUNTER_PREFIX, EventCountProbe
from repro.telemetry.timeline import FailoverTimeline

#: Reduced matrix for ``--quick``: one process-fault failover, one
#: command-loss failover, one degraded-mode scenario — each exercising a
#: different timeline shape — at a single seed.
QUICK_SCENARIOS = ("cmd_drop", "crash", "no_secondary")

#: Timeline columns for the CSV export (and the text row summary).
CSV_COLUMNS = (
    "scenario",
    "seed",
    "fault_ns",
    "detected_ns",
    "notified_ns",
    "committed_ns",
    "first_good_ns",
    "detect_latency_ns",
    "notify_latency_ns",
    "commit_latency_ns",
    "resume_latency_ns",
    "downtime_ns",
)


def run_instrumented_scenario(
    scenario_name: str, seed: int, recorded_digest: Optional[str] = None
) -> Dict[str, Any]:
    """One chaos run, probed and read; returns a JSON-ready dict.

    The harness is the plain chaos one — nothing is switched on before
    it is built — driven under the engine probe and read once it has
    finished. ``digest_neutral`` says whether the run reproduced
    ``recorded_digest`` — the digest the unprobed chaos campaign
    recorded (None when there is no recording to compare with).
    """
    scenario = scenario_by_name()[scenario_name]
    probed = build_probe_harness(
        seed, num_phy_servers=scenario.num_phy_servers, plan=scenario.plan
    )
    with EventCountProbe() as probe:
        drive_to(probed, RUN_END_NS)
    cell = probed.cell
    run = judge_execution(scenario, seed, cell, probed.injector)
    timeline = FailoverTimeline.from_events(
        cell.trace.canonical_events(),
        window_start_ns=MEASURE_START_NS,
        window_end_ns=MEASURE_END_NS,
    )
    counters = collect(probed)
    for bucket, count in probe.counts.items():
        counters[EVENT_COUNTER_PREFIX + bucket] = count
    # §5.2 bounds detection − last heartbeat by T plus one tick.
    latencies = [
        detected_at - last_heartbeat
        for _, detected_at, last_heartbeat in cell.middlebox.detector.detections
        if last_heartbeat is not None
    ]
    return {
        "scenario": scenario_name,
        "seed": seed,
        "digest": run.digest,
        "invariants_passed": run.passed,
        "timeline": timeline.as_dict(),
        "metrics": snapshot(
            counters, {"core.detector.detection_latency_ns": latencies}
        ),
        "digest_neutral": (
            None if recorded_digest is None else run.digest == recorded_digest
        ),
    }


def _shards(args: argparse.Namespace) -> harness.Shards:
    """Canonical ``(scenario, seed)`` shards, each carrying the digest
    ``BENCH_chaos.json`` recorded for it, unprobed."""
    scenarios, seeds = selected_matrix(args, QUICK_SCENARIOS)
    reference = recorded_digests()
    keys = [(scenario.name, seed) for scenario in scenarios for seed in seeds]
    return [(key, (*key, reference.get(key))) for key in keys]


def _report(results: Dict[tuple, Dict[str, Any]], execution: dict) -> Dict[str, Any]:
    """Per-shard snapshots come back independent and merge here in
    canonical key order, so the merged snapshot is identical at any
    ``jobs`` value."""
    runs = list(results.values())
    return {
        "benchmark": "telemetry",
        "scenarios": sorted({run["scenario"] for run in runs}),
        "seeds": sorted({run["seed"] for run in runs}),
        "runs_total": len(runs),
        "neutrality_failures": sum(
            1 for run in runs if run["digest_neutral"] is False
        ),
        "passed": all(run["digest_neutral"] is not False for run in runs),
        "runs": runs,
        "merged_metrics": merge_snapshots([run["metrics"] for run in runs]),
        "execution": execution,
    }


# ----------------------------------------------------------------------
# CLI: the ``telemetry`` verb's declaration (the harness does the rest)
# ----------------------------------------------------------------------
def _format_run(run: Dict[str, Any]) -> str:
    timeline = run.get("timeline") or {}

    def us(key: str) -> str:
        value = timeline.get(key)
        return "-" if value is None else f"{value / 1e3:.1f}"

    downtime = timeline.get("downtime_ns")
    downtime_ms = "-" if downtime is None else f"{downtime / 1e6:.2f}"
    neutral = {True: "neutral", False: "DIGEST-CHANGED", None: "no-ref"}[
        run["digest_neutral"]
    ]
    return (
        f"{run['scenario']:<18} seed={run['seed']:<3} {neutral:<14} "
        f"downtime_ms={downtime_ms:>7} detect_us={us('detect_latency_ns'):>7} "
        f"commit_us={us('commit_latency_ns'):>7} "
        f"resume_us={us('resume_latency_ns'):>7}"
    )


def _format_csv(report: Dict[str, Any]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for run in report["runs"]:
        timeline = run.get("timeline") or {}
        row = {**timeline, "scenario": run["scenario"], "seed": run["seed"]}
        lines.append(
            ",".join(
                "" if row.get(column) is None else str(row[column])
                for column in CSV_COLUMNS
            )
        )
    return "\n".join(lines)


TELEMETRY = harness.Verb(
    name="telemetry",
    description="Instrumented failover runs: metrics, timelines, and "
    "the digest-neutrality gate.",
    exact_fields=("digest", "invariants_passed", "timeline", "metrics"),
    arguments=scenario_arguments,
    entries=harness.runs_by("scenario", "seed"),
    summary=lambda report: (
        f"{report['runs_total']} runs, "
        f"{report['neutrality_failures']} digest-neutrality failures"
    ),
    shards=_shards,
    worker=run_telemetry_shard,
    format_run=_format_run,
    report=_report,
    catalog=CHAOS.catalog,
    formats={"csv": _format_csv},
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main(TELEMETRY, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
