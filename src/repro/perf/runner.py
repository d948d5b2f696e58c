"""Perf CLI: ``python -m repro perf``.

Usage::

    python -m repro perf                    # run the catalog in both modes
    python -m repro perf --out benchmarks/BENCH_perf.json   # re-record
    python -m repro perf --quick            # shorter micro workloads only
    python -m repro perf --check            # exact fields vs BENCH_perf.json
    python -m repro perf --check --quick    # the tier-1 smoke configuration
    python -m repro perf --jobs 4           # benchmarks on 4 workers
    python -m repro perf engine_churn transit_hop
    python -m repro perf --profile fleet_slot   # cProfile one benchmark
    python -m repro perf --list

Flags, baseline handling and exit codes are the shared harness's
(:mod:`repro.harness`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro import harness
from repro.parallel.workers import run_perf_benchmark_shard
from repro.perf.benchmarks import CATALOG
from repro.perf.harness import BenchmarkResult, build_report, shard_table


def _format_run(result: BenchmarkResult) -> str:
    ratio = "-" if result.sim_wall_ratio is None else f"{result.sim_wall_ratio:.3g}"
    line = (
        f"{result.name:28s} {result.kind:5s} events={result.events:>9,d}  "
        f"events/s={result.events_per_sec:>11,.0f}  sim/wall={ratio:>7s}"
    )
    if result.digest is not None:
        line += f"  digest={result.digest[:12]}..."
    return line


#: Rows printed per pstats table in ``--profile NAME`` mode.
PROFILE_STATS_ROWS = 25


def run_profiled(name: str, quick: bool = False) -> int:
    """Run one named benchmark under :mod:`cProfile` and print the pstats
    hot-spot tables (by cumulative and by internal time).

    The benchmark's own wall measurement still goes through
    :func:`repro.perf.timing.wall_ns` (DET001) — cProfile wraps it, so
    the printed ``wall_seconds`` is the *profiled* figure and must not be
    pasted into BENCH_perf.json.
    """
    import cProfile
    import io
    import pstats

    spec = CATALOG[name]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        raw = spec.run(quick)
    finally:
        profiler.disable()
    print(
        f"profile: {name} ({spec.kind}) — {raw.events:,d} events in "
        f"{raw.wall_seconds:.3f}s under cProfile"
        + (" [quick]" if quick else "")
    )
    for sort_key, title in (("cumulative", "by cumulative time"),
                            ("tottime", "by internal time")):
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats(sort_key).print_stats(PROFILE_STATS_ROWS)
        print(f"\n--- {title} ---")
        print(stream.getvalue().rstrip())
    return 0


def _arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "names", nargs="*",
        help="benchmark names to run (default: the full catalog; see --list)",
    )
    parser.add_argument(
        "--profile", default=None, metavar="NAME",
        help="run only this benchmark under cProfile and print the pstats "
             "hot-spot tables (no report, no gate)",
    )


def _side_mode(args: argparse.Namespace, jobs: int) -> Optional[int]:
    if args.profile is None:
        return None
    harness.select(CATALOG, [args.profile], "benchmark")
    if args.check:
        raise harness.UsageError("--profile NAME and --check are mutually exclusive")
    return run_profiled(args.profile, quick=args.quick)


def _entries(report: Dict) -> Dict[str, Dict]:
    return {
        f"{mode}/{name}": entry
        for mode, results in report["modes"].items()
        for name, entry in results.items()
    }


PERF = harness.Verb(
    name="perf",
    description="Micro/macro benchmark harness for the Slingshot reproduction.",
    exact_fields=("digest", "events", "sim_ns", "counts"),
    arguments=_arguments,
    entries=_entries,
    summary=lambda report: ", ".join(
        f"{len(results)} {mode} benchmark(s)"
        for mode, results in report["modes"].items()
    ),
    shards=lambda args: shard_table(args.names, harness.recorded_modes(args)),
    worker=run_perf_benchmark_shard,
    format_run=_format_run,
    report=lambda results, execution: build_report(results, execution).as_dict(),
    passed=lambda report: True,
    catalog=lambda: {
        name: f"{spec.kind:5s} {spec.description}" for name, spec in CATALOG.items()
    },
    side_mode=_side_mode,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main(PERF, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
