"""Benchmark harness: run the catalog and derive the report.

``run_benchmarks`` executes named benchmarks from
:mod:`repro.perf.benchmarks` as shards — one ``(mode, name)`` shard per
benchmark, each timed inside whichever process runs it — and derives
events/sec and sim-time/wall-time ratios. A :class:`BenchmarkResult`
separates what is deterministic (``events``, ``sim_ns``, ``digest``,
``counts`` — the fields ``repro perf --check`` compares exactly against
``benchmarks/BENCH_perf.json``) from machine facts (wall seconds, rates,
``extra``), which are recorded and never gated: a gain or a regression
in speed is proven at PR time by alternating parent/change runs of
``bench/run.py``, not by a floor in this file.

Quick and full mode size the micro workloads differently, so the exact
fields are recorded per mode (``modes.quick`` / ``modes.full``), the way
``BENCH_soak.json`` records its profiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.harness import Shards, fan_out, select
from repro.parallel.workers import run_perf_benchmark_shard
from repro.perf.benchmarks import CATALOG


@dataclass
class BenchmarkResult:
    """One benchmark's derived metrics, as persisted in BENCH_perf.json."""

    name: str
    kind: str
    description: str
    events: int
    wall_seconds: float
    events_per_sec: float
    sim_ns: Optional[int] = None
    sim_wall_ratio: Optional[float] = None
    digest: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "events": self.events,
            "sim_ns": self.sim_ns,
            "digest": self.digest,
            "counts": self.counts,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_wall_ratio": (
                None if self.sim_wall_ratio is None
                else round(self.sim_wall_ratio, 4)
            ),
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict) -> "BenchmarkResult":
        return cls(name=name, **data)


@dataclass
class PerfReport:
    """A harness run: per-mode, per-benchmark results."""

    #: mode (``"quick"`` / ``"full"``) -> benchmark name -> result.
    modes: Dict[str, Dict[str, BenchmarkResult]] = field(default_factory=dict)
    #: Shard-runner accounting (jobs, per-shard wall, parallel speedup).
    execution: Optional[Dict] = None

    def as_dict(self) -> Dict:
        return {
            "benchmark": "perf",
            "generated_by": "python -m repro perf",
            "modes": {
                mode: {name: result.as_dict() for name, result in results.items()}
                for mode, results in self.modes.items()
            },
            "execution": self.execution,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PerfReport":
        return cls(
            modes={
                mode: {
                    name: BenchmarkResult.from_dict(name, entry)
                    for name, entry in results.items()
                }
                for mode, results in data["modes"].items()
            },
            execution=data.get("execution"),
        )


def load_report(path: Path) -> PerfReport:
    """Load a previously written BENCH_perf.json."""
    return PerfReport.from_dict(json.loads(Path(path).read_text()))


def measure(name: str, quick: bool) -> BenchmarkResult:
    """Run one catalog benchmark and derive its rates."""
    spec = CATALOG[name]
    raw = spec.run(quick)
    wall = raw.wall_seconds
    return BenchmarkResult(
        name=spec.name,
        kind=spec.kind,
        description=spec.description,
        events=raw.events,
        wall_seconds=wall,
        events_per_sec=(raw.events / wall) if wall > 0 else 0.0,
        sim_ns=raw.sim_ns,
        sim_wall_ratio=(
            raw.sim_ns / (wall * 1e9)
            if raw.sim_ns is not None and wall > 0 else None
        ),
        digest=raw.digest,
        counts=raw.counts,
        extra=raw.extra,
    )


def shard_table(names: Optional[Sequence[str]], modes: Sequence[str]) -> Shards:
    """``(mode, name)``-keyed shards; unknown names are a usage error."""
    specs = select(CATALOG, names or list(CATALOG), "benchmark")
    return [
        ((mode, spec.name), (spec.name, mode == "quick"))
        for mode in modes
        for spec in specs
    ]


def build_report(
    results: Dict[Tuple[str, str], BenchmarkResult], execution: Dict
) -> PerfReport:
    report = PerfReport(execution=execution)
    for (mode, name), result in results.items():
        report.modes.setdefault(mode, {})[name] = result
    return report


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    progress: Optional[Callable[[BenchmarkResult], None]] = None,
    jobs: int = 1,
) -> PerfReport:
    """Run (a subset of) the catalog in one mode and return the report.

    ``jobs > 1`` fans the benchmarks out over worker processes: exact
    fields are unchanged, rates are contention-sensitive (record a
    baseline at ``--jobs 1``).
    """
    return build_report(
        *fan_out(
            run_perf_benchmark_shard,
            shard_table(names, ["quick" if quick else "full"]),
            jobs,
            progress,
        )
    )
