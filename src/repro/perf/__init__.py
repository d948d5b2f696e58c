"""Performance subsystem — ``python -m repro perf``.

The ROADMAP north star is a simulator that "runs as fast as the hardware
allows"; this package is the measurement side of that promise. It
provides:

* :mod:`repro.perf.timing` — the *sanctioned* wall-clock helper. All
  wall-time reads in ``src/repro`` go through :func:`~repro.perf.timing.wall_ns`:
  it is the one module slinglint's DET001 row exempts, so neither
  benchmark code nor simulation logic can touch a wall clock directly.
* :mod:`repro.perf.scenarios` — deterministic scenario runners (fig9,
  fig10 smoke, chaos scenarios) shared by the macro benchmarks and the
  digest-equivalence regression tests. Their canonical trace digests are
  golden: any perf optimization must leave them bit-identical.
* :mod:`repro.perf.harness` — micro/macro benchmark harness reporting
  events/sec and sim-time/wall-time ratios; ``repro perf --check``
  compares the deterministic fields (digests, event counts, structural
  counts) exactly against ``benchmarks/BENCH_perf.json`` and records the
  rates ungated.
* :mod:`repro.perf.benchmarks` — the named benchmark catalog.
"""

__all__ = [
    "BenchmarkResult",
    "PerfReport",
    "load_report",
    "run_benchmarks",
    "DIGEST_SCENARIOS",
    "scenario_digest",
]

_HARNESS_NAMES = {
    "BenchmarkResult", "PerfReport", "load_report", "run_benchmarks",
}


def __getattr__(name: str):
    # Lazy re-exports: the digest tests import the scenario runners
    # without paying for (or depending on) the harness, and vice versa.
    if name in _HARNESS_NAMES:
        from repro.perf import harness

        return getattr(harness, name)
    if name in ("DIGEST_SCENARIOS", "scenario_digest"):
        from repro.perf import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
