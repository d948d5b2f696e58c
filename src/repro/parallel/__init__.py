"""Sharded parallel execution for campaign/sweep workloads.

The chaos campaign, the experiment sweeps, and the perf macro scenarios
are all embarrassingly parallel: every ``(scenario, seed)`` or
``(experiment, config)`` pair builds its own cell from its own seed and
never touches another shard's state. :mod:`repro.parallel.pool` fans
those shards out to ``multiprocessing`` workers and merges the results
deterministically — results are keyed by shard key and merged in
canonical (submission) order, so the merged report and every per-run
canonical-trace digest are bit-identical to the serial run, at any
``--jobs`` value.

Worker entrypoints live in :mod:`repro.parallel.workers` so they are
importable (picklable) from a fresh interpreter. Shard workers must not
read module-level mutable state or seed an RNG from anything but their
payload; the serial-equals-parallel guarantee that rests on this is
pinned on every campaign (``tests/test_parallel.py``,
``tests/test_harness_contract.py``, all five ``--check`` gates), and the
DET rules bind this package like any other.
"""

from repro.parallel.pool import (
    ShardCrash,
    ShardError,
    ShardOutcome,
    ShardStats,
    available_parallelism,
    run_shards,
)

__all__ = [
    "ShardCrash",
    "ShardError",
    "ShardOutcome",
    "ShardStats",
    "available_parallelism",
    "run_shards",
]
