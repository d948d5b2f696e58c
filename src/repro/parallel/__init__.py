"""Sharded parallel execution for campaign workloads.

The chaos and fleet campaigns are embarrassingly parallel: every
``(scenario, seed)`` or ``(fault class, pool size, seed)`` run branches
from a warm base built from its own seed and never touches another
run's state. :mod:`repro.parallel.pool` fans such shards — the bases,
then the branches (:func:`repro.harness.branch_sweep`) — out to
``multiprocessing`` workers and merges the results deterministically:
results are keyed by shard key and merged in canonical (submission)
order, so the merged report and every per-run canonical-trace digest
are bit-identical to the serial run, at any ``--jobs`` value.

A worker is any module-level (picklable) function; the campaigns hand
over their own ``build_*base`` and ``run_*`` functions. Workers must
not read module-level mutable state or seed an RNG from anything but
their payload; the serial-equals-parallel guarantee that rests on this
is pinned on every campaign (``tests/test_parallel.py``,
``tests/test_harness_contract.py``, all three ``--check`` gates), and
the DET rules bind this package like any other.
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
