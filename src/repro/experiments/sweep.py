"""Shared sweep helper: shard independent experiment trials.

Several experiment harnesses run a loop of independent trials, each
building a fresh cell from its own seed (``sec52`` detection-latency
kills, ``sec82`` dropped-TTI failovers, ...). This module gives them one
idiom for fanning those trials out over :mod:`repro.parallel` workers
while keeping results **bit-identical to the serial loop**:

* the trial worker is a top-level function in the experiment module
  (named ``*_shard`` by convention) that rebuilds everything from its
  payload;
* any RNG draws the serial loop interleaved with trial execution (e.g.
  per-trial kill offsets) are precomputed by the caller *in serial draw
  order* and passed inside the payloads, so sharding never reorders a
  generator's sequence;
* results come back in canonical trial order regardless of completion
  order.

The guarantee is pinned dynamically, not linted: ``tests/test_parallel.py``
and ``tests/test_harness_contract.py`` compare serial against ``--jobs``
1/2/4, and the DET rules bind a worker like any other code.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.parallel.pool import ShardOutcome, ShardWorker, run_shards


def sweep_trials(
    worker: ShardWorker,
    payloads: Sequence[Any],
    jobs: int = 1,
    label: str = "trial",
) -> Tuple[List[Any], ShardOutcome]:
    """Run one payload per trial through ``worker`` on ``jobs`` workers.

    Returns ``(values, outcome)``: the worker results in trial order,
    plus the shard outcome carrying wall-time/RSS accounting.
    """
    shards = [((label, index), payload) for index, payload in enumerate(payloads)]
    outcome = run_shards(worker, shards, jobs=jobs)
    return outcome.values(), outcome
