"""Shard-runner tests: determinism, ordered flush, failure surfacing,
and serial-vs-parallel bit-equality of the drivers that use it.

The contract under test (see :mod:`repro.parallel.pool`): at any
``--jobs`` value the merged results, the streamed progress order, and
every canonical-trace digest are identical to a serial run; worker
failures surface with the shard key instead of hanging the sweep.
"""

import os
import time
from types import SimpleNamespace

import pytest

from repro.parallel import (
    ShardCrash,
    ShardError,
    available_parallelism,
    run_shards,
)
from repro.parallel import pool
from repro.parallel.pool import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)


# ----------------------------------------------------------------------
# Top-level workers (must be picklable for the pool tests)
# ----------------------------------------------------------------------
def _double(payload):
    return payload * 2


def _sleep_inverse(payload):
    """Later shards finish first, forcing out-of-order completion."""
    index, count = payload
    time.sleep(0.05 * (count - index))
    return index


def _fail_on_two(payload):
    if payload == 2:
        raise ValueError("boom")
    return payload


def _exit_on_two(payload):
    if payload == 2:
        os._exit(13)
    return payload


def _exit_once_on_two(payload):
    """Crash shard 2 the first time only (marker file), succeed after."""
    value, marker = payload
    if value == 2 and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        os._exit(13)
    return value * 2


def _exit_on_two_loudly(payload):
    if payload == 2:
        # fd 2 directly: that's where hard-death evidence (interpreter
        # fatal errors, C-level aborts) lands, and what the pool's
        # stderr capture redirects. pytest swaps sys.stderr for its own
        # object, so writing through it would bypass the redirect.
        os.write(2, b"fatal: shard two always dies\n")
        os._exit(13)
    return payload


class TestRunShardsSerial:
    def test_results_in_canonical_order(self):
        outcome = run_shards(_double, [(("k", i), i) for i in range(5)], jobs=1)
        assert outcome.mode == "serial"
        assert outcome.values() == [0, 2, 4, 6, 8]
        assert outcome.keys == [("k", i) for i in range(5)]

    def test_worker_exception_raises_shard_error_with_key(self):
        with pytest.raises(ShardError) as excinfo:
            run_shards(_fail_on_two, [(i, i) for i in range(4)], jobs=1)
        assert excinfo.value.key == 2
        assert "ValueError" in excinfo.value.traceback_text

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_shards(_double, [("a", 1), ("a", 2)], jobs=1)

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_shards(_double, [("a", 1)], jobs=0)

    def test_accounting_shape(self):
        outcome = run_shards(_double, [(i, i) for i in range(3)], jobs=1)
        accounting = outcome.accounting()
        assert accounting["shards"] == 3
        assert accounting["mode"] == "serial"
        assert len(accounting["per_shard"]) == 3
        assert accounting["wall_seconds"] >= 0
        for stat in accounting["per_shard"]:
            assert {"key", "wall_seconds", "peak_rss_kb", "pid"} <= set(stat)

    def test_probe_and_cpu_count_sane(self):
        assert available_parallelism() >= 1

    @pytest.mark.parametrize(
        "platform, maxrss, kib",
        [
            ("linux", 600 * 1024, 600 * 1024),  # KiB already
            ("linux", 3 << 30, 3 << 30),  # 3 TiB in KiB, still KiB
            ("darwin", 600 << 20, 600 * 1024),  # bytes, under 1 GiB
            ("darwin", 3 << 30, 3 << 20),
        ],
    )
    def test_peak_rss_unit_follows_the_platform(self, monkeypatch, platform, maxrss, kib):
        monkeypatch.setattr(pool.sys, "platform", platform)
        monkeypatch.setattr(
            pool.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss)
        )
        assert pool._peak_rss_kb() == kib


@needs_fork
class TestRunShardsPool:
    def test_results_and_progress_in_canonical_order(self):
        count = 6
        streamed = []
        outcome = run_shards(
            _sleep_inverse,
            [((("s", i)), (i, count)) for i in range(count)],
            jobs=4,
            progress=lambda key, value: streamed.append(key),
        )
        assert outcome.mode == "fork"
        assert outcome.effective_jobs == 4
        # Later shards completed first, yet both the merged values and
        # the streamed keys come back in submission order.
        assert outcome.values() == list(range(count))
        assert streamed == [("s", i) for i in range(count)]

    def test_worker_exception_surfaces_key_without_hanging(self):
        with pytest.raises(ShardError) as excinfo:
            run_shards(_fail_on_two, [(i, i) for i in range(4)], jobs=2)
        assert excinfo.value.key == 2

    def test_hard_worker_death_surfaces_candidates_without_hanging(self):
        with pytest.raises(ShardCrash) as excinfo:
            run_shards(_exit_on_two, [(("c", i), i) for i in range(4)], jobs=2)
        # The crashed shard is among the unfinished candidates, in
        # canonical order.
        assert ("c", 2) in excinfo.value.candidate_keys
        assert excinfo.value.candidate_keys == sorted(
            excinfo.value.candidate_keys
        )

    def test_single_shard_falls_back_to_serial(self):
        outcome = run_shards(_double, [("only", 21)], jobs=8)
        assert outcome.mode == "serial"
        assert outcome.values() == [42]

    def test_transient_crash_retried_once_and_recovers(self, tmp_path):
        """A shard that hard-crashes once finishes on the fresh-pool
        retry: values and order unchanged, retry recorded."""
        marker = str(tmp_path / "crashed-once")
        outcome = run_shards(
            _exit_once_on_two,
            [(("r", i), (i, marker)) for i in range(4)],
            jobs=2,
        )
        assert os.path.exists(marker), "crash never happened"
        assert outcome.values() == [0, 2, 4, 6]
        assert outcome.shard_retries == 1
        assert outcome.accounting()["shard_retries"] == 1

    def test_permanent_crash_reports_retries_and_stderr_tail(self):
        with pytest.raises(ShardCrash) as excinfo:
            run_shards(
                _exit_on_two_loudly, [(("c", i), i) for i in range(4)], jobs=2
            )
        assert ("c", 2) in excinfo.value.candidate_keys
        assert excinfo.value.retries == 1
        assert "fatal: shard two always dies" in excinfo.value.stderr_tail
        assert "fatal: shard two always dies" in str(excinfo.value)


@pytest.mark.slow
class TestSerialParallelEquality:
    """Every one of the 39 records in ``BENCH_chaos.json`` is checked each
    session: seeds 2 and 3 through the CLI, seed 1 from the session's
    one seed-1 pass (``seed1_chaos``)."""

    def test_standard_campaign_digests_identical_across_jobs(self, capsys):
        """Seeds 2 and 3 of the standard chaos campaign, run once on a
        4-worker pool, stream one line per run and reproduce their 26
        records in the recorded ``BENCH_chaos.json`` — pinned to the
        recording and, through it, to a serial run. Equality at jobs 1, 2
        and 4 on a subset is the harness contract
        (``tests/test_harness_contract.py``)."""
        from repro.faults.campaign import main as chaos_main

        exit_code = chaos_main(["--check", "--no-replay", "--seeds", "2", "3", "--jobs", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0, output
        assert sum(" PASS " in line for line in output.splitlines()) == 26
        assert "26 runs, 0 failed" in output
        assert "chaos check passed (26 run(s))" in output

    def test_seed1_records_match_the_baseline(self, seed1_chaos):
        """The session pass's 13 continued seed-1 records, compared with
        their recorded entries on the chaos verb's exact fields (what
        ``chaos --check`` compares)."""
        from repro.faults.campaign import CHAOS
        from repro.harness import check_entries, load_baseline

        fresh = CHAOS.entries(
            {"runs": [result["continued"].as_dict() for result in seed1_chaos.values()]}
        )
        assert sorted(fresh) == sorted(f"{name}/seed=1" for name in seed1_chaos)
        assert len(fresh) == 13
        recorded = CHAOS.entries(load_baseline("chaos"))
        assert check_entries(fresh, recorded, CHAOS.exact_fields) == []
