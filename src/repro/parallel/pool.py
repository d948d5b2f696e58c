"""Process-pool shard runner with digest-verified determinism.

``run_shards`` executes independent ``(key, payload)`` shards through a
top-level worker function, either serially (``jobs <= 1``, single shard,
or no ``fork`` support) or on a warm ``ProcessPoolExecutor``. The
determinism contract, relied on by the campaign verbs and the experiment
sweeps:

* every shard is self-contained — the worker rebuilds all state from the
  shard payload (ultimately from a seed), so a shard's result does not
  depend on which process ran it or in what order;
* results are keyed by shard key and merged in **canonical order** (the
  submission order), so the merged result list is bit-identical to a
  serial run;
* the ``progress`` callback fires once per shard **in canonical order**
  (an ordered flush over out-of-order completions), so streamed output
  at ``--jobs N`` matches serial output line for line.

Failure handling never hangs the sweep: a worker exception is carried
back as data and re-raised as :class:`ShardError` naming the shard key
at its canonical position; a hard worker death (e.g. the kernel OOM
killer, ``os._exit``) breaks the pool. Because shards are
deterministic and self-contained, a broken pool is retried **once** on
a fresh executor covering only the unfinished shards — transient
machine-level deaths (OOM kill of one worker during a memory spike)
recover without rerunning completed work, while a deterministic crash
fails again immediately and surfaces as :class:`ShardCrash` naming the
unfinished shard keys plus the tail of the workers' captured stderr
(the only place a hard death leaves evidence). Retries are recorded in
the accounting block (``shard_retries``) so BENCH files show when a
sweep needed one.

Accounting: each shard records its own wall time and the worker
process's peak RSS (a process high-water mark — warm workers carry the
maximum over every shard they have run), and the outcome derives the
parallel speedup estimate ``sum(shard wall) / sweep wall`` for the
BENCH json files.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.timing import wall_ns

try:  # pragma: no cover - always present on the Linux/macOS targets
    import resource
except ImportError:  # pragma: no cover - Windows fallback
    resource = None  # type: ignore[assignment]

#: Shard key: any picklable, hashable value; printed in errors/reports.
ShardKey = Any

#: Worker signature: one payload in, one picklable result out.
ShardWorker = Callable[[Any], Any]

#: Broken-pool retries before giving up (shards are deterministic, so a
#: second identical failure means the crash is not transient).
MAX_CRASH_RETRIES = 1

#: Bytes of captured worker stderr attached to a ShardCrash.
STDERR_TAIL_BYTES = 4096


class ShardError(RuntimeError):
    """A shard worker raised; carries the shard key and the traceback."""

    def __init__(self, key: ShardKey, traceback_text: str) -> None:
        super().__init__(
            f"shard {key!r} failed in worker:\n{traceback_text}"
        )
        self.key = key
        self.traceback_text = traceback_text


class ShardCrash(RuntimeError):
    """A worker process died without reporting (hard crash).

    ``candidate_keys`` lists, in canonical order, every shard that had
    not completed when the pool broke — the crashed shard is among them
    (usually first; the executor cannot attribute the death exactly).
    ``stderr_tail`` carries the last bytes the dead workers wrote to
    stderr (empty when they died silently), and ``retries`` how many
    fresh-pool retries were burned before giving up.
    """

    def __init__(
        self,
        candidate_keys: Sequence[ShardKey],
        stderr_tail: str,
        retries: int,
    ) -> None:
        keys = list(candidate_keys)
        message = (
            "worker process died; unfinished shard(s): "
            + ", ".join(repr(key) for key in keys)
        )
        if retries:
            message += f" (after {retries} retr{'y' if retries == 1 else 'ies'})"
        if stderr_tail:
            message += f"\nworker stderr tail:\n{stderr_tail}"
        super().__init__(message)
        self.candidate_keys = keys
        self.stderr_tail = stderr_tail
        self.retries = retries


@dataclass
class ShardStats:
    """Per-shard execution accounting (non-deterministic, machine facts)."""

    key: ShardKey
    wall_seconds: float
    peak_rss_kb: int
    pid: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": list(self.key) if isinstance(self.key, tuple) else self.key,
            "wall_seconds": round(self.wall_seconds, 4),
            "peak_rss_kb": self.peak_rss_kb,
            "pid": self.pid,
        }


@dataclass
class ShardOutcome:
    """A completed sweep: deterministic results plus execution accounting.

    ``results`` and ``stats`` are in canonical (submission) order;
    ``results`` values are whatever the worker returned. Everything
    under :meth:`accounting` is wall-clock/RSS bookkeeping and is
    excluded from determinism comparisons by construction.
    """

    requested_jobs: int
    effective_jobs: int
    mode: str  # "serial" | "fork"
    keys: List[ShardKey] = field(default_factory=list)
    results: Dict[ShardKey, Any] = field(default_factory=dict)
    stats: List[ShardStats] = field(default_factory=list)
    total_wall_seconds: float = 0.0
    #: Fresh-pool retries taken after a hard worker death (0 normally).
    shard_retries: int = 0

    @property
    def shard_wall_seconds(self) -> float:
        """Serial-equivalent work: the sum of per-shard wall times."""
        return sum(stat.wall_seconds for stat in self.stats)

    @property
    def speedup(self) -> Optional[float]:
        """Estimated speedup vs running the same shards back to back.

        Computed as ``sum(shard wall) / sweep wall``. Exact when workers
        do not contend for cores; under contention per-shard walls
        inflate, making this an upper bound.
        """
        if self.total_wall_seconds <= 0:
            return None
        return self.shard_wall_seconds / self.total_wall_seconds

    def values(self) -> List[Any]:
        """Worker results in canonical order."""
        return [self.results[key] for key in self.keys]

    def accounting(self) -> Dict[str, Any]:
        """The execution block recorded in BENCH json files."""
        speedup = self.speedup
        return {
            "jobs": self.requested_jobs,
            "effective_jobs": self.effective_jobs,
            "mode": self.mode,
            "shards": len(self.keys),
            "wall_seconds": round(self.total_wall_seconds, 4),
            "shard_wall_seconds": round(self.shard_wall_seconds, 4),
            "parallel_speedup": None if speedup is None else round(speedup, 3),
            "shard_retries": self.shard_retries,
            "max_peak_rss_kb": max(
                (stat.peak_rss_kb for stat in self.stats), default=0
            ),
            "per_shard": [stat.as_dict() for stat in self.stats],
        }


def available_parallelism() -> int:
    """Usable CPU count (>= 1); the honest ceiling for ``--jobs``."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB (0 where unsupported)."""
    if resource is None:  # pragma: no cover - Windows fallback
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(usage // 1024) if sys.platform == "darwin" else int(usage)


def _shard_entry(worker: ShardWorker, key: ShardKey, payload: Any) -> Dict[str, Any]:
    """Top-level worker wrapper: run one shard, never raise.

    Exceptions are serialized into the reply so a failing shard cannot
    take down the pool (only a hard process death can), and the caller
    re-raises at the shard's canonical position.
    """
    start = wall_ns()
    try:
        value = worker(payload)
        error = None
    except Exception:  # noqa: BLE001 - carried back verbatim as ShardError
        import traceback

        value = None
        error = traceback.format_exc()
    return {
        "value": value,
        "error": error,
        "wall_seconds": (wall_ns() - start) / 1e9,
        "peak_rss_kb": _peak_rss_kb(),
        "pid": os.getpid(),
    }


def _finish(
    outcome: ShardOutcome,
    key: ShardKey,
    reply: Dict[str, Any],
    progress: Optional[Callable[[ShardKey, Any], None]],
) -> None:
    """Record one shard's reply (canonical position) and stream it."""
    if reply["error"] is not None:
        raise ShardError(key, reply["error"])
    outcome.results[key] = reply["value"]
    outcome.stats.append(
        ShardStats(
            key=key,
            wall_seconds=reply["wall_seconds"],
            peak_rss_kb=reply["peak_rss_kb"],
            pid=reply["pid"],
        )
    )
    if progress is not None:
        progress(key, reply["value"])


def _run_serial(
    worker: ShardWorker,
    shards: Sequence[Tuple[ShardKey, Any]],
    outcome: ShardOutcome,
    progress: Optional[Callable[[ShardKey, Any], None]],
) -> ShardOutcome:
    start = wall_ns()
    for key, payload in shards:
        _finish(outcome, key, _shard_entry(worker, key, payload), progress)
    outcome.total_wall_seconds = (wall_ns() - start) / 1e9
    return outcome


def _capture_worker_stderr(path: str) -> None:
    """Pool initializer: point the worker's fd 2 at the crash-log file.

    A hard death (``os._exit``, OOM kill, fatal signal) leaves no
    Python-level evidence; whatever the worker printed to stderr first
    — an assertion message, a MemoryError traceback, interpreter
    noise — is the only clue, so every worker appends to a shared
    capture file that the parent tails into :class:`ShardCrash`.
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
    os.dup2(fd, 2)
    os.close(fd)


def _stderr_tail(path: str, limit: int = STDERR_TAIL_BYTES) -> str:
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            if size > limit:
                handle.seek(size - limit)
            return handle.read().decode("utf-8", errors="replace").strip()
    except OSError:
        return ""


def _pool_attempt(
    worker: ShardWorker,
    shards: Sequence[Tuple[ShardKey, Any]],
    remaining: Sequence[int],
    jobs: int,
    stderr_path: str,
    buffered: Dict[int, Dict[str, Any]],
    completed: set,
    flush: Callable[[], None],
) -> List[int]:
    """One executor lifetime over ``remaining`` shard indices.

    Completions land in ``buffered``/``completed`` (global indices) and
    are streamed via ``flush`` as they arrive. Returns the indices left
    unfinished by a broken pool, or ``[]`` on a clean pass.
    """
    keys = [key for key, _ in shards]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_capture_worker_stderr,
        initargs=(stderr_path,),
    ) as executor:
        index_of = {}
        for index in remaining:
            key, payload = shards[index]
            future = executor.submit(_shard_entry, worker, key, payload)
            index_of[future] = index
        pending = set(index_of)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            crashed = False
            for future in done:
                index = index_of[future]
                try:
                    buffered[index] = future.result()
                    completed.add(index)
                except BrokenProcessPool:
                    crashed = True
                except Exception as exc:  # e.g. an unpicklable result
                    raise ShardError(keys[index], repr(exc)) from exc
            if crashed:
                return [i for i in remaining if i not in completed]
            flush()
    return []


def _run_pool(
    worker: ShardWorker,
    shards: Sequence[Tuple[ShardKey, Any]],
    outcome: ShardOutcome,
    progress: Optional[Callable[[ShardKey, Any], None]],
) -> ShardOutcome:
    keys = [key for key, _ in shards]
    start = wall_ns()
    handle = tempfile.NamedTemporaryFile(
        prefix="repro-shards-", suffix=".stderr", delete=False
    )
    stderr_path = handle.name
    handle.close()
    # Ordered flush: buffer out-of-order completions, stream each shard
    # exactly when every earlier shard has been streamed. The buffer
    # outlives pool attempts so a retry resumes the stream seamlessly.
    buffered: Dict[int, Dict[str, Any]] = {}
    completed: set = set()
    flush_state = {"next": 0}

    def flush() -> None:
        while flush_state["next"] in buffered:
            index = flush_state["next"]
            _finish(outcome, keys[index], buffered.pop(index), progress)
            flush_state["next"] += 1

    try:
        remaining: List[int] = list(range(len(shards)))
        while True:
            unfinished = _pool_attempt(
                worker,
                shards,
                remaining,
                outcome.effective_jobs,
                stderr_path,
                buffered,
                completed,
                flush,
            )
            if not unfinished:
                break
            if outcome.shard_retries >= MAX_CRASH_RETRIES:
                raise ShardCrash(
                    [keys[i] for i in unfinished],
                    stderr_tail=_stderr_tail(stderr_path),
                    retries=outcome.shard_retries,
                ) from None
            outcome.shard_retries += 1
            remaining = unfinished
        flush()
    finally:
        try:
            os.unlink(stderr_path)
        except OSError:  # pragma: no cover - already gone
            pass
    outcome.total_wall_seconds = (wall_ns() - start) / 1e9
    return outcome


def run_shards(
    worker: ShardWorker,
    shards: Sequence[Tuple[ShardKey, Any]],
    jobs: int,
    progress: Optional[Callable[[ShardKey, Any], None]] = None,
) -> ShardOutcome:
    """Run every shard through ``worker`` and merge deterministically.

    Parameters
    ----------
    worker:
        Top-level (picklable) function mapping one payload to one
        picklable result. Workers must rebuild all state from the
        payload; ``tests/test_parallel.py`` and
        ``tests/test_harness_contract.py`` pin serial against ``jobs``
        2 and 4 for the campaigns.
    shards:
        Ordered ``(key, payload)`` pairs; the order is the canonical
        merge/flush order and keys must be unique.
    jobs:
        Worker process count. ``1`` (or an unavailable ``fork`` start
        method, or a single shard) runs serially in-process; values are
        clamped to the shard count.
    progress:
        Optional ``progress(key, value)`` callback, invoked in canonical
        order as results stream in.
    """
    keys = [key for key, _ in shards]
    if len(set(keys)) != len(keys):
        raise ValueError("shard keys must be unique")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    effective = max(1, min(jobs, len(shards)))
    use_pool = effective > 1 and fork_available()
    outcome = ShardOutcome(
        requested_jobs=jobs,
        effective_jobs=effective if use_pool else 1,
        mode="fork" if use_pool else "serial",
        keys=keys,
    )
    if not use_pool:
        return _run_serial(worker, shards, outcome, progress)
    return _run_pool(worker, shards, outcome, progress)
