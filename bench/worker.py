"""One repeat of one workload in a fresh interpreter.

``run.py`` starts this file as a subprocess for every repeat, so each
measurement pays interpreter start-up, imports, table construction and
deployment build exactly as a campaign worker would, and no repeat
inherits warmed caches or heap state from the one before.

The process reads one JSON spec on stdin and writes one JSON result as
the last line of stdout:

* ``{"mode": "measure", "plan": ..., "trace": false}`` — warm up, drive
  the measured window in fixed sim-time chunks and time each chunk;
* the same with ``"trace": true`` — the identical run with the span
  tracer installed (``spans.py``), raw spans written to ``spans_path``;
* ``{"mode": "micro", "seed": n}`` — the direct-drive micro drivers.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"bench: no program to measure: {SRC}/repro is missing")
    sys.path[:0] = [SRC, HERE]
    import repro

    origin = os.path.realpath(os.path.dirname(repro.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "repro")):
        raise SystemExit(f"bench: repro imported from {origin}, not from {SRC}")


class _Token:
    __slots__ = ("rank", "key")

    def __init__(self, rank: int, key: int) -> None:
        self.rank = rank
        self.key = key


def calibration_work() -> int:
    """A fixed ~0.2 ms of interpreter work shaped like the simulator's
    (small objects through a heap and a dict). Timed right before every
    chunk, it samples how fast this host is *at that moment*; see
    ``metrics.quiet_wall_s``."""
    heap: list = []
    index = {}
    for rank in range(300):
        token = _Token(rank, (rank * 7919) % 1013)
        heapq.heappush(heap, (token.key, rank, token))
        index[rank] = token
    total = 0
    while heap:
        _, rank, token = heapq.heappop(heap)
        total += index[rank].rank
    return total


def measure(spec: dict) -> dict:
    import workloads

    plan = spec["plan"]
    tracer = None
    if spec.get("trace"):
        import spans

        # Load everything a deployment binds by name before wrapping it.
        import repro.apps, repro.cell, repro.fleet  # noqa: E401,F401

        tracer = spans.Tracer()
        tracer.install()
    deployment = workloads.build(plan)
    sim = deployment.sim
    deployment.warm_up()
    setup_done = time.time()

    first_fault = min(deployment.fault_ns)
    raw_lo = first_fault - 20 * workloads.MS
    raw_hi = max(deployment.fault_ns) + 200 * workloads.MS
    start_counts = deployment.counts()
    dropped_before = None
    chunk_wall_ns = []
    chunk_calib_ns = []
    chunk_events = []
    clock = time.perf_counter_ns
    cpu_start = time.process_time()
    previous_end = plan["warmup_ns"]
    for end in deployment.chunk_ends():
        if dropped_before is None and end > first_fault:
            dropped_before = deployment.dropped_by_cell()
        events = sim.events_processed
        if tracer is not None:
            tracer.raw_on = previous_end < raw_hi and end > raw_lo
        calibration_work()  # Untimed: refills the caches the chunk evicted.
        c0 = clock()
        calibration_work()
        t0 = clock()
        if tracer is not None:
            tracer.run_root(sim, end)
        else:
            sim.run_until(end)
        t1 = clock()
        chunk_calib_ns.append(t0 - c0)
        chunk_wall_ns.append(t1 - t0)
        chunk_events.append(sim.events_processed - events)
        previous_end = end
    cpu_s = time.process_time() - cpu_start
    end_counts = deployment.counts()

    result = {
        "setup_done_unix": setup_done,
        "chunk_wall_ns": chunk_wall_ns,
        "chunk_calib_ns": chunk_calib_ns,
        "chunk_events": chunk_events,
        "cpu_s": cpu_s,
        "sim_window_s": (plan["end_ns"] - plan["warmup_ns"]) / 1e9,
        "counts": {k: workloads.delta(start_counts, end_counts, k) for k in end_counts},
        "unresolved_counts": deployment.unresolved_counts,
        "simulated": deployment.simulated(start_counts, end_counts, dropped_before or {}),
        "digest": deployment.digest(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if spec.get("spans_path"):
            _write_spans(spec["spans_path"], tracer, deployment.fault_ns, raw_lo, raw_hi)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _write_spans(path: str, tracer, fault_ns, lo: int, hi: int) -> None:
    """Raw spans of the fault window, one JSON array per line; spans of
    one failover (the latest fault at or before the span) share its id."""
    import spans

    faults = sorted(fault_ns)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        out.write(json.dumps(list(spans.RAW_FIELDS) + ["failover"]) + "\n")
        for span in tracer.raw_spans():
            sim_ns = span[6]
            if not lo <= sim_ns <= hi:
                continue
            failover = max(0, sum(1 for f in faults if f <= sim_ns) - 1)
            out.write(json.dumps(span + [failover]) + "\n")


def main() -> int:
    spec = json.loads(sys.stdin.read())
    _use_checkout_sources()
    if spec["mode"] == "micro":
        import micro

        result = micro.run_all(spec["seed"], spec.get("scale", 1.0))
    else:
        result = measure(spec)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
