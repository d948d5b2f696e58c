#!/usr/bin/env python3
"""The repo benchmark: five failover workloads, measured from outside.

    PYTHONPATH=src python bench/run.py --seed 0          # the whole suite
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --selfcheck [--seed N]

The suite runs every workload untraced (R fresh-interpreter repeats, one
after another), checks the outputs, prints every end-to-end metric by
name and unit, then runs the traced pass and the micro drivers for the
per-layer ledger, and writes everything to ``bench/out/``. The
``--workload`` form is the ``BENCHMARK.json`` contract: one workload, one
JSON object on the last line. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
#: Untraced repeats inside a ``--trace 1`` contract run, which also pays
#: the traced pass and the micro drivers. Everywhere else R is the
#: workload's own ``repeats`` (``workloads.WORKLOADS``); the R used is
#: recorded as ``host.repeats``.
TRACED_RUN_REPEATS = 2
DEFAULT_SECONDS = 20
CHILD_TIMEOUT_S = 170
#: ``time.monotonic()`` by which every worker of a contract run must have
#: ended (the contract allows one invocation 180 s); None in suite runs.
_deadline: Optional[float] = None


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(spec: dict) -> dict:
    """Run one worker to completion; its last stdout line is the result."""
    timeout = CHILD_TIMEOUT_S
    if _deadline is not None:
        timeout = max(1.0, _deadline - time.monotonic())
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER], input=json.dumps(spec), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawned_unix"] = started
    return result


def fingerprint() -> Dict[str, Any]:
    """What the host numbers were measured on (ROADMAP 1d)."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version: Optional[str] = version("numpy")
    except Exception:  # noqa: BLE001 - any metadata failure means "unknown"
        numpy_version = None

    def git(*args: str) -> Optional[str]:
        # Never look for a repository above this checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=10, env=env
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_1m": os.getloadavg()[0],
    }


HOST_IDENTITY = ("cpu_model", "nproc", "python", "numpy")


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def check_outputs(
    plan: dict, repeats: List[dict], traced: Optional[dict]
) -> Dict[str, Any]:
    """Every output check; lost pings count as failed operations but
    never as a failed check (``apps.loss_pct`` reports UDP loss)."""
    checks: List[tuple] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    first = repeats[0]
    facts = first["simulated"]["facts"]
    failed_over = set(facts["failed_over"])
    for cell in facts["killed"]:
        migrations = facts["migrations"].get(str(cell), 0)
        expected = 1 if cell in failed_over else 0
        check(f"cell{cell}.exactly_once_migration", migrations == expected,
              f"{migrations} committed, expected {expected}")
    spurious = [c for c, n in facts["migrations"].items() if n and int(c) not in facts["killed"]]
    check("no_migration_without_a_fault", not spurious, f"cells {spurious}")
    for cell in sorted(failed_over):
        dropped = facts["dropped_ttis"][str(cell)]
        check(f"cell{cell}.dropped_ttis", dropped <= workloads.MAX_DROPPED_TTIS_PER_CELL,
              f"{dropped} > {workloads.MAX_DROPPED_TTIS_PER_CELL}")
    for cell, latency in facts["detect_latency_us"].items():
        check(f"cell{cell}.detect_latency_us", latency <= workloads.MAX_DETECT_LATENCY_US,
              f"{latency} us > {workloads.MAX_DETECT_LATENCY_US}")
    check("every_killed_cell_detected",
          len(facts["detect_latency_us"]) == len(facts["killed"]))
    if plan["kind"] == "cell":
        check("failed_over", failed_over == set(facts["killed"]))
    else:
        # A count whose stats path moved reads None and is reported under
        # ``unresolved_boundaries``; its check cannot be made.
        counts = first["counts"]
        grants, denials = counts["fleet.pool_grants"], counts["fleet.pool_denials"]
        if grants is not None and denials is not None:
            check("pool.grants_plus_denials_eq_kills", grants + denials == len(facts["killed"]),
                  f"{grants}+{denials} != {len(facts['killed'])}")
            check("pool.grants_eq_pool_size", grants == facts["pool_size"],
                  f"{grants} != {facts['pool_size']}")
        kernels, blocks = counts["fleet.kernel_invocations"], counts["fleet.blocks_encoded"]
        if kernels is not None and blocks is not None and not plan["smoke"]:
            if plan["tracers"]:
                check("backend.loaded",
                      kernels >= workloads.DENSE_MIN_KERNEL_INVOCATIONS
                      and blocks >= workloads.DENSE_MIN_BLOCKS_ENCODED,
                      f"{kernels} kernel invocations, {blocks} blocks encoded")
            else:
                check("backend.bypassed", max(kernels, blocks) < workloads.IDLE_MAX_BACKEND_WORK,
                      f"{kernels} kernel invocations, {blocks} blocks encoded")
    for index, other in enumerate(repeats[1:], start=2):
        check(f"repeat{index}.digest", other["digest"] == first["digest"])
        check(f"repeat{index}.chunk_events", other["chunk_events"] == first["chunk_events"],
              "a chunk processed a different number of events: non-deterministic run")
        check(f"repeat{index}.simulated", other["simulated"] == first["simulated"])
        check(f"repeat{index}.counts", other["counts"] == first["counts"])
    if traced is not None:
        check("traced.digest", traced["digest"] == first["digest"],
              "the traced pass changed the simulation")
        check("traced.chunk_events", traced["chunk_events"] == first["chunk_events"])
        trace = traced["trace"]
        gap = abs(trace["self_sum_s"] - trace["root_s"])
        check("traced.self_times_sum_to_root", gap <= 0.01 * trace["root_s"],
              f"sum {trace['self_sum_s']:.4f} s vs root {trace['root_s']:.4f} s")
    failed_checks = [(n, d) for n, ok, d in checks if not ok]
    return {
        "ops_attempted": len(checks) + facts["pings_sent"],
        "ops_failed": len(failed_checks) + facts["pings_lost"],
        "failed_checks": [f"{n}: {d}" if d else n for n, d in failed_checks],
        "correct": not failed_checks,
    }


def run_micro(seed: int, smoke: bool) -> dict:
    return spawn({"mode": "micro", "seed": seed, "scale": 0.1 if smoke else 1.0})


def run_workload(
    name: str, seed: int, seconds: float, *,
    smoke: bool = False, micro: Optional[dict] = None, max_repeats: Optional[int] = None,
) -> Dict[str, Any]:
    """Measure one workload: an untraced set of the workload's R fresh
    interpreters (at most ``max_repeats``). Given the micro drivers'
    result, also run the traced pass and assemble the per-layer ledger.
    ``seconds`` is the measured-time budget R was sized for; a set that
    overruns it is flagged, never cut short."""
    plan = workloads.plan(name, seed, smoke=smoke)
    repeats = plan["repeats"] if max_repeats is None else min(plan["repeats"], max_repeats)
    # Fresh interpreters, strictly one after another.
    runs = [spawn({"mode": "measure", "plan": plan, "trace": False}) for _ in range(repeats)]
    walls = [sum(r["chunk_wall_ns"]) / 1e9 for r in runs]
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "plan": plan,
        "end_to_end": metrics.end_to_end_values(runs),
        "samples": {
            "sim_rate": [r["sim_window_s"] / metrics.quiet_wall_s([r]) for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "setup_s": [metrics.setup_s(r) for r in runs],
            "setup_wall_s": [r["setup_done_unix"] - r["spawned_unix"] for r in runs],
            "wall_s": walls,
            "cpu_s": [r["cpu_s"] for r in runs],
        },
        "digest": runs[0]["digest"],
        "counts": runs[0]["counts"],
        "facts": runs[0]["simulated"]["facts"],
        "unresolved_boundaries": runs[0]["unresolved_counts"],
        "over_budget": sum(walls) > seconds,
    }
    traced = None
    if micro is not None:
        spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl")
        traced = spawn(
            {"mode": "measure", "plan": plan, "trace": True, "spans_path": spans_path}
        )
        untraced_work = statistics.median(metrics.normalised_work(r) for r in runs)
        overhead = 100.0 * (metrics.normalised_work(traced) / untraced_work - 1.0)
        record["trace"] = traced["trace"]
        record["unresolved_boundaries"] = (
            traced["trace"]["unresolved_boundaries"] + micro["unresolved"]
            + record["unresolved_boundaries"]
        )
        record["spans_path"] = os.path.relpath(spans_path, ROOT)
        record["per_layer"] = metrics.per_layer_values(runs, traced["trace"], micro, overhead)
    record.update(check_outputs(plan, runs, traced))
    return record


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_record(record: Dict[str, Any], out=sys.stdout) -> None:
    name = record["workload"]
    e2e = record["end_to_end"]
    print(f"== {name} (seed {record['seed']}) — {workloads.WORKLOADS[name]['why']}", file=out)
    for metric, kind, unit, better, bound in metrics.END_TO_END:
        if metric not in e2e:
            continue
        extra = ""
        if metric == "app_latency_p95_ms":
            n = e2e["app_latency_samples"]
            extra = f"  (p50 {_fmt(e2e['app_latency_p50_ms'])} ms, n={n}"
            extra += ")" if n >= 200 else "; fewer than 10 samples beyond p95)"
        print(f"  {metric:<22} {_fmt(e2e[metric]):>12} {unit:<13} {kind}, {better} is better, "
              f"bound {bound:.0%}{extra}", file=out)
    samples = record["samples"]
    for label in ("wall_s", "cpu_s"):
        q = metrics.quartiles(samples[label])
        print(f"  whole-run {label:<12} median {q[1]:.4f}  q1 {q[0]:.4f}  q3 {q[2]:.4f}  "
              f"n={len(samples[label])}", file=out)
    if "per_layer" in record:
        print("  -- per-layer ledger", file=out)
        units = {n: u for n, u, _ in metrics.PER_LAYER}
        for metric, value in record["per_layer"].items():
            print(f"  {metric:<36} {_fmt(value):>14} {units[metric]}", file=out)
    if record["unresolved_boundaries"]:
        print(f"  unresolved_boundaries: {record['unresolved_boundaries']}", file=out)
    if record["over_budget"]:
        print(f"  over budget: measured {sum(samples['wall_s']):.1f} s", file=out)
    print(f"  ops_attempted {record['ops_attempted']}  ops_failed {record['ops_failed']}  "
          f"correct {record['correct']}", file=out)
    for failure in record["failed_checks"]:
        print(f"  FAILED {failure}", file=out)


def write_results(path: str, payload: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def contract_run(args: argparse.Namespace, host: Dict[str, Any]) -> int:
    """``--workload``: the BENCHMARK.json contract, one JSON last line."""
    global _deadline
    _deadline = time.monotonic() + CHILD_TIMEOUT_S
    trace = bool(args.trace)
    record = run_workload(
        args.workload, args.seed, args.seconds, smoke=args.smoke,
        micro=run_micro(args.seed, args.smoke) if trace else None,
        max_repeats=TRACED_RUN_REPEATS if trace else None,
    )
    record["fingerprint"] = host
    print_record(record, out=sys.stderr)
    write_results(
        os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"),
        record,
    )
    if trace:
        units = {n: u for n, u, _ in metrics.PER_LAYER}
        # A boundary that no longer resolves is ``null`` in the results
        # file; the contract line carries numbers only, so it reads 0.
        values = {
            n: {"value": v if v is not None else 0, "unit": units[n]}
            for n, v in record["per_layer"].items()
        }
    else:
        values = {
            n: {"value": record["end_to_end"][n], "unit": unit}
            for n, _, unit, _, _ in metrics.CONTRACT_END_TO_END
        }
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": values,
    }))
    return 0 if record["correct"] else 1


def suite(args: argparse.Namespace, host: Dict[str, Any], trace: bool = True) -> Dict[str, Any]:
    """Every workload: untraced set, then the traced pass and micro."""
    seed, smoke = args.seed, args.smoke
    micro = run_micro(seed, smoke) if trace else None
    records = {}
    for name in workloads.WORKLOADS:
        records[name] = run_workload(name, seed, args.seconds, smoke=smoke, micro=micro)
        print_record(records[name])
        sys.stdout.flush()
    return {"seed": seed, "smoke": smoke, "fingerprint": host, "workloads": records}


def suite_run(args: argparse.Namespace, host: Dict[str, Any]) -> int:
    print(f"fingerprint: {json.dumps(host)}")
    payload = suite(args, host)
    path = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    write_results(path, payload)
    records = payload["workloads"].values()
    attempted = sum(r["ops_attempted"] for r in records)
    failed = sum(r["ops_failed"] for r in records)
    realtime = [n for n, r in payload["workloads"].items() if r["end_to_end"]["sim_rate"] >= 1.0]
    print(f"host class: {host['cpu_model']} x{host['nproc']}: "
          f"{len(realtime)} of {len(payload['workloads'])} workloads simulate at >= 1x real time"
          f"{' (' + ', '.join(realtime) + ')' if realtime else ''}")
    print(f"ops_attempted {attempted}  ops_failed {failed}")
    print(f"results: {os.path.relpath(path, os.getcwd())}")
    return 0 if all(r["correct"] for r in records) else 1


def _records(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        payload = json.load(handle)
    if "workloads" in payload:
        return {n: dict(r, fingerprint=payload["fingerprint"])
                for n, r in payload["workloads"].items()}
    return {payload["workload"]: payload}


def compare(path_a: str, path_b: str, out=sys.stdout) -> int:
    """One row per (workload, metric): A vs B against the bound.

    Returns the number of regressions. Host metrics are only compared
    between identical host fingerprints; simulated metrics always are.
    """
    a_records, b_records = _records(path_a), _records(path_b)
    regressions = 0
    print(f"{'workload':<22} {'metric':<20} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict",
          file=out)
    for name in a_records:
        if name not in b_records:
            continue
        a, b = a_records[name], b_records[name]
        same_host = all(
            a["fingerprint"].get(k) == b["fingerprint"].get(k) for k in HOST_IDENTITY
        )
        same_inputs = a["plan"] == b["plan"]
        for metric, kind, unit, better, bound in metrics.END_TO_END:
            if metric not in a["end_to_end"] or metric not in b["end_to_end"]:
                continue
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (va - vb if better == "higher" else vb - va) / abs(va) if va else float(vb != va)
            detail = ""
            if kind == "host" and not same_host:
                verdict = "refused: different host fingerprints"
            elif kind == "sim" and not same_inputs:
                verdict = "refused: different seeds or shapes"
            else:
                sa, sb = a["samples"].get(metric, []), b["samples"].get(metric, [])
                noisy = max(metrics.spread(sa), metrics.spread(sb)) > bound
                if sa and sb:
                    qa, qb = metrics.quartiles(sa), metrics.quartiles(sb)
                    detail = (f"  repeats A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                              f" B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]")
                separated = bool(sa and sb) and (
                    min(sb) > max(sa) if better == "higher" else max(sb) < min(sa)
                )
                if kind == "host" and noisy and not separated:
                    verdict = "unresolved: spread exceeds the bound"
                elif worse > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                elif kind == "host":
                    verdict = "ok"
                else:
                    verdict = "identical" if va == vb else "changed, for the better"
            print(f"{name:<22} {metric:<20} {_fmt(va):>12} {_fmt(vb):>12} {worse:>+8.1%} "
                  f"{bound:>6.0%}  {verdict}{detail}", file=out)
        if same_inputs and (a["counts"] != b["counts"] or a["digest"] != b["digest"]):
            moved = sorted(k for k in a["counts"] if a["counts"][k] != b["counts"].get(k))
            print(f"{name:<22} exact counts / digest differ: {moved or 'digest only'}", file=out)
            regressions += 1
    return regressions


def selfcheck(args: argparse.Namespace, host: Dict[str, Any]) -> int:
    """Two full untraced sets back to back must agree within the bounds."""
    paths = []
    for index in (1, 2):
        payload = suite(args, host, trace=False)
        path = os.path.join(OUT_DIR, f"selfcheck-seed{args.seed}-{index}.json")
        write_results(path, payload)
        paths.append(path)
    # Agreement is symmetric: neither set may read worse than the other.
    regressions = compare(paths[0], paths[1]) + compare(paths[1], paths[0], out=io.StringIO())
    print(f"selfcheck: {'agree within bounds' if not regressions else f'{regressions} disagreements'}")
    return 0 if not regressions else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured wall seconds one untraced set is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long shapes, 1 repeat")
    parser.add_argument("--out", help="suite results path (default bench/out/)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    host = fingerprint()
    try:
        if args.selfcheck:
            return selfcheck(args, host)
        if args.workload:
            return contract_run(args, host)
        return suite_run(args, host)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
