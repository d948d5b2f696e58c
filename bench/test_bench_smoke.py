"""Seconds-long smoke of the benchmark itself.

Not part of the tier-1 ``testpaths``; run it on its own::

    python -m pytest bench/test_bench_smoke.py

One repeat of every workload at smoke size (0.3 s cells, 8-cell fleets)
through the same code path as the full suite, traced pass and micro
drivers included.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


#: End-to-end metrics that apply to each workload (the three host
#: metrics apply to all).
SIMULATED = {
    "cell_ping_failover": {"downtime_ms", "dropped_ttis", "detect_latency_us",
                           "goodput_mbps", "app_latency_p95_ms"},
    "cell_udp_ul_failover": {"downtime_ms", "dropped_ttis", "detect_latency_us", "goodput_mbps"},
    "cell_tcp_dl_failover": {"downtime_ms", "dropped_ttis", "detect_latency_us", "goodput_mbps"},
    "fleet_dense_wave": {"downtime_ms", "dropped_ttis", "detect_latency_us", "goodput_mbps",
                         "app_latency_p95_ms", "availability_pct"},
    "fleet_idle_wave": {"dropped_ttis", "detect_latency_us", "availability_pct"},
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as handle:
        return json.load(handle), proc.stdout


def test_every_named_metric_is_present_and_finite(smoke):
    payload, printed = smoke
    assert set(payload["workloads"]) == set(workloads.WORKLOADS)
    for name, record in payload["workloads"].items():
        expected = {row[0] for row in metrics.CONTRACT_END_TO_END} | SIMULATED[name]
        measured = set(record["end_to_end"]) & {row[0] for row in metrics.END_TO_END}
        assert measured == expected, name
        for metric in expected:
            assert finite(record["end_to_end"][metric]), (name, metric)
            assert metric in printed
        assert set(record["per_layer"]) == {row[0] for row in metrics.PER_LAYER}
        for metric, value in record["per_layer"].items():
            assert finite(value), (name, metric, value)
        assert record["unresolved_boundaries"] == []
        assert record["correct"] and record["ops_failed"] == 0, record["failed_checks"]
        assert record["ops_attempted"] >= 1
    for key in ("cpu_model", "nproc", "python", "numpy", "git_sha", "git_dirty", "loadavg_1m"):
        assert key in payload["fingerprint"]


def test_span_self_times_sum_to_the_root(smoke):
    payload, _ = smoke
    for name, record in payload["workloads"].items():
        trace = record["trace"]
        assert trace["root_s"] > 0
        assert abs(trace["self_sum_s"] - trace["root_s"]) <= 0.01 * trace["root_s"], name
        with open(os.path.join(ROOT, record["spans_path"])) as handle:
            header = json.loads(handle.readline())
            assert header[-1] == "failover"
            assert handle.readline(), f"{name}: no raw spans around the fault"


def test_fleets_load_and_bypass_the_backend(smoke):
    payload, _ = smoke
    dense = payload["workloads"]["fleet_dense_wave"]["counts"]
    idle = payload["workloads"]["fleet_idle_wave"]["counts"]
    assert dense["fleet.kernel_invocations"] > idle["fleet.kernel_invocations"]
    assert idle["fleet.kernel_invocations"] < 10 and idle["fleet.blocks_encoded"] < 10


def test_contract_file_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    for entry in contract["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]] == [
        (name, unit, better, bound)
        for name, _, unit, better, bound in metrics.CONTRACT_END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        tuple(row) for row in metrics.PER_LAYER
    ]
    assert len(contract["per_layer"]) <= 128
    assert contract["run_seconds"] == run.DEFAULT_SECONDS


def test_contract_line_carries_exactly_the_declared_metrics():
    for trace, declared in ((0, metrics.CONTRACT_END_TO_END), (1, metrics.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fleet_idle_wave",
             "--seed", "3", "--seconds", "5", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [row[0] for row in declared]
        for value in line["metrics"].values():
            assert set(value) == {"value", "unit"} and finite(value["value"])


def test_same_seed_same_plan_and_other_seed_other_plan():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
        assert workloads.plan(name, 7) != workloads.plan(name, 8)


def test_a_moved_stats_path_nulls_its_counter_and_nothing_else():
    deployment = object.__new__(workloads.Deployment)
    deployment.sim = types.SimpleNamespace(events_processed=7)
    deployment.cells = [types.SimpleNamespace()]  # a cell whose attributes all moved
    deployment.flows, deployment.fleet, deployment.unresolved_counts = [], None, []
    counts = deployment.counts()
    assert set(counts) == set(workloads.COUNTERS)
    assert counts["sim.events"] == 7 and counts["fleet.pool_grants"] == 0
    assert counts["net.drops"] is None
    assert any(note.startswith("net.drops: ") for note in deployment.unresolved_counts)
    assert workloads.delta(counts, counts, "net.drops") is None
    assert metrics._ratio(None, 3) is None and metrics._ratio(3, 0) == 0.0


def _record(rate, samples, cpu="cpu-a", digest="d", events=10):
    return {
        "workload": "cell_udp_ul_failover", "plan": {"seed": 0}, "digest": digest,
        "fingerprint": {"cpu_model": cpu, "nproc": 2, "python": "3", "numpy": "2"},
        "end_to_end": {"sim_rate": rate, "goodput_mbps": 15.7},
        "samples": {"sim_rate": samples},
        "counts": {"sim.events": events},
    }


def test_compare_flags_regressions_and_refuses_other_hosts(tmp_path):
    def compare(a, b):
        paths = []
        for index, record in enumerate((a, b)):
            path = tmp_path / f"{index}.json"
            path.write_text(json.dumps(record))
            paths.append(str(path))
        out = io.StringIO()
        return run.compare(paths[0], paths[1], out=out), out.getvalue()

    steady = [1.0, 1.01, 0.99]
    regressions, text = compare(_record(1.0, steady), _record(0.8, [0.8, 0.81, 0.79]))
    assert regressions == 1 and "REGRESSION" in text
    regressions, text = compare(_record(1.0, steady), _record(0.97, [0.97, 0.98, 0.96]))
    assert regressions == 0 and "identical" in text
    regressions, text = compare(_record(1.0, [0.8, 1.0, 1.3]), _record(0.85, [0.7, 0.85, 1.1]))
    assert regressions == 0 and "unresolved" in text
    regressions, text = compare(_record(1.0, steady), _record(0.5, steady, cpu="cpu-b"))
    assert regressions == 0 and "refused" in text and "identical" in text
    regressions, text = compare(_record(1.0, steady), _record(1.0, steady, events=11))
    assert regressions == 1 and "sim.events" in text
