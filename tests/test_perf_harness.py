"""Perf harness tests.

Unit-level coverage of report (de)serialization and of what the perf
verb's ``--check`` compares (exact fields only — never a rate), the
docs-staleness check, and — marked slow — the tier-1 smoke: a real
``python -m repro perf --check --quick`` run against the committed
``benchmarks/BENCH_perf.json``. The baseline / subset / exit-code
contract shared with the other verbs is in ``tests/test_harness_contract.py``.
"""

import pytest

from repro.harness import UsageError, bench_path, check_entries
from repro.perf.harness import (
    BenchmarkResult,
    PerfReport,
    load_report,
    run_benchmarks,
)
from repro.perf.runner import PERF
from repro.perf.runner import main as perf_main


def _result(name, rate=1000.0, digest=None, kind="micro", events=1000):
    return BenchmarkResult(
        name=name, kind=kind, description="", events=events,
        wall_seconds=events / rate, events_per_sec=rate, digest=digest,
    )


def _check(current: PerfReport, baseline: PerfReport):
    """What ``repro perf --check`` compares, on in-memory reports."""
    return check_entries(
        PERF.entries(current.as_dict()),
        PERF.entries(baseline.as_dict()),
        PERF.exact_fields,
    )


def test_docs_quote_the_committed_bench_json():
    """README / DESIGN section 9 / EXPERIMENTS perf tables are generated
    from BENCH_perf.json (benchmarks/render_perf_docs.py), never typed."""
    import os
    import subprocess
    import sys

    root = bench_path("perf").parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "render_perf_docs.py"), "--check"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_src_line_ledger_is_current():
    """benchmarks/src_lines.json is the per-package line count of
    src/repro as committed: a PR that grows or shrinks the runtime
    package shows it in its own diff."""
    import importlib.util

    script = bench_path("perf").parent / "render_perf_docs.py"
    spec = importlib.util.spec_from_file_location("render_perf_docs", script)
    render = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(render)
    assert render.SRC_LINES.read_text() == render.src_line_ledger(), (
        "benchmarks/src_lines.json is stale: run "
        "`PYTHONPATH=src python benchmarks/render_perf_docs.py`"
    )


def test_pop_census_attributes_every_event():
    """benchmarks/pop_census.py at smoke size: every popped event of the
    window lands in exactly one callback kind, the carriers are split by
    consumer, and every line it prints parses. No wall number is asserted."""
    import re
    import subprocess
    import sys

    root = bench_path("perf").parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "pop_census.py"),
         "fleet_idle_wave", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    *rows, total, calls = result.stdout.splitlines()
    assert rows[0].startswith("# pop census: fleet_idle_wave seed 1 smoke")
    assert rows[1].startswith("# host: ") and rows[2].startswith("callback kind")
    row = re.compile(r"(\S.*?) +(\d+) +(\d+\.\d\d) +(\d+\.\d) +(\d+\.\d\d)")
    parsed = [row.fullmatch(line) for line in rows[3:]]
    assert all(parsed), [line for line, m in zip(rows[3:], parsed) if m is None]
    kinds = [m.group(1) for m in parsed]
    assert len(set(kinds)) == len(kinds)
    assert {"Link._deliver -> SwitchPort", "ShmChannel._deliver -> PhyProcess",
            "_ServiceQueue._complete -> L2SideOrion._route_request",
            "PhyProcess._slot_tick"} <= set(kinds)
    attributed, delta = re.fullmatch(
        r"events (\d+) == events_processed delta (\d+) \(\d+\.\d /cell-slot\)", total
    ).groups()
    assert int(attributed) == int(delta) == sum(int(m.group(2)) for m in parsed) > 0
    assert re.fullmatch(r"calls /cell-slot: python \d+\.\d c \d+\.\d", calls)


class TestCheckReport:
    def test_clean_pass(self):
        """Equal exact fields pass whatever the rates did."""
        baseline = PerfReport(modes={"full": {"a": _result("a", rate=1000.0)}})
        current = PerfReport(modes={"full": {"a": _result("a", rate=10.0)}})
        assert _check(current, baseline) == []

    def test_missing_benchmark_fails(self):
        """A benchmark that ran but was never recorded is one failure."""
        baseline = PerfReport(modes={"full": {}})
        current = PerfReport(modes={"full": {"a": _result("a")}})
        failures = _check(current, baseline)
        assert len(failures) == 1 and "full/a: not in baseline" in failures[0]

    def test_digest_change_fails_regardless_of_rate(self):
        baseline = PerfReport(
            modes={"full": {"m": _result("m", digest="a" * 64, kind="macro")}}
        )
        current = PerfReport(
            modes={
                "full": {"m": _result("m", rate=9999.0, digest="b" * 64, kind="macro")}
            }
        )
        failures = _check(current, baseline)
        assert len(failures) == 1 and "full/m: digest" in failures[0]

    def test_modes_are_compared_separately(self):
        """Quick and full size the workloads differently, so the exact
        fields are recorded — and compared — per mode."""
        baseline = PerfReport(
            modes={
                "quick": {"a": _result("a", events=100)},
                "full": {"a": _result("a", events=400)},
            }
        )
        assert _check(PerfReport(modes={"quick": {"a": _result("a", events=100)}}),
                      baseline) == []
        failures = _check(
            PerfReport(modes={"quick": {"a": _result("a", events=400)}}), baseline
        )
        assert failures == ["quick/a: events 400 != recorded 100"]

    def test_report_round_trips_through_json(self, tmp_path):
        import json

        report = PerfReport(
            modes={
                "quick": {
                    "m": BenchmarkResult(
                        name="m", kind="macro", description="d", events=10,
                        wall_seconds=2.0, events_per_sec=5.0, sim_ns=1_000_000,
                        sim_wall_ratio=0.0005, digest="c" * 64,
                        counts={"compactions": 3.0},
                        extra={"us_per_hop": 4.5},
                    )
                }
            },
        )
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report.as_dict()))
        loaded = load_report(path)
        assert loaded == report
        assert _check(loaded, report) == []

    def test_unknown_benchmark_name_rejected(self):
        with pytest.raises(UsageError, match="no_such_benchmark"):
            run_benchmarks(names=["no_such_benchmark"], quick=True)

    def test_execution_accounting_round_trips(self, tmp_path):
        import json

        report = PerfReport(
            modes={"quick": {"a": _result("a")}},
            execution={"jobs": 4, "shards": 2, "parallel_speedup": 1.3},
        )
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report.as_dict()))
        loaded = load_report(path)
        assert loaded.execution == {
            "jobs": 4, "shards": 2, "parallel_speedup": 1.3,
        }
        # Execution accounting is machine fact, never a gate input.
        loaded.execution = None
        assert _check(loaded, report) == []


@pytest.mark.slow
class TestPerfSmoke:
    def test_quick_check_against_committed_baseline(self, capsys):
        """The tier-1 smoke: a real --check --quick run must pass against
        the committed BENCH_perf.json (digests, event counts and
        structural counts compared exactly; no rate is gated)."""
        assert bench_path("perf").exists(), (
            "benchmarks/BENCH_perf.json missing; regenerate with "
            "`python -m repro perf --out benchmarks/BENCH_perf.json`"
        )
        exit_code = perf_main(["--check", "--quick"])
        output = capsys.readouterr().out
        assert exit_code == 0, f"perf check failed:\n{output}"
        assert "perf check passed" in output
