"""Perf harness, sampler, and regression-gate tests.

Unit-level coverage of report (de)serialization and every ``--check``
failure mode, behavioural checks that the ``_pop`` sampler is invisible
to event execution, and — marked slow — the tier-1 smoke: a real
``python -m repro perf --check --quick`` run against the committed
``benchmarks/BENCH_perf.json``.
"""

import pytest

from repro.perf.harness import (
    MIN_PARALLEL_SPEEDUP,
    SPEEDUP_GATES,
    BenchmarkResult,
    PerfReport,
    check_report,
    load_report,
    parallel_speedup_gate,
    run_benchmarks,
)
from repro.perf.runner import default_bench_path
from repro.perf.runner import main as perf_main
from repro.perf.sampler import PopSampler, subsystem_of
from repro.sim.engine import Simulator


def _result(name, rate=1000.0, digest=None, kind="micro"):
    return BenchmarkResult(
        name=name, kind=kind, description="", events=1000,
        wall_seconds=1000.0 / rate, events_per_sec=rate, digest=digest,
    )


def test_docs_quote_the_committed_bench_json():
    """README / DESIGN section 9 / EXPERIMENTS perf tables are generated
    from BENCH_perf.json (benchmarks/render_perf_docs.py), never typed."""
    import os
    import subprocess
    import sys

    root = default_bench_path().parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "render_perf_docs.py"), "--check"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0, result.stdout + result.stderr


class TestCheckReport:
    def test_clean_pass(self):
        baseline = PerfReport(quick=False, results={"a": _result("a")})
        current = PerfReport(quick=False, results={"a": _result("a")})
        assert check_report(current, baseline) == []

    def test_missing_benchmark_fails(self):
        baseline = PerfReport(quick=False, results={"a": _result("a")})
        current = PerfReport(quick=False, results={})
        failures = check_report(current, baseline)
        assert len(failures) == 1 and "not run" in failures[0]

    def test_digest_change_fails_regardless_of_rate(self):
        baseline = PerfReport(
            quick=False, results={"m": _result("m", digest="a" * 64, kind="macro")}
        )
        current = PerfReport(
            quick=False,
            results={"m": _result("m", rate=9999.0, digest="b" * 64, kind="macro")},
        )
        failures = check_report(current, baseline)
        assert any("digest changed" in f for f in failures)

    def test_rate_below_tolerance_fails(self):
        baseline = PerfReport(quick=False, results={"a": _result("a", rate=1000.0)})
        current = PerfReport(quick=False, results={"a": _result("a", rate=400.0)})
        assert check_report(current, baseline, tolerance=0.5)
        assert not check_report(current, baseline, tolerance=0.3)
        assert not check_report(current, baseline, tolerance=0.0)

    def test_macro_gated_on_sim_wall_ratio_not_events_per_sec(self):
        """Removing half a scenario's events makes it faster and its
        events/s lower; the gate must follow sim/wall."""
        def macro(events, wall):
            return BenchmarkResult(
                name="m", kind="macro", description="", events=events,
                wall_seconds=wall, events_per_sec=events / wall,
                sim_ns=1_000_000_000, sim_wall_ratio=1.0 / wall,
            )

        baseline = PerfReport(quick=False, results={"m": macro(100_000, 2.0)})
        fewer_events = PerfReport(quick=False, results={"m": macro(30_000, 1.5)})
        assert check_report(fewer_events, baseline) == []
        slower = PerfReport(quick=False, results={"m": macro(100_000, 5.0)})
        failures = check_report(slower, baseline)
        assert len(failures) == 1 and "sim/wall" in failures[0]

    def test_engine_speedup_gate(self):
        full, quick = SPEEDUP_GATES["engine_churn"]
        between = {"engine_churn": (full + quick) / 2}
        baseline = PerfReport(quick=False)
        current = PerfReport(quick=False, speedups=between)
        failures = check_report(current, baseline)
        assert any("speedup[engine_churn]" in f for f in failures)
        # The same measurement passes the relaxed --quick gate.
        assert check_report(PerfReport(quick=True, speedups=between),
                            PerfReport(quick=True)) == []

    def test_codec_speedup_gate(self):
        current = PerfReport(quick=False, speedups={"fapi_codec": 0.9})
        failures = check_report(current, PerfReport(quick=False))
        assert any("speedup[fapi_codec]" in f for f in failures)

    def test_report_round_trips_through_json(self, tmp_path):
        report = PerfReport(
            quick=True,
            results={
                "m": BenchmarkResult(
                    name="m", kind="macro", description="d", events=10,
                    wall_seconds=2.0, events_per_sec=5.0, sim_ns=1_000_000,
                    sim_wall_ratio=0.0005, digest="c" * 64,
                    subsystem_shares={"repro.phy": 0.5, "repro.sim": 0.5},
                    extra={"compactions": 3.0},
                )
            },
            speedups={"engine_churn": 3.5},
        )
        path = tmp_path / "bench.json"
        report.write(path)
        loaded = load_report(path)
        assert loaded.quick is True
        assert loaded.speedups == {"engine_churn": 3.5}
        restored = loaded.results["m"]
        assert restored.digest == "c" * 64
        assert restored.sim_ns == 1_000_000
        assert restored.subsystem_shares == {"repro.phy": 0.5, "repro.sim": 0.5}
        assert restored.extra == {"compactions": 3.0}
        assert check_report(loaded, report) == []

    def test_unknown_benchmark_name_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(names=["no_such_benchmark"], quick=True)

    def test_phy_batch_speedup_gate(self):
        current = PerfReport(quick=False, speedups={"phy_slot_batch": 1.0})
        failures = check_report(current, PerfReport(quick=False))
        assert any("speedup[phy_slot_batch]" in f for f in failures)
        # 1.40x clears the relaxed --quick gate but not the full one.
        slow = {"phy_slot_batch": 1.40}
        assert check_report(
            PerfReport(quick=True, speedups=slow), PerfReport(quick=True)
        ) == []
        assert check_report(
            PerfReport(quick=False, speedups=slow), PerfReport(quick=False)
        ) != []

    def test_parallel_speedup_gate_scales_with_probe(self):
        # Real >= 3x parallel capacity demands the full 1.8x.
        assert parallel_speedup_gate(4.0) == MIN_PARALLEL_SPEEDUP
        assert parallel_speedup_gate(3.0) == MIN_PARALLEL_SPEEDUP
        # Throttled machines get roughly half the probe...
        assert parallel_speedup_gate(2.0) == pytest.approx(1.0)
        # ...but never less than the no-catastrophic-slowdown floor.
        assert parallel_speedup_gate(0.5) == pytest.approx(0.4)
        assert parallel_speedup_gate(0.0) == pytest.approx(0.4)

    def test_parallel_campaign_gate_uses_probe_from_extra(self):
        parallel = _result("campaign_shards_parallel", kind="macro")
        parallel.extra = {"measured_parallelism": 4.0}
        current = PerfReport(
            quick=False,
            results={"campaign_shards_parallel": parallel},
            speedups={"parallel_campaign": 1.5},
        )
        failures = check_report(current, PerfReport(quick=False))
        assert any("speedup[parallel_campaign]" in f for f in failures)
        # On a throttled machine the same 1.5x clears the scaled gate.
        parallel.extra = {"measured_parallelism": 1.2}
        assert check_report(current, PerfReport(quick=False)) == []

    def test_parallel_campaign_gate_absent_without_result(self):
        # Speedup recorded but the parallel leg wasn't run this time:
        # no probe, no gate.
        current = PerfReport(quick=False, speedups={"parallel_campaign": 0.1})
        assert check_report(current, PerfReport(quick=False)) == []

    def test_execution_accounting_round_trips(self, tmp_path):
        report = PerfReport(
            quick=True,
            results={"a": _result("a")},
            execution={"jobs": 4, "shards": 2, "parallel_speedup": 1.3},
        )
        path = tmp_path / "bench.json"
        report.write(path)
        loaded = load_report(path)
        assert loaded.execution == {
            "jobs": 4, "shards": 2, "parallel_speedup": 1.3,
        }
        # Execution accounting is machine fact, never a gate input.
        assert check_report(loaded, report) == []


class TestPopSampler:
    def test_subsystem_attribution(self):
        assert subsystem_of(Simulator.step) == "repro.sim"
        # Non-repro callables bill to their top-level module.
        probe = lambda: None  # noqa: E731
        assert subsystem_of(probe) == probe.__module__.split(".")[0]
        assert subsystem_of(int) == "builtins"

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            PopSampler(every=0)

    def test_sampler_restores_pop_and_is_not_reentrant(self):
        original = Simulator._pop
        with PopSampler() as sampler:
            assert Simulator._pop is not original
            with pytest.raises(RuntimeError):
                sampler.__enter__()
        assert Simulator._pop is original

    def test_sampling_does_not_change_execution(self):
        def run(sampled):
            sim = Simulator()
            order = []

            def work(i):
                order.append((sim.now, i))
                if i < 100:
                    sim.schedule(10 + (i % 3), work, i + 1)

            sim.schedule(5, work, 0)
            if sampled:
                with PopSampler(every=1):
                    sim.run()
            else:
                sim.run()
            return order, sim.events_processed

        assert run(sampled=True) == run(sampled=False)

    def test_every_event_sampled_at_interval_one(self):
        sim = Simulator()
        for i in range(20):
            sim.schedule(i, lambda: None)
        with PopSampler(every=1) as sampler:
            sim.run()
        assert sampler.sampled_events == 20
        shares = sampler.shares()
        assert shares and abs(sum(shares.values()) - 1.0) < 1e-9


@pytest.mark.slow
class TestPerfSmoke:
    def test_quick_check_against_committed_baseline(self, capsys):
        """The tier-1 smoke: a real --check --quick run must pass against
        the committed BENCH_perf.json (exact digest comparison; generous
        rate tolerance for machine variance)."""
        assert default_bench_path().exists(), (
            "benchmarks/BENCH_perf.json missing; regenerate with "
            "`python -m repro perf`"
        )
        exit_code = perf_main(["--check", "--quick", "--tolerance", "0.2"])
        output = capsys.readouterr().out
        assert exit_code == 0, f"perf check failed:\n{output}"
        assert "perf check passed" in output
