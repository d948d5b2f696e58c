"""Smoke tests for every experiment harness (scaled-down parameters).

Full-length runs live in benchmarks/; these verify each harness produces
a structurally sound result and preserves the paper's qualitative shape.
"""

import pytest

from repro.experiments import (
    ablations,
    fig3_vm_migration,
    fig8_video,
    fig11_upgrade,
    fig12_orion_latency,
    sec52_detector,
    sec82_dropped_ttis,
    sec85_overhead,
    sec86_switch,
    table2_stress,
)


class TestFig3:
    def test_shape(self):
        result = fig3_vm_migration.run(runs_per_transport=20)
        assert 150.0 < result.median_pause_ms() < 400.0
        assert result.crash_fraction() == 1.0
        cdf = result.cdf(fig3_vm_migration.TransportKind.TCP)
        assert len(cdf) == 20
        assert fig3_vm_migration.summarize(result)


class TestFig12:
    def test_latency_rises_with_load_but_stays_bounded(self):
        result = fig12_orion_latency.run(duration_s=0.3)
        medians = [p.median_us for p in result.points]
        assert medians == sorted(medians)
        assert result.max_added_latency_us() < 400.0  # TTI budget margin.
        assert result.points[0].median_us < 10.0  # Idle is microseconds.
        assert fig12_orion_latency.summarize(result)


class TestSec86:
    def test_resources_and_gap(self):
        result = sec86_switch.run(gap_duration_s=1.0)
        assert result.resource_percent["sram_bits"] == pytest.approx(5.3, abs=0.5)
        assert result.max_gap_us < 450.0  # Never above the timeout.
        assert result.max_gap_us > 200.0  # But a real fraction of it.
        assert result.sram_scaling[1024] > result.sram_scaling[64]
        assert sec86_switch.summarize(result)


class TestSec52:
    def test_detection_latency_within_budget(self):
        result = sec52_detector.run(trials=3, healthy_seconds=1.0)
        assert len(result.detection_latencies_us) == 3
        # Measured from the kill, which follows the last heartbeat: never
        # more than detection - last heartbeat, which is at most T.
        assert result.max_us() <= result.timeout_us
        assert result.false_positives == 0
        assert sec52_detector.summarize(result)


class TestSec82:
    def test_dropped_tti_comparison(self):
        result = sec82_dropped_ttis.run(trials=2)
        assert result.max_failover_dropped() <= 3  # Paper: <= 3.
        assert result.planned_dropped == 0
        assert result.vm_migration_dropped > 100
        assert sec82_dropped_ttis.summarize(result)


class TestSec85:
    def test_secondary_overhead_negligible(self):
        result = sec85_overhead.run(duration_s=1.0)
        assert result.secondary_cpu_fraction < 0.05
        assert result.secondary_fec_decodes == 0
        assert result.null_fapi_bytes_per_s < 1_000_000  # < 1 MB/s.
        assert sec85_overhead.summarize(result)


class TestFig8:
    def test_slingshot_vs_baseline_outage(self):
        result = fig8_video.run(duration_s=4.0, failure_at_s=1.5)
        assert result.failure_with_slingshot.outage_seconds == 0.0
        assert result.failure_without_slingshot.outage_seconds > 1.5
        assert result.failure_with_slingshot.rlf_events == 0
        assert result.failure_without_slingshot.rlf_events == 1
        assert fig8_video.summarize(result)


class TestFig11:
    def test_upgrade_improves_phones(self):
        result = fig11_upgrade.run(duration_s=4.0, upgrade_at_s=2.0)
        for phone in ("OnePlus N10", "Samsung A52s"):
            before, after = result.mean_before_after(phone)
            assert after > before * 1.3
        fairness_before, fairness_after = result.fairness_before_after()
        assert fairness_after >= fairness_before
        assert result.control_gaps_during_upgrade == 0
        assert fig11_upgrade.summarize(result)


class TestTable2:
    def test_low_rate_stress_row(self):
        result = table2_stress.run(rates_per_s=[5.0], duration_s=3.0)
        row = result.rows[0]
        assert row.migrations_executed >= 10
        assert row.blackout_bins_10ms <= 2
        assert row.max_tput_mbps_per_10ms > row.min_tput_mbps_per_10ms
        assert table2_stress.summarize(result)


class TestAblations:
    def test_tti_alignment_prevents_mixed_slots(self):
        result = ablations.tti_alignment(trials=1)
        assert result.aligned_conflicting_slots == 0
        assert result.unaligned_conflicting_slots >= 1

    def test_software_vs_switch(self):
        comparison = ablations.software_vs_switch_middlebox()
        assert comparison.software_radius_reduction > 0.05
        assert comparison.switch_added_latency_us < 1.0
        assert comparison.software_nic_multiplier == 2.0

    def test_null_vs_duplicate_fapi(self):
        result = ablations.null_vs_duplicate_fapi(duration_s=1.0)
        assert result.null_secondary_fraction < 0.05
        assert result.duplicate_secondary_fraction > 0.5

    def test_detector_timeout_sweep_tradeoff(self):
        points = ablations.detector_timeout_sweep(timeouts_us=[250.0, 450.0, 1800.0])
        by_timeout = {p.timeout_us: p for p in points}
        # Too-low timeout false-positives on healthy gaps (~390 us).
        assert by_timeout[250.0].false_positives > 0
        assert by_timeout[450.0].false_positives == 0
        # Larger timeouts detect more slowly.
        assert (
            by_timeout[1800.0].detection_latency_us
            > by_timeout[450.0].detection_latency_us
        )
