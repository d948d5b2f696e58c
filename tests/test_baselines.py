"""Tests for the baselines: pre-copy VM migration and the software
fronthaul middlebox model."""

import numpy as np
import pytest

from repro.baselines import vm_migration
from repro.baselines.software_mbox import SoftwareMiddleboxModel
from repro.baselines.vm_migration import PrecopyMigrationModel, TransportKind
from repro.sim.units import MS, US


class TestPrecopyModel:
    @pytest.fixture(scope="class")
    def campaigns(self):
        model = PrecopyMigrationModel(rng=np.random.default_rng(0))
        return (
            model.run_campaign(TransportKind.TCP, 40),
            model.run_campaign(TransportKind.RDMA, 40),
        )

    def test_pause_is_hundreds_of_ms(self, campaigns):
        tcp, rdma = campaigns
        overall = [r.pause_time_ms for r in tcp + rdma]
        median = float(np.median(overall))
        assert 150.0 < median < 400.0  # Paper: 244 ms.

    def test_rdma_faster_than_tcp(self, campaigns):
        tcp, rdma = campaigns
        assert np.median([r.pause_time_ms for r in rdma]) < np.median(
            [r.pause_time_ms for r in tcp]
        )

    def test_flexran_crashes_in_every_run(self, campaigns):
        tcp, rdma = campaigns
        assert all(r.phy_crashed for r in tcp + rdma)

    def test_pause_exceeds_jitter_budget_by_orders_of_magnitude(self, campaigns):
        tcp, _ = campaigns
        budget = vm_migration.PHY_JITTER_TOLERANCE_NS
        assert min(r.pause_time_ns for r in tcp) > 1000 * budget

    def test_precopy_converges_before_round_cap(self):
        model = PrecopyMigrationModel(rng=np.random.default_rng(1))
        run = model.migrate_once(TransportKind.RDMA)
        assert run.rounds < vm_migration.MAX_ROUNDS

    def test_total_includes_pause(self):
        model = PrecopyMigrationModel(rng=np.random.default_rng(2))
        run = model.migrate_once(TransportKind.TCP)
        assert run.total_time_ns > run.pause_time_ns

    def test_higher_bandwidth_lowers_pause(self, monkeypatch):
        medians = {}
        for bandwidth in (20e9, 5e9):
            monkeypatch.setattr(vm_migration, "RDMA_BANDWIDTH_BYTES_PER_S", bandwidth)
            runs = PrecopyMigrationModel(rng=np.random.default_rng(4)).run_campaign(
                TransportKind.RDMA, 15
            )
            medians[bandwidth] = np.median([r.pause_time_ms for r in runs])
        assert medians[20e9] < medians[5e9]


class TestSoftwareMbox:
    @pytest.fixture(scope="class")
    def model(self):
        return SoftwareMiddleboxModel(rng=np.random.default_rng(0))

    def test_p99999_latency_near_10us(self, model):
        added = model.added_latency_percentile_ns(99.999)
        assert 6_000 < added < 16_000  # Paper: ~10 us.

    def test_median_latency_much_lower(self, model):
        assert model.added_latency_percentile_ns(50) < 6_000

    def test_radius_reduction_near_10_percent(self, model):
        reduction = model.radius_reduction_fraction()
        assert 0.06 < reduction < 0.16  # Paper: ~10 %.

    def test_baseline_radius_is_20km(self, model):
        assert model.radius_km(0.0) == pytest.approx(20.0)

    def test_cpu_overhead_near_10_percent(self, model):
        assert model.cpu_overhead_fraction() == pytest.approx(0.10, abs=0.03)

    def test_nic_bandwidth_doubles(self, model):
        assert model.nic_bandwidth_multiplier() == 2.0
