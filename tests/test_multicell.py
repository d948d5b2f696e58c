"""Tests for multi-cell deployments with shared PHY servers.

Each of the two servers simultaneously hosts one cell's primary PHY and
the other cell's null-FAPI standby — the economical placement the paper
describes for real deployments (§8). The pod is a ``placement`` of the
one cell builder, so everything that takes a cell takes it too.
"""

import pytest

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.checkpoint.snapshot import Checkpoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ProcessFaultSpec
from repro.sim.units import MS, US, s_to_ns

#: Cell 0: primary on server 0, standby on server 1; cell 1 the reverse.
CROSSED = [(0, 1), (1, 0)]


def build_pod(seed=50):
    return build_slingshot_cell(
        CellConfig(
            seed=seed,
            ue_profiles=[UeProfile(ue_id=0, name="UE", mean_snr_db=16.0)],
        ),
        placement=CROSSED,
    )


@pytest.fixture(scope="module")
def steady():
    deployment = build_pod()
    deployment.run_for(s_to_ns(0.5))
    return deployment


class TestDualCellSteadyState:
    def test_both_cells_serve_traffic(self, steady):
        for site in steady.sites:
            assert site.ru.stats.slots_with_control > 900
            assert site.l2.stats.ul_crc_ok > 0

    def test_each_server_hosts_primary_and_standby_work(self, steady):
        """Both servers do real work (their own cell) AND null slots
        (the other cell's standby) inside one PHY process."""
        for node in steady.phy_servers:
            assert node.phy.cpu.work_slots > 0
            assert node.phy.cpu.null_slots > 0
            assert len(node.phy.cells) == 2  # Hosts both cells.

    def test_standby_streams_filtered_per_ru(self, steady):
        assert steady.middlebox.stats.dl_filtered > 1500
        for site in steady.sites:
            assert site.ru.stats.conflicting_source_slots == 0

    def test_no_rlf_anywhere(self, steady):
        for ue in steady.ues.values():
            assert ue.stats.rlf_events == 0


class TestDualCellFailover:
    def test_killing_one_server_fails_over_only_its_cell(self):
        deployment = build_pod(seed=51)
        deployment.run_for(s_to_ns(0.5))
        deployment.kill_phy_at(0, deployment.sim.now + 100 * US)
        deployment.run_for(s_to_ns(0.5))
        # Cell 0 (primary was server 0) migrated to server 1.
        assignment0 = deployment.l2_orion.cells[0]
        assert assignment0.primary_phy == 1
        # Cell 1 kept its primary (server 1); only its standby died.
        assignment1 = deployment.l2_orion.cells[1]
        assert assignment1.primary_phy == 1
        # Exactly one migration executed (cell 0's).
        assert deployment.middlebox.stats.migrations_executed == 1
        # No UE in either cell disconnected.
        for ue in deployment.ues.values():
            assert ue.stats.rlf_events == 0
            assert ue.attached

    def test_survivor_server_carries_both_cells(self):
        deployment = build_pod(seed=52)
        deployment.run_for(s_to_ns(0.5))
        deployment.kill_phy_at(0, deployment.sim.now)
        deployment.run_for(s_to_ns(0.5))
        survivor = deployment.phy_servers[1].phy
        decodes_before = survivor.cpu.fec_decodes
        deployment.run_for(s_to_ns(0.3))
        # The survivor now decodes uplink for both cells.
        assert survivor.cpu.fec_decodes > decodes_before
        served_rus = {cell.ru_id for cell in survivor.cells.values() if cell.started}
        assert served_rus == {0, 1}

    def test_planned_migration_per_cell_is_independent(self):
        deployment = build_pod(seed=53)
        deployment.run_for(s_to_ns(0.4))
        deployment.l2_orion.planned_migration(1)
        deployment.run_for(s_to_ns(0.3))
        # Cell 1 swapped onto server 0; cell 0 untouched.
        assert deployment.l2_orion.cells[1].primary_phy == 0
        assert deployment.l2_orion.cells[0].primary_phy == 0
        assert deployment.middlebox.ru_to_phy.read(1) == 0
        assert deployment.middlebox.ru_to_phy.read(0) == 0
        for ue in deployment.ues.values():
            assert ue.stats.rlf_events == 0


@pytest.mark.parametrize("placement", [[], [(0, 0)], [(0, 2)], [(2, None)]])
def test_placement_must_fit_the_servers(placement):
    with pytest.raises(ValueError, match="placement"):
        build_slingshot_cell(CellConfig(num_phy_servers=2), placement=placement)


class TestPodIsAnOrdinaryCell:
    """What the hand-wired ``DualCellDeployment`` could not take: a fault
    plan through the injector, and a checkpoint mid-run."""

    SPLIT_NS = 450 * MS
    END_NS = 800 * MS

    def _armed_pod(self):
        pod = build_pod(seed=54)
        plan = FaultPlan(
            name="pod-crash",
            process_faults=(
                ProcessFaultSpec(phy_id=0, kind="crash", at_ns=500 * MS),
            ),
        )
        injector = FaultInjector(pod, plan)
        injector.arm()
        return pod, injector

    def test_fault_plan_crash_and_checkpoint_restore(self):
        straight, _ = self._armed_pod()
        straight.run_until(self.END_NS)
        # The plan's crash of server 0 failed over cell 0 only.
        assert straight.trace.count("mbox.failure_detected") == 1
        assert straight.middlebox.stats.migrations_executed == 1
        assert straight.l2_orion.cells[0].primary_phy == 1
        assert straight.l2_orion.cells[1].primary_phy == 1
        for ue in straight.ues.values():
            assert ue.stats.rlf_events == 0

        paused, injector = self._armed_pod()
        paused.run_until(self.SPLIT_NS)
        # The injector rides along: its scheduled crash is still ahead.
        restored, _ = Checkpoint.capture((paused, injector)).restore()
        restored.run_until(self.END_NS)
        assert len(restored.sites) == 2
        assert restored.trace.digest() == straight.trace.digest()
