"""End-to-end integration tests: the whole cell through resilience events.

These exercise the full stack — RU, switch middlebox, PHYs, Orions, L2,
core, UEs — and assert the paper's headline behaviours.
"""

import pytest

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_baseline_cell, build_slingshot_cell
from repro.sim.units import MS, SECOND, US, s_to_ns


def single_ue_config(seed=0, snr=16.0):
    return CellConfig(
        seed=seed, ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=snr)]
    )


@pytest.fixture(scope="module")
def failover_cell():
    """One shared failover run: killed primary at t=0.5 s, ran to 1.0 s."""
    cell = build_slingshot_cell(single_ue_config())
    cell.run_for(s_to_ns(0.5))
    cell.kill_phy_at(0, cell.sim.now + 137 * US)
    kill_time = cell.sim.now + 137 * US
    cell.run_for(s_to_ns(0.5))
    return cell, kill_time


class TestSteadyState:
    def test_cell_reaches_steady_operation(self):
        cell = build_slingshot_cell(single_ue_config(seed=3))
        cell.run_for(s_to_ns(0.4))
        assert cell.ru.stats.slots_with_control > 700
        assert cell.middlebox.stats.dl_filtered > 0  # Standby filtered.
        assert cell.ue(1).stats.rlf_events == 0
        assert cell.l2.stats.ul_crc_ok > 0

    def test_secondary_does_no_signal_processing(self):
        cell = build_slingshot_cell(single_ue_config(seed=4))
        cell.run_for(s_to_ns(0.4))
        assert cell.phy_servers[1].phy.cpu.fec_decodes == 0
        assert cell.phy_servers[1].phy.cpu.work_slots == 0
        assert cell.phy_servers[1].phy.cpu.null_slots > 700

    def test_deterministic_reruns(self):
        """Same seed, same trace — the determinism contract."""

        def run_once():
            cell = build_slingshot_cell(single_ue_config(seed=9))
            cell.run_for(s_to_ns(0.3))
            return (
                cell.sim.events_processed,
                cell.l2.stats.ul_crc_ok,
                cell.ue(1).stats.dl_crc_ok,
            )

        assert run_once() == run_once()


class TestFailover:
    def test_detection_within_one_tti_budget(self, failover_cell):
        cell, kill_time = failover_cell
        detected = cell.trace.last("mbox.failure_detected")
        assert detected is not None
        latency = detected.time - kill_time
        # T + precision + margin for in-flight heartbeats sent pre-kill.
        assert latency <= 2 * 500 * US

    def test_migration_committed_in_data_plane(self, failover_cell):
        cell, _ = failover_cell
        assert cell.middlebox.stats.migrations_executed == 1
        assert cell.middlebox.ru_to_phy.read(0) == 1

    def test_no_rlf_no_reattach(self, failover_cell):
        cell, _ = failover_cell
        assert cell.ue(1).stats.rlf_events == 0
        assert cell.ue(1).attached

    def test_secondary_takes_over_service(self, failover_cell):
        cell, _ = failover_cell
        secondary = cell.phy_servers[1].phy
        assert secondary.cpu.fec_decodes > 0
        assert secondary.cpu.work_slots > 0

    def test_dropped_ttis_at_most_three(self, failover_cell):
        cell, _ = failover_cell
        # Bring-up gaps excluded: measure only around the failure.
        gaps = cell.ru.stats.slots_without_control
        assert gaps <= 3 + 3  # <=3 from failover, <=3 from bring-up.

    def test_ru_never_sees_mixed_slot_sources(self, failover_cell):
        cell, _ = failover_cell
        assert cell.ru.stats.conflicting_source_slots == 0

    def test_uplink_service_resumes(self, failover_cell):
        cell, _ = failover_cell
        crc_ok_before = cell.l2.stats.ul_crc_ok
        cell.run_for(s_to_ns(0.2))
        assert cell.l2.stats.ul_crc_ok > crc_ok_before


class TestPlannedMigration:
    def test_zero_dropped_ttis(self):
        cell = build_slingshot_cell(single_ue_config(seed=5))
        cell.run_for(s_to_ns(0.4))
        gaps_before = cell.ru.stats.slots_without_control
        cell.planned_migration()
        cell.run_for(s_to_ns(0.3))
        assert cell.ru.stats.slots_without_control == gaps_before

    def test_roles_swap_and_service_continues(self):
        cell = build_slingshot_cell(single_ue_config(seed=6))
        cell.run_for(s_to_ns(0.4))
        cell.planned_migration()
        cell.run_for(s_to_ns(0.3))
        assignment = cell.l2_orion.cells[0]
        assert assignment.primary_phy == 1
        assert assignment.secondary_phy == 0
        # The old primary now runs on nulls; the new one does real work.
        assert cell.phy_servers[1].phy.cpu.fec_decodes > 0

    def test_migrate_back_and_forth(self):
        cell = build_slingshot_cell(single_ue_config(seed=7))
        cell.run_for(s_to_ns(0.4))
        for _ in range(4):
            cell.planned_migration()
            cell.run_for(s_to_ns(0.1))
        assert cell.middlebox.stats.migrations_executed == 4
        assert cell.ue(1).stats.rlf_events == 0

    def test_discarded_soft_state_does_not_disconnect(self):
        """The §4 claim in miniature: repeated migrations discard HARQ
        and SNR state yet the UE stays attached and served."""
        from repro.apps.iperf import UdpIperfUplink

        cell = build_slingshot_cell(single_ue_config(seed=8, snr=13.0))
        flow = UdpIperfUplink(
            cell.sim, cell.server, cell.ue(1), "f", 1, bitrate_bps=10e6
        )
        cell.run_for(s_to_ns(0.3))
        flow.start()
        for _ in range(5):
            cell.planned_migration()
            cell.run_for(s_to_ns(0.1))
        cell.run_for(s_to_ns(0.2))
        assert cell.ue(1).stats.rlf_events == 0
        assert flow.sink.stats.packets_received > 0
        assert flow.sink.stats.loss_rate < 0.2


class TestLiveUpgrade:
    def test_upgrade_improves_decoding_without_downtime(self):
        config = CellConfig(
            seed=11,
            ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=10.0)],
            phy_decoder_iterations=2,
            secondary_decoder_iterations=2,
        )
        cell = build_slingshot_cell(config)
        cell.run_for(s_to_ns(0.4))
        gaps_before = cell.ru.stats.slots_without_control
        cell.live_upgrade(decoder_iterations=12)
        cell.run_for(s_to_ns(0.3))
        assert cell.ru.stats.slots_without_control == gaps_before
        new_primary = cell.phy_servers[1].phy
        assert new_primary.config.decoder_iterations == 12
        assert new_primary.alive
        [upgrade] = cell.trace.events("controller.upgrade")
        assert upgrade.fields == {"cell": 0, "phy": 1, "decoder_iterations": 12}

    def test_upgrade_without_a_standby_is_refused(self):
        """After a failover with no spare, cell 0 has no standby to upgrade
        onto: the upgrade is refused before any PHY restarts."""
        cell = build_slingshot_cell(single_ue_config(seed=13))
        cell.run_for(s_to_ns(0.2))
        cell.kill_phy_at(0, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.1))
        assert cell.l2_orion.cells[0].secondary_phy is None
        survivor = cell.phy_servers[1].phy
        iterations = survivor.config.decoder_iterations
        with pytest.raises(RuntimeError, match="no secondary"):
            cell.live_upgrade(decoder_iterations=12)
        assert survivor.alive
        assert survivor.config.decoder_iterations == iterations
        assert not cell.trace.events("controller.upgrade")


class TestBaselineFailover:
    def test_baseline_ue_disconnects_for_seconds(self):
        cell = build_baseline_cell(single_ue_config(seed=12))
        cell.run_for(s_to_ns(0.5))
        cell.kill_phy_at(0, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.4))
        ue = cell.ue(1)
        assert ue.stats.rlf_events == 1
        assert not ue.attached
        # Reattach completes after the ~6.2 s core procedure.
        cell.run_for(s_to_ns(6.5))
        assert ue.attached
        assert ue.stats.reattach_completions == 1

    def test_baseline_reroutes_fronthaul_quickly(self):
        """The baseline gets Slingshot's fast reroute (most charitable
        comparison) — the outage is entirely the UE re-establishment."""
        cell = build_baseline_cell(single_ue_config(seed=13))
        cell.run_for(s_to_ns(0.5))
        cell.kill_phy_at(0, cell.sim.now)
        cell.run_for(s_to_ns(0.3))
        assert cell.middlebox.stats.migrations_executed == 1
        assert cell.trace.count("baseline.rerouted") == 1
