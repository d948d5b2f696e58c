"""Robustness matrix: failures beyond the paper's headline scenario.

The paper evaluates primary-PHY failure; a deployable system must also
behave sanely when the *standby* dies, when *both* servers die, when a
failure hits mid-migration, and when failures repeat. These tests pin
that behaviour.
"""

import pytest

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import MS, US, s_to_ns


def single_ue(seed, servers=2):
    return CellConfig(
        seed=seed,
        num_phy_servers=servers,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )


class TestStandbyFailure:
    def test_standby_death_does_not_disturb_service(self):
        """Killing the hot standby must be a non-event for users."""
        cell = build_slingshot_cell(single_ue(80))
        cell.run_for(s_to_ns(0.5))
        crc_before = cell.l2.stats.ul_crc_ok
        gaps_before = cell.ru.stats.slots_without_control
        cell.kill_phy_at(1, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.5))
        assert cell.middlebox.stats.migrations_executed == 0
        assert cell.ru.stats.slots_without_control == gaps_before
        assert cell.l2.stats.ul_crc_ok > crc_before
        assert cell.ue(1).stats.rlf_events == 0
        # The primary assignment never changed.
        assert cell.l2_orion.cells[0].primary_phy == 0

    def test_standby_death_then_primary_death_still_fails_over_if_replaced(self):
        cell = build_slingshot_cell(single_ue(81, servers=3))
        cell.run_for(s_to_ns(0.5))
        cell.kill_phy_at(1, cell.sim.now)  # Standby dies.
        cell.run_for(s_to_ns(0.2))
        # Operator replaces the dead standby with the spare.
        cell.l2_orion.initialize_secondary(0, 2)
        cell.run_for(s_to_ns(0.2))
        cell.kill_phy_at(0, cell.sim.now + 100 * US)  # Primary dies.
        cell.run_for(s_to_ns(0.5))
        assert cell.l2_orion.cells[0].primary_phy == 2
        assert cell.ue(1).stats.rlf_events == 0


class TestTotalFailure:
    def test_both_servers_dead_leads_to_rlf_and_reattach(self):
        """With no surviving PHY, the UE must fall back to the baseline
        behaviour: RLF, then reattach once service returns."""
        cell = build_slingshot_cell(single_ue(82))
        cell.run_for(s_to_ns(0.5))
        cell.kill_phy_at(0, cell.sim.now + 100 * US)
        cell.kill_phy_at(1, cell.sim.now + 150 * US)
        cell.run_for(s_to_ns(0.3))
        ue = cell.ue(1)
        assert not ue.attached
        assert ue.stats.rlf_events == 1
        # Revive a server and re-initialize: the UE comes back after the
        # attach procedure.
        cell.phy_servers[1].phy.restart()
        cell.l2_orion.initialize_secondary(0, 1)
        cell.l2_orion.planned_migration(0)
        cell.run_for(s_to_ns(7.0))
        assert ue.attached
        assert ue.stats.reattach_completions == 1


class TestFailureDuringMigration:
    def test_destination_dies_right_after_planned_migration(self):
        """A failover can chase a planned migration: the old primary
        (now standby) takes the cell back."""
        cell = build_slingshot_cell(single_ue(83))
        cell.run_for(s_to_ns(0.5))
        cell.planned_migration()
        cell.run_for(s_to_ns(0.2))  # Roles swapped: primary is now 1.
        assert cell.l2_orion.cells[0].primary_phy == 1
        cell.kill_phy_at(1, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.5))
        assert cell.l2_orion.cells[0].primary_phy == 0
        assert cell.middlebox.stats.migrations_executed == 2
        assert cell.ue(1).stats.rlf_events == 0

    def test_rapid_double_failover_sequence(self):
        cell = build_slingshot_cell(single_ue(84, servers=3))
        cell.run_for(s_to_ns(0.5))
        cell.kill_phy_at(0, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.25))
        cell.l2_orion.initialize_secondary(0, 2)
        cell.run_for(s_to_ns(0.25))
        cell.kill_phy_at(1, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.5))
        assert cell.l2_orion.cells[0].primary_phy == 2
        assert cell.ue(1).stats.rlf_events == 0
        crc_before = cell.l2.stats.ul_crc_ok
        cell.run_for(s_to_ns(0.3))
        assert cell.l2.stats.ul_crc_ok > crc_before


class TestDetectorRobustness:
    def test_no_false_failover_across_long_healthy_run(self):
        cell = build_slingshot_cell(single_ue(85))
        cell.run_for(s_to_ns(3.0))
        assert cell.trace.count("mbox.failure_detected") == 0
        assert cell.middlebox.stats.migrations_executed == 0

    def test_crash_during_uplink_burst_detected_normally(self):
        from repro.apps.iperf import UdpIperfUplink

        cell = build_slingshot_cell(single_ue(86))
        flow = UdpIperfUplink(
            cell.sim, cell.server, cell.ue(1), "f", 1, bitrate_bps=20e6
        )
        cell.run_for(s_to_ns(0.3))
        flow.start()
        cell.run_for(s_to_ns(0.3))
        kill_at = cell.sim.now + 77 * US
        cell.kill_phy_at(0, kill_at)
        cell.run_for(s_to_ns(0.4))
        detected = cell.trace.last("mbox.failure_detected")
        assert detected is not None
        assert detected.time - kill_at < 2 * 500 * US
        assert cell.ue(1).stats.rlf_events == 0
