"""Tests for standing up new secondaries after failovers (§6.3).

Orion stores each cell's initialization messages precisely so that new
hot standbys can be spawned on spare servers after the original primary
dies (``L2SideOrion.initialize_secondary`` replays them); with three PHY
servers the cell survives two successive failures.
"""

from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.sim.units import US, s_to_ns


def three_server_config(seed=70):
    return CellConfig(
        seed=seed,
        num_phy_servers=3,
        ue_profiles=[UeProfile(ue_id=1, name="UE", mean_snr_db=16.0)],
    )


class TestSecondaryReplacement:
    def test_spare_server_becomes_standby_after_failover(self):
        cell = build_slingshot_cell(three_server_config())
        cell.run_for(s_to_ns(0.5))
        cell.kill_phy_at(0, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.3))
        assignment = cell.l2_orion.cells[0]
        assert assignment.primary_phy == 1
        assert assignment.secondary_phy is None
        cell.l2_orion.initialize_secondary(0, 2)
        assert assignment.secondary_phy == 2
        cell.run_for(s_to_ns(0.3))
        # The spare now runs the cell on null FAPI (hot standby).
        spare = cell.phy_servers[2].phy
        assert spare.cpu.null_slots > 0
        assert 0 in spare.cells and spare.cells[0].started

    def test_cell_survives_two_successive_failures(self):
        cell = build_slingshot_cell(three_server_config(seed=71))
        cell.run_for(s_to_ns(0.5))
        # First failure: 0 -> 1.
        cell.kill_phy_at(0, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.3))
        cell.l2_orion.initialize_secondary(0, 2)
        cell.run_for(s_to_ns(0.3))
        # Second failure: 1 -> 2.
        cell.kill_phy_at(1, cell.sim.now + 100 * US)
        cell.run_for(s_to_ns(0.4))
        assignment = cell.l2_orion.cells[0]
        assert assignment.primary_phy == 2
        assert cell.middlebox.stats.migrations_executed == 2
        ue = cell.ue(1)
        assert ue.stats.rlf_events == 0
        assert ue.attached
        # Uplink still flows on the third server.
        crc_before = cell.l2.stats.ul_crc_ok
        cell.run_for(s_to_ns(0.3))
        assert cell.l2.stats.ul_crc_ok > crc_before
