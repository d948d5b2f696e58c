"""Tests for the massive-MIMO beamforming-state extension (§10)."""

import pytest

from repro.phy import mimo as mimo_module
from repro.phy.mimo import BeamformingTracker, max_gain_db


class TestBeamformingTracker:
    def test_untracked_ue_has_no_gain(self):
        tracker = BeamformingTracker()
        assert tracker.gain_db(1, slot=100) == 0.0

    def test_gain_grows_with_soundings(self):
        tracker = BeamformingTracker()
        gains = [tracker.on_sounding(1, slot) for slot in range(0, 100, 5)]
        assert gains == sorted(gains)
        assert gains[-1] > gains[0]

    def test_gain_converges_near_array_gain(self):
        """Steady-state gain balances estimation against channel aging:
        it converges to a large fraction of the ideal array gain (not
        all of it — estimates are always slightly stale)."""
        tracker = BeamformingTracker()
        for slot in range(0, 2000, 5):
            tracker.on_sounding(1, slot)
        steady = tracker.gain_db(1, 2000)
        assert 0.75 * max_gain_db() < steady <= max_gain_db()

    def test_64_antennas_give_18db_ideal(self):
        assert mimo_module.NUM_ANTENNAS == 64
        assert max_gain_db() == pytest.approx(18.06, abs=0.1)

    def test_estimates_age_without_sounding(self, monkeypatch):
        monkeypatch.setattr(mimo_module, "AGING_HALF_LIFE_SLOTS", 100)
        tracker = BeamformingTracker()
        for slot in range(0, 500, 5):
            tracker.on_sounding(1, slot)
        fresh = tracker.gain_db(1, 500)
        stale = tracker.gain_db(1, 500 + 100)
        assert stale == pytest.approx(fresh / 2, rel=0.05)

    def test_discard_models_migration(self):
        tracker = BeamformingTracker()
        for slot in range(0, 200, 5):
            tracker.on_sounding(1, slot)
            tracker.on_sounding(2, slot)
        affected = tracker.discard_all()
        assert affected == 2
        assert tracker.gain_db(1, 200) == 0.0

    def test_reconvergence_takes_tens_of_soundings(self):
        """The paper's 'tens to hundreds of slots' horizon."""
        tracker = BeamformingTracker()
        for slot in range(0, 1000, 5):
            tracker.on_sounding(1, slot)
        tracker.discard_all()
        soundings = 0
        slot = 1000
        while tracker.gain_db(1, slot) < 0.8 * max_gain_db():
            slot += 5
            tracker.on_sounding(1, slot)
            soundings += 1
            assert soundings < 500
        assert soundings >= 10

    def test_per_ue_state_independent(self):
        tracker = BeamformingTracker()
        for slot in range(0, 100, 5):
            tracker.on_sounding(1, slot)
        assert tracker.gain_db(1, 100) > 0.0
        assert tracker.gain_db(2, 100) == 0.0


class TestPhyIntegration:
    def test_mimo_phy_lifts_effective_snr(self):
        """A UE unusable at its base SNR becomes decodable once the PHY's
        beamforming state converges."""
        from repro.cell.config import CellConfig, UeProfile
        from repro.cell.deployment import build_slingshot_cell
        from repro.sim.units import s_to_ns

        config = CellConfig(
            seed=60,
            ue_profiles=[
                UeProfile(ue_id=1, name="UE", mean_snr_db=1.0,
                          shadow_sigma_db=0.4, fade_probability=0.0)
            ],
            massive_mimo=True,
        )
        cell = build_slingshot_cell(config)
        cell.run_for(s_to_ns(0.6))
        primary = cell.phy_servers[0].phy
        now_slot = cell.slot_clock.slot_at(cell.sim.now)
        assert primary.beamforming is not None
        assert primary.beamforming.gain_db(1, now_slot) > 6.0
        # Uplink decodes succeed despite the 1 dB base channel.
        assert cell.l2.stats.ul_crc_ok > 0
