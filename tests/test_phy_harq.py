"""Tests for HARQ soft buffers and the SNR moving-average filter."""

import numpy as np
import pytest

from repro.phy.harq import HARQ_MAX_RETX, HarqBuffer, HarqProcessPool
from repro.phy.snr_filter import ALPHA, SnrMovingAverage


class TestHarqBuffer:
    def test_fresh_buffer_is_empty(self):
        buf = HarqBuffer()
        assert not buf.occupied
        assert buf.transmissions == 0

    def test_combine_accumulates_llrs(self):
        buf = HarqBuffer()
        llrs = np.array([1.0, -2.0, 3.0])
        first = buf.combine(llrs)
        assert np.array_equal(first, llrs)
        second = buf.combine(llrs)
        assert np.array_equal(second, 2 * llrs)
        assert buf.transmissions == 2

    def test_clear_releases_everything(self):
        buf = HarqBuffer()
        buf.combine(np.ones(4))
        buf.tb_id = 7
        buf.clear()
        assert not buf.occupied
        assert buf.tb_id is None


class TestHarqProcessPool:
    def test_processes_are_independent(self):
        pool = HarqProcessPool()
        pool.combine(1, 0, tb_id=100, llrs=np.ones(4), new_data=True)
        other = pool.combine(1, 1, tb_id=101, llrs=2 * np.ones(4), new_data=True)
        assert np.array_equal(other, 2 * np.ones(4))

    def test_retransmission_combines_with_original(self):
        pool = HarqProcessPool()
        pool.combine(1, 0, tb_id=5, llrs=np.ones(4), new_data=True)
        combined = pool.combine(1, 0, tb_id=5, llrs=np.ones(4), new_data=False)
        assert np.array_equal(combined, 2 * np.ones(4))

    def test_new_data_flushes_process(self):
        pool = HarqProcessPool()
        pool.combine(1, 0, tb_id=5, llrs=np.ones(4), new_data=True)
        fresh = pool.combine(1, 0, tb_id=6, llrs=3 * np.ones(4), new_data=True)
        assert np.array_equal(fresh, 3 * np.ones(4))

    def test_orphan_retransmission_counted_as_interrupted(self):
        """A retransmission whose original lives in a *different* (dead)
        PHY's buffer is exactly what migration causes (Table 2's
        'interrupted HARQ seqs')."""
        pool = HarqProcessPool()
        pool.combine(1, 0, tb_id=9, llrs=np.ones(4), new_data=False)
        assert pool.stats.lost_to_migration == 1

    def test_release_after_success(self):
        pool = HarqProcessPool()
        pool.combine(1, 0, tb_id=5, llrs=np.ones(4), new_data=True)
        pool.release(1, 0)
        assert pool.discard_all() == 0
        assert pool.stats.cleared == 1

    def test_discard_all_models_migration(self):
        pool = HarqProcessPool()
        pool.combine(1, 0, tb_id=1, llrs=np.ones(4), new_data=True)
        pool.combine(2, 3, tb_id=2, llrs=np.ones(4), new_data=True)
        dropped = pool.discard_all()
        assert dropped == 2
        assert pool.discard_all() == 0

    def test_max_retx_constant_matches_5g(self):
        assert HARQ_MAX_RETX == 3


class TestSnrFilter:
    def test_first_sample_initializes(self):
        filt = SnrMovingAverage()
        assert filt.update(1, 15.0) == pytest.approx(15.0)

    def test_default_before_any_measurement(self):
        filt = SnrMovingAverage()
        assert filt.report(42) == 10.0

    def test_ewma_converges_to_step(self):
        filt = SnrMovingAverage()
        filt.update(1, 0.0)
        for _ in range(60):
            filt.update(1, 20.0)
        assert filt.report(1) == pytest.approx(20.0, abs=0.1)

    def test_convergence_speed_matches_25ms_claim(self):
        """With one UL measurement per 2.5 ms DDDSU period and alpha=0.1,
        a 10 dB step converges within ~1 dB in <= 25 ms (paper §4.2)."""
        filt = SnrMovingAverage()
        filt.update(1, 10.0)
        measurements_in_25ms = 10
        for _ in range(measurements_in_25ms):
            filt.update(1, 20.0)
        assert abs(filt.report(1) - 20.0) < 3.7

    def test_discard_all_resets_to_default(self):
        filt = SnrMovingAverage()
        filt.update(1, 25.0)
        filt.discard_all()
        assert filt.report(1) == 10.0
        assert filt.samples(1) == 0

    def test_converged_requires_min_samples(self):
        filt = SnrMovingAverage()
        for _ in range(9):
            filt.update(1, 12.0)
        assert not filt.converged(1)
        filt.update(1, 12.0)
        assert filt.converged(1)

    def test_alpha_is_a_sample_weight(self):
        assert 0.0 < ALPHA <= 1.0
