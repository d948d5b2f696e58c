"""Tests for the wireless channel models."""

import numpy as np
import pytest

from repro.phy.channel import (
    FADE_DEPTH_DB,
    SHADOW_CORRELATION,
    AwgnChannel,
    ChannelRealization,
    UeChannelModel,
    snr_db_to_noise_var,
)


class TestAwgn:
    def test_noise_variance_matches_snr(self):
        rng = np.random.default_rng(0)
        channel = AwgnChannel(rng)
        symbols = np.ones(50_000, dtype=np.complex128)
        realization = ChannelRealization(snr_db=10.0)
        received = channel.apply(symbols, realization)
        measured_var = float(np.var(received - symbols))
        assert measured_var == pytest.approx(snr_db_to_noise_var(10.0), rel=0.05)

    def test_zero_db_means_unit_noise(self):
        assert snr_db_to_noise_var(0.0) == pytest.approx(1.0)

    def test_garbage_is_zero_mean_unit_power(self):
        rng = np.random.default_rng(1)
        channel = AwgnChannel(rng)
        garbage = channel.garbage(50_000)
        assert float(np.mean(garbage.real)) == pytest.approx(0.0, abs=0.02)
        assert float(np.mean(np.abs(garbage) ** 2)) == pytest.approx(1.0, rel=0.05)

    def test_realization_noise_var_property(self):
        assert ChannelRealization(20.0).noise_var == pytest.approx(0.01)


def channel_model(seed, mean_snr_db=15.0, shadow_sigma_db=1.2, fade_probability=0.0005):
    return UeChannelModel(
        np.random.default_rng(seed),
        mean_snr_db=mean_snr_db,
        shadow_sigma_db=shadow_sigma_db,
        fade_probability=fade_probability,
    )


class TestUeChannelModel:
    def test_same_slot_same_realization(self):
        model = channel_model(0)
        a = model.snr_for_slot(100)
        b = model.snr_for_slot(100)
        assert a.snr_db == b.snr_db

    def test_mean_tracks_configured_snr(self):
        model = channel_model(1, mean_snr_db=18.0, fade_probability=0.0)
        samples = [model.snr_for_slot(slot).snr_db for slot in range(0, 20_000, 5)]
        assert float(np.mean(samples)) == pytest.approx(18.0, abs=0.8)

    def test_shadowing_varies_over_time(self):
        model = channel_model(2)
        samples = {model.snr_for_slot(slot).snr_db for slot in range(0, 5000, 50)}
        assert len(samples) > 10

    def test_fades_reduce_snr(self):
        model = channel_model(3, shadow_sigma_db=0.0, fade_probability=1.0)
        model.snr_for_slot(0)
        faded = model.snr_for_slot(1)
        assert faded.snr_db == pytest.approx(15.0 - FADE_DEPTH_DB, abs=0.1)

    def test_correlation_is_a_stationary_ar1(self):
        assert 0.0 <= SHADOW_CORRELATION < 1.0

    def test_distinct_rngs_give_distinct_channels(self):
        a = channel_model(10)
        b = channel_model(11)
        sa = [a.snr_for_slot(s).snr_db for s in range(0, 1000, 100)]
        sb = [b.snr_for_slot(s).snr_db for s in range(0, 1000, 100)]
        assert sa != sb
