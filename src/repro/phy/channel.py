"""Wireless channel models.

Two layers:

* :class:`AwgnChannel` — symbol-level additive white Gaussian noise at a
  given SNR, used when a transmission is actually decoded.
* :class:`UeChannelModel` — per-UE slow SNR evolution (AR(1) shadowing
  around a mean plus occasional deeper fades), which gives each UE a
  distinct, time-varying link quality. This is what makes the paper's
  "PHY impairments resemble wireless impairments" argument observable:
  even without any migrations, UEs see natural SNR dips and decode
  failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: AR(1) coefficient of the per-slot shadowing (must lie in [0, 1)).
SHADOW_CORRELATION = 0.99
#: SNR drop during a fade, and how many slots a fade lasts.
FADE_DEPTH_DB = 6.0
FADE_DURATION_SLOTS = 20


def snr_db_to_noise_var(snr_db: float) -> float:
    """Complex noise variance for unit-energy symbols at the given SNR."""
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """The channel state applied to one transmission."""

    snr_db: float

    @property
    def noise_var(self) -> float:
        return snr_db_to_noise_var(self.snr_db)


class AwgnChannel:
    """Applies AWGN to unit-energy symbols."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def apply(
        self, symbols: np.ndarray, realization: ChannelRealization
    ) -> np.ndarray:
        """Return symbols plus complex Gaussian noise at the realized SNR.

        One draw holds the real parts, then the imaginary parts: the same
        stream values, in the same order, as two draws of half the size.
        """
        noise = self.rng.normal(
            0.0, math.sqrt(realization.noise_var / 2.0), size=(2,) + np.shape(symbols)
        )
        return symbols + (noise[0] + 1j * noise[1])

    def garbage(self, count: int) -> np.ndarray:
        """Pure-noise 'symbols' standing in for missing fronthaul data.

        When fronthaul packets are lost during a migration, the PHY
        processes garbage-valued IQ samples (paper §4); decoding them is
        indistinguishable from decoding an extremely noisy channel.
        """
        noise = self.rng.normal(0.0, math.sqrt(0.5), size=(2, count))
        return noise[0] + 1j * noise[1]


class UeChannelModel:
    """Per-UE slowly-varying SNR process.

    ``snr(slot)`` is a mean SNR plus an AR(1) shadowing term updated per
    slot, with occasional short fade events that drop the SNR by several
    dB — producing the routine throughput/latency fluctuations visible at
    the edges of the paper's Fig 9.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_snr_db: float,
        shadow_sigma_db: float,
        fade_probability: float,
    ) -> None:
        self.rng = rng
        self.mean_snr_db = mean_snr_db
        self.shadow_sigma_db = shadow_sigma_db
        self.fade_probability = fade_probability
        self._shadow_db = 0.0
        self._fade_until_slot = -1
        self._last_slot = -1

    def snr_for_slot(self, slot: int) -> ChannelRealization:
        """Advance the process to ``slot`` and return its realization.

        Slots must be queried in non-decreasing order; repeated queries for
        the same slot return the same realization.
        """
        if slot > self._last_slot:
            steps = min(slot - self._last_slot, 1000)
            innovation_sigma = self.shadow_sigma_db * np.sqrt(
                1.0 - SHADOW_CORRELATION ** 2
            )
            for _ in range(steps):
                self._shadow_db = (
                    SHADOW_CORRELATION * self._shadow_db
                    + float(self.rng.normal(0.0, innovation_sigma))
                )
            if self._fade_until_slot < slot:
                # Bernoulli fade arrival per queried slot.
                if float(self.rng.random()) < self.fade_probability * (
                    slot - self._last_slot
                ):
                    self._fade_until_slot = slot + FADE_DURATION_SLOTS
            self._last_slot = slot
        snr = self.mean_snr_db + self._shadow_db
        if slot <= self._fade_until_slot:
            snr -= FADE_DEPTH_DB
        return ChannelRealization(snr_db=snr)
