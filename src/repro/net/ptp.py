"""Precision Time Protocol (PTP) clock model.

The testbed's RU and PHY servers are slot-synchronized by a PTP
grandmaster (Table 1); the switch *data plane* is not time-synchronized
at all (§5.1) — which is exactly why Slingshot triggers migration on the
frame/subframe/slot fields carried in fronthaul packets rather than on
any switch-local notion of time.

This module models disciplined and undisciplined clocks so that claim is
checkable: a PTP-disciplined clock stays within sub-microsecond offset
of true time, while a free-running oscillator drifts by parts-per-million
— milliseconds per hour, hopeless against 500 µs slots.
"""

from __future__ import annotations

import numpy as np

from repro.phy.numerology import NUMEROLOGY
from repro.sim.units import SECOND, US


# Servo and oscillator characteristics.

#: Sync message interval (PTP default: 1 s; telecom profiles faster).
SYNC_INTERVAL_NS = SECOND // 16
#: Residual offset after servo correction (one-sigma).
RESIDUAL_SIGMA_NS = 80.0
#: Free-running oscillator drift, in parts per million.
DRIFT_PPM = 8.0


class PtpClock:
    """A local clock, optionally disciplined by PTP.

    ``read(true_time)`` returns this clock's view of the given true
    simulated time. A clock starts disciplined at time 0: it is
    re-aligned every sync interval with a small residual error. In
    holdover (:meth:`set_disciplined`) it accumulates drift from the
    instant it lost sync.
    """

    def __init__(self, *, rng: np.random.Generator) -> None:
        self.disciplined = True
        self.rng = rng
        self.epoch_ns = 0
        #: Offset at the last discipline point.
        self._base_offset_ns = 0.0
        self._last_sync_ns = 0
        #: This oscillator's actual drift (fixed per instance).
        self._drift = float(self.rng.normal(0.0, DRIFT_PPM / 3.0))
        self.syncs_applied = 0

    @property
    def drift_ppm(self) -> float:
        return self._drift

    def _sync_if_due(self, true_time: int) -> None:
        if not self.disciplined:
            return
        while true_time - self._last_sync_ns >= SYNC_INTERVAL_NS:
            self._last_sync_ns += SYNC_INTERVAL_NS
            self._base_offset_ns = float(
                self.rng.normal(0.0, RESIDUAL_SIGMA_NS)
            )
            self.syncs_applied += 1

    # --- Fault injection --------------------------------------------------
    def apply_step(self, true_time: int, step_ns: float) -> None:
        """Inject a phase step (e.g. a bad grandmaster update). The servo
        pulls the offset back at the next sync; until then every reading
        is shifted by ``step_ns``."""
        self._sync_if_due(true_time)
        self._base_offset_ns += float(step_ns)

    def set_drift_ppm(self, true_time: int, drift_ppm: float) -> None:
        """Override the oscillator's drift rate from ``true_time`` on
        (e.g. thermal runaway). Accrued offset up to now is preserved."""
        self._sync_if_due(true_time)
        accrued = self.offset_ns(true_time)
        self._base_offset_ns = accrued
        self._last_sync_ns = true_time
        if not self.disciplined:
            self.epoch_ns = true_time
        self._drift = float(drift_ppm)

    def set_disciplined(self, true_time: int, disciplined: bool) -> None:
        """Enter or leave holdover (PTP sync lost / restored)."""
        if disciplined == self.disciplined:
            return
        accrued = self.offset_ns(true_time)
        self._base_offset_ns = accrued
        # Re-anchor both references so no drift double-counts and the
        # servo does not replay a burst of missed sync intervals.
        self._last_sync_ns = true_time
        self.epoch_ns = true_time
        self.disciplined = disciplined

    def offset_ns(self, true_time: int) -> float:
        """Current clock error: local reading minus true time."""
        self._sync_if_due(true_time)
        elapsed = true_time - (self._last_sync_ns if self.disciplined else self.epoch_ns)
        return self._base_offset_ns + elapsed * self._drift / 1e6

    def read(self, true_time: int) -> int:
        """This clock's reading at a true simulated instant."""
        return true_time + round(self.offset_ns(true_time))

    def slot_boundary_error_ns(self, true_time: int) -> float:
        """How far this clock's idea of 'the slot boundary' lands from
        the true boundary — the figure of merit for migration triggering."""
        return abs(self.offset_ns(true_time)) % NUMEROLOGY.slot_duration_ns
