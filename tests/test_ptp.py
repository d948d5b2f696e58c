"""Tests for the PTP clock model — and the §5.1 timing argument."""

import numpy as np
import pytest

from repro.net import ptp as ptp_module
from repro.net.ptp import PtpClock
from repro.sim.units import MS, SECOND, US


def free_running(seed):
    """A clock in holdover from time 0 (PTP sync lost at start)."""
    clock = PtpClock(rng=np.random.default_rng(seed))
    clock.set_disciplined(0, False)
    return clock


class TestDisciplinedClock:
    def test_offset_stays_sub_microsecond(self):
        clock = PtpClock(rng=np.random.default_rng(0))
        worst = max(
            abs(clock.offset_ns(t))
            for t in range(0, 60 * SECOND, SECOND // 7)
        )
        assert worst < 1_000  # < 1 us: fine against 500 us slots.

    def test_reading_tracks_true_time(self):
        clock = PtpClock(rng=np.random.default_rng(1))
        t = 10 * SECOND
        assert abs(clock.read(t) - t) < 2_000

    def test_syncs_applied_at_interval(self, monkeypatch):
        monkeypatch.setattr(ptp_module, "SYNC_INTERVAL_NS", SECOND)
        clock = PtpClock(rng=np.random.default_rng(2))
        clock.offset_ns(10 * SECOND)
        assert clock.syncs_applied == 10

    def test_two_disciplined_clocks_agree_on_slots(self):
        """RU and PHY, both PTP-disciplined, see the same slot boundary
        to within microseconds — slot-synchronized operation works."""
        a = PtpClock(rng=np.random.default_rng(3))
        b = PtpClock(rng=np.random.default_rng(4))
        for t in range(SECOND, 20 * SECOND, 3 * SECOND):
            disagreement = abs(a.read(t) - b.read(t))
            assert disagreement < 2_000


class TestFreeRunningClock:
    def test_drift_accumulates_without_discipline(self):
        clock = free_running(5)
        early = abs(clock.offset_ns(SECOND))
        late = abs(clock.offset_ns(3600 * SECOND))
        assert late > 100 * max(early, 1.0)

    def test_undisciplined_clock_cannot_name_a_slot(self):
        """§5.1's argument: the switch data plane has no synchronized
        clock; within an hour a free-running oscillator is off by more
        than many whole slots, so 'migrate at time T' is meaningless —
        only the packets' own slot fields identify TTIs."""
        clock = free_running(6)
        offset_after_hour = abs(clock.offset_ns(3600 * SECOND))
        assert offset_after_hour > 2 * 500 * US  # Several slots wrong.

    def test_drift_is_stable_per_instance(self):
        clock = free_running(7)
        assert clock.drift_ppm == clock.drift_ppm
        # Offset grows linearly with elapsed time.
        o1 = clock.offset_ns(100 * SECOND)
        o2 = clock.offset_ns(200 * SECOND)
        assert o2 == pytest.approx(2 * o1, rel=0.01)


class TestSlotBoundaryError:
    def test_disciplined_error_negligible(self):
        clock = PtpClock(rng=np.random.default_rng(8))
        assert clock.slot_boundary_error_ns(5 * SECOND) < 2_000

    def test_distinct_seeds_distinct_drifts(self):
        drifts = {
            free_running(seed).drift_ppm
            for seed in range(8)
        }
        assert len(drifts) > 4
