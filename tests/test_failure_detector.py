"""Tests for the in-switch failure detector (§5.2)."""

import pytest

from repro.core.failure_detector import TICKS_PER_TIMEOUT, DetectorConfig, FailureDetector
from repro.sim.units import US


class TestDetectorConfig:
    def test_paper_defaults(self):
        config = DetectorConfig()
        assert config.timeout_ns == 450 * US
        assert TICKS_PER_TIMEOUT == 50
        assert config.precision_ns == 9 * US

    def test_pktgen_rate_is_negligible(self):
        """~111k pps per monitored PHY at T=450us/n=50 — trivially small
        against a multi-Tbps switch."""
        config = DetectorConfig()
        assert config.pktgen_rate_pps < 200_000


class TestDetection:
    def _detector(self):
        detections = []
        detector = FailureDetector(notify=lambda phy, t: detections.append((phy, t)))
        return detector, detections

    def test_counter_saturates_after_n_ticks(self):
        detector, detections = self._detector()
        detector.set_monitor(7, True)
        for tick in range(49):
            assert detector.on_timer_tick(tick * 9000) == []
        assert detector.on_timer_tick(49 * 9000) == [7]
        assert detections == [(7, 49 * 9000)]

    def test_heartbeat_resets_counter(self):
        detector, detections = self._detector()
        detector.set_monitor(1, True)
        for tick in range(200):
            detector.on_timer_tick(tick)
            if tick % 20 == 0:  # Heartbeat well inside the timeout.
                detector.on_heartbeat(1, tick)
        assert detections == []

    def test_unmonitored_phy_never_reported(self):
        detector, detections = self._detector()
        for tick in range(200):
            detector.on_timer_tick(tick)
        assert detections == []

    def test_no_duplicate_notifications(self):
        detector, detections = self._detector()
        detector.set_monitor(3, True)
        for tick in range(300):
            detector.on_timer_tick(tick)
        assert len(detections) == 1

    def test_rearm_after_detection(self):
        detector, detections = self._detector()
        detector.set_monitor(3, True)
        for tick in range(60):
            detector.on_timer_tick(tick)
        detector.set_monitor(3, True)  # Re-arm.
        assert detector.stats.false_positives_rearmed == 1
        for tick in range(60, 120):
            detector.on_timer_tick(tick)
        assert len(detections) == 2

    def test_heartbeat_at_threshold_minus_one_prevents_detection(self):
        """A heartbeat landing when the counter sits at ``threshold - 1``
        (one tick from saturation) must reset it — detection then needs a
        full fresh timeout window, not just the one remaining tick."""
        detector, detections = self._detector()
        threshold = TICKS_PER_TIMEOUT
        detector.set_monitor(4, True)
        for tick in range(threshold - 1):
            detector.on_timer_tick(tick)
        assert detector.counters.read(4) == threshold - 1
        assert detections == []
        detector.on_heartbeat(4, threshold - 1)  # Last-instant save.
        assert detector.counters.read(4) == 0
        # The tick that would have saturated the counter now moves it to 1.
        detector.on_timer_tick(threshold - 1)
        assert detections == []
        # Silence from here: detection needs threshold further ticks, not one.
        for tick in range(threshold, 2 * threshold - 2):
            detector.on_timer_tick(tick)
        assert detections == []
        detector.on_timer_tick(2 * threshold - 1)
        assert [phy for phy, _ in detections] == [4]

    def test_rearm_reported_phy_after_secondary_replacement(self):
        """Secondary replacement re-arms a previously reported PHY id
        (the revived server returns as the new hot standby): the stale
        ``_reported`` entry must clear — counted as a re-arm — and the
        PHY must be detectable a second time."""
        detector, detections = self._detector()
        detector.set_monitor(0, True)
        detector.set_monitor(1, True)
        for tick in range(100):
            detector.on_timer_tick(tick)
            detector.on_heartbeat(1, tick)  # Standby healthy; primary 0 dies.
        assert [phy for phy, _ in detections] == [0]
        # Replacement: Orion promotes 1, revives 0 as the new standby.
        detector.set_monitor(0, True)
        assert detector.stats.false_positives_rearmed == 1
        assert detector.counters.read(0) == 0
        for tick in range(100, 200):
            detector.on_timer_tick(tick)
            detector.on_heartbeat(1, tick)
        assert [phy for phy, _ in detections] == [0, 0]
        assert detector.stats.failures_detected == 2

    def test_disarm_stops_monitoring(self):
        detector, detections = self._detector()
        detector.set_monitor(3, True)
        detector.set_monitor(3, False)
        for tick in range(100):
            detector.on_timer_tick(tick)
        assert detections == []

    def test_multiple_phys_independent(self):
        detector, detections = self._detector()
        detector.set_monitor(1, True)
        detector.set_monitor(2, True)
        for tick in range(100):
            detector.on_timer_tick(tick)
            detector.on_heartbeat(1, tick)  # Only PHY 1 stays healthy.
        assert [phy for phy, _ in detections] == [2]

    def test_detection_latency_bounded_by_t_plus_precision(self):
        """With heartbeats stopping at t0, detection must land within
        T + one tick of t0 (the §8.2 timing argument)."""
        detector, detections = self._detector()
        detector.set_monitor(0, True)
        config = detector.config
        period = config.tick_period_ns
        last_heartbeat = 12_345
        time = 0
        tick = 0
        while not detections and time < 10 * config.timeout_ns:
            time = tick * period
            detector.on_timer_tick(time)
            if time <= last_heartbeat:
                detector.on_heartbeat(0, time)
            tick += 1
        latency = detections[0][1] - last_heartbeat
        assert latency <= config.timeout_ns + config.precision_ns

    def test_a_detection_appends_exactly_one_record(self):
        """``(phy, detected_at, last_heartbeat)`` per detection — what the
        ``core.detector.detection_latency_ns`` histogram is computed from;
        the timestamp is None when the PHY never sent a heartbeat."""
        detector, detections = self._detector()
        config = detector.config
        for phy in (0, 1):
            detector.set_monitor(phy, True)
        detector.on_heartbeat(0, 1000)
        assert detector.detections == []
        for tick in range(TICKS_PER_TIMEOUT):
            detector.on_timer_tick(1000 + (tick + 1) * config.tick_period_ns)
        detected_at = 1000 + config.timeout_ns
        assert detector.detections == [
            (0, detected_at, 1000), (1, detected_at, None)
        ]
        assert detections == [(0, detected_at), (1, detected_at)]
        assert detector.stats.heartbeats_seen == 1
        assert detector.stats.ticks_processed == TICKS_PER_TIMEOUT
        assert detector.stats.failures_detected == 2
        # Already reported: further ticks add no record.
        detector.on_timer_tick(detected_at + config.tick_period_ns)
        assert len(detector.detections) == 2


class TestBulkAdvance:
    """``advance(k, t)`` is exactly ``k`` single ticks ending at ``t``."""

    def _pair(self):
        pair = []
        for _ in range(2):
            detections = []
            detector = FailureDetector(
                notify=lambda phy, t, sink=detections: sink.append((phy, t))
            )
            pair.append((detector, detections))
        return pair

    @pytest.mark.parametrize("ticks", [1, 7, 49, 50, 51, 120])
    def test_matches_single_ticks(self, ticks):
        (bulk, bulk_seen), (single, single_seen) = self._pair()
        period = bulk.config.tick_period_ns
        for detector in (bulk, single):
            for phy, start in ((0, 0), (1, 30), (2, 45), (3, 49), (4, 200)):
                detector.set_monitor(phy, True)
                detector.counters.write(phy, start)
            detector.set_monitor(5, True)
            detector.set_monitor(5, False)
        last = 1_000_000
        assert bulk.advance(ticks, last) == [
            phy
            for k in range(ticks)
            for phy in single.on_timer_tick(last - (ticks - 1 - k) * period)
        ]
        assert bulk_seen == single_seen
        assert bulk.counters._cells == single.counters._cells
        assert bulk.stats == single.stats

    def test_detections_come_in_tick_order_not_scan_order(self):
        (bulk, seen), _ = self._pair()
        period = bulk.config.tick_period_ns
        for phy, start in ((0, 10), (1, 40), (2, 25)):
            bulk.set_monitor(phy, True)
            bulk.counters.write(phy, start)
        assert bulk.advance(50, 50 * period) == [1, 2, 0]
        assert seen == [(1, 10 * period), (2, 25 * period), (0, 40 * period)]
