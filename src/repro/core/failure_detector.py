"""In-switch RAN failure detection (paper §5.2).

The insight: every healthy realtime vRAN layer emits a packet stream
spaced at most one TTI apart — the PHY sends downlink C-plane fronthaul
packets every slot — so these streams are natural heartbeats and no
RAN-side modification or dedicated heartbeat CPU is needed.

Mechanics, mirroring the P4 implementation:

* the switch packet generator injects ``n`` timer packets per timeout
  period ``T`` (paper defaults: T = 450 µs, n = 50 → 9 µs precision at a
  negligible 111 k packets/s internal rate, one per tick, per monitored
  PHY);
* every downlink packet from PHY ``p`` writes 0 into ``counter[p]``;
* every timer packet increments the counters of monitored PHYs
  (saturating); a counter reaching ``n`` means no heartbeat arrived for
  a full period, and the timer packet is reformatted into a failure
  notification toward the registered Orion.

The timeout value is chosen against the measured maximum healthy
inter-packet gap (393 µs in the paper's testbed, §8.6): 450 µs leaves
margin against false positives while still detecting within ~1 TTI.

How the tick stream is evaluated (DESIGN.md §9): the timer packets are
modelled, not simulated one event each. Bound to a simulator by
:meth:`FailureDetector.start_grid`, tick ``i`` exists at ``origin + i *
tick_period_ns``; elapsed ticks are applied arithmetically whenever
detector state is *read* (the deadline event, ``counters``, ``stats``,
``set_monitor``), and one heap event — the *deadline* — sits at the
earliest tick on which a monitored, unreported counter could saturate.
A heartbeat only pushes that instant later, so it leaves the event alone
(it re-derives itself when it fires) and applies no tick: it writes its
zero and records how many elapsed, unapplied ticks the zero covers — the
PHY's *lag*, which the next sync leaves out of that PHY's share. Nothing
saturates unseen meanwhile: every event before now has run and the
deadline is never later than a saturation. A tick and a touch at the
same nanosecond resolve **tick first** (the generator armed that timer
packet a period earlier than a link armed the delivery) — so a heartbeat
that finds the deadline queued at its own nanosecond syncs like a read —
except tick 0, armed at the origin, which follows what runs there.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.p4.registers import RegisterArray
from repro.sim.engine import EventHandle, Simulator
from repro.sim.units import US


@dataclass
class DetectorConfig:
    """Failure-detector parameters."""

    #: Timeout period T.
    timeout_ns: int = 450 * US
    #: Timer ticks per timeout period (n); precision = T/n.
    ticks_per_timeout: int = 50
    #: Maximum PHY id supported (register array size).
    max_phys: int = 256

    @property
    def tick_period_ns(self) -> int:
        return max(1, self.timeout_ns // self.ticks_per_timeout)

    @property
    def precision_ns(self) -> int:
        """Worst-case extra latency from tick granularity."""
        return self.tick_period_ns

    @property
    def pktgen_rate_pps(self) -> float:
        """Internal timer-packet rate for one monitored PHY."""
        return 1e9 / self.tick_period_ns


@dataclass
class DetectorStats:
    heartbeats_seen: int = 0
    ticks_processed: int = 0
    failures_detected: int = 0
    false_positives_rearmed: int = 0


class FailureDetector:
    """Per-PHY heartbeat-counter engine (data-plane state + logic)."""

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        notify: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.config = config or DetectorConfig()
        #: Called as notify(phy_id, detected_at_ns) on counter saturation.
        self.notify = notify
        width = max(self.config.ticks_per_timeout.bit_length() + 1, 8)
        self._counters = RegisterArray(
            "detector_counters", self.config.max_phys, width_bits=width
        )
        self._monitored: Set[int] = set()
        #: PHYs already reported (suppress duplicate notifications).
        self._reported: Set[int] = set()
        self._stats = DetectorStats()
        #: ``now_ns`` of each PHY's latest heartbeat (None: it carried none).
        self._last_heartbeat_ns: Dict[int, Optional[int]] = {}
        #: One ``(phy_id, detected_at_ns, last_heartbeat_ns)`` record per
        #: detection, in detection order: detected − last heartbeat is the
        #: latency §5.2 bounds by T plus one tick.
        self.detections: List[Tuple[int, int, Optional[int]]] = []
        #: Tick grid, unbound until start_grid: tick i exists at
        #: origin + i * period.
        self._sim: Optional[Simulator] = None
        self._grid_origin_ns = 0
        self._grid_period_ns = self.config.tick_period_ns
        #: Grid ticks applied so far (the next one is tick ``_ticks_applied``).
        self._ticks_applied = 0
        #: Queued event, never later than the earliest possible saturation.
        self._deadline: Optional[EventHandle] = None
        #: Per PHY zeroed since the last sync: how many of the ticks the
        #: next sync applies had already elapsed when the zero was written.
        self._lag: Dict[int, int] = {}

    def start_grid(self, sim: Simulator) -> None:
        """Start the timer-tick stream: tick 0 is now, then one per period."""
        self._sim = sim
        self._grid_origin_ns = sim.now
        self._arm()

    def stop_grid(self) -> None:
        """Stop the tick stream; later touches see no further ticks."""
        self._sync()
        if self._deadline is not None:
            self._deadline.cancel()
        self._sim = self._deadline = None

    def _sync(self, count: Optional[int] = None) -> None:
        """Apply grid ticks up to tick number ``count`` (counted from 1;
        default: every tick that has elapsed since the last sync)."""
        if self._sim is None:
            return
        if count is None:
            elapsed = self._sim.now - self._grid_origin_ns
            # At the origin instant tick 0 is still to come.
            count = elapsed // self._grid_period_ns + 1 if elapsed else 0
        ticks = count - self._ticks_applied
        if ticks > 0:
            self._ticks_applied = count
            self.advance(
                ticks, self._grid_origin_ns + (count - 1) * self._grid_period_ns
            )

    def _arm(self, target: Optional[int] = None) -> None:
        """Keep the deadline event at or before tick number ``target``
        (counted from 1; default: the earliest possible saturation)."""
        if self._sim is None:
            return
        if target is None:
            steps = [
                self._ticks_to_saturation(phy_id)
                for phy_id in self._monitored - self._reported
            ]
            if not steps:
                return
            target = self._ticks_applied + min(steps)
        when = self._grid_origin_ns + (target - 1) * self._grid_period_ns
        pending = self._deadline
        if pending is not None:
            if pending.time <= when:
                return
            pending.cancel()
        self._deadline = self._sim.at(
            when, self._on_deadline, target, label="detector.deadline"
        )

    def _on_deadline(self, target: int) -> None:
        """Apply the deadline tick (detecting, if nothing reset the
        counter meanwhile) and re-derive the next deadline."""
        self._deadline = None
        self._sync(target)
        self._arm()

    def _ticks_to_saturation(self, phy_id: int) -> int:
        return max(1, self.config.ticks_per_timeout - self._counters.read(phy_id))

    @property
    def counters(self) -> RegisterArray:
        """The heartbeat-counter registers, current as of now. The caller
        may write them and pull a saturation earlier, so the deadline
        moves to the next tick and re-derives itself from what it finds."""
        self._sync()
        self._arm(self._ticks_applied + 1)
        return self._counters

    @property
    def stats(self) -> DetectorStats:
        self._sync()
        return self._stats

    # ------------------------------------------------------------------
    # Control interface (driven by Orion command packets)
    # ------------------------------------------------------------------
    def set_monitor(self, phy_id: int, enabled: bool) -> None:
        """Arm or disarm monitoring of one PHY."""
        self._sync()
        if enabled:
            self._counters.write(phy_id, 0)
            self._monitored.add(phy_id)
            if phy_id in self._reported:
                self._reported.discard(phy_id)
                self._stats.false_positives_rearmed += 1
            self._arm()
        else:
            self._monitored.discard(phy_id)
            self._reported.discard(phy_id)

    def monitored_phys(self) -> List[int]:
        return sorted(self._monitored)

    def is_monitored(self, phy_id: int) -> bool:
        return phy_id in self._monitored

    # ------------------------------------------------------------------
    # Data-plane events
    # ------------------------------------------------------------------
    def on_heartbeat(self, phy_id: int, now_ns: Optional[int] = None) -> None:
        """A downlink packet from ``phy_id`` traversed the switch.

        ``now_ns`` is optional metadata (the last-heartbeat timestamp a
        :attr:`detections` record carries); passing it never changes
        detector behaviour.
        """
        if 0 <= phy_id < self._counters.size:
            sim = self._sim
            if sim is not None:
                deadline = self._deadline
                elapsed = sim.now - self._grid_origin_ns
                if deadline is not None and deadline.time <= sim.now:
                    # Queued at this very nanosecond, and its tick may
                    # saturate: tick first.
                    self._sync()
                elif elapsed:  # (At the origin no tick precedes a touch.)
                    self._lag[phy_id] = (
                        elapsed // self._grid_period_ns + 1 - self._ticks_applied
                    )
            self._counters.write(phy_id, 0)
            self._stats.heartbeats_seen += 1
            self._last_heartbeat_ns[phy_id] = now_ns

    def on_timer_tick(self, now_ns: int) -> List[int]:
        """One timer-packet batch: :meth:`advance` by a single tick (the
        direct-drive form, for callers that step the detector themselves)."""
        return self.advance(1, now_ns)

    def advance(self, ticks: int, last_tick_ns: int) -> List[int]:
        """Apply ``ticks`` consecutive timer ticks, a tick period apart,
        the last at ``last_tick_ns`` — exactly that many single ticks:
        a counter saturates on the tick that brings it to the threshold,
        and that tick's instant is its notification's ``detected_at``.

        Returns PHY ids newly detected as failed, in detection order
        (also delivered via the ``notify`` callback).
        """
        self._stats.ticks_processed += ticks
        threshold = self.config.ticks_per_timeout
        lag = self._lag
        #: (tick of this batch, counted from 1, that saturates; phy).
        saturated: List[Tuple[int, int]] = []
        for phy_id in self._monitored:
            if phy_id not in self._reported:
                # A PHY zeroed since the last sync sat out its lag.
                covered = lag.get(phy_id, 0)
                step = min(ticks - covered, self._ticks_to_saturation(phy_id))
                if self._counters.increment(phy_id, step) >= threshold:
                    saturated.append((covered + step, phy_id))
        lag.clear()
        # Stable: PHYs saturating on one tick keep their scan order.
        saturated.sort(key=itemgetter(0))
        period = self.config.tick_period_ns
        for step, phy_id in saturated:
            detected_at = last_tick_ns - (ticks - step) * period
            self._reported.add(phy_id)
            self._stats.failures_detected += 1
            self.detections.append(
                (phy_id, detected_at, self._last_heartbeat_ns.get(phy_id))
            )
            if self.notify is not None:
                self.notify(phy_id, detected_at)
        return [phy_id for _, phy_id in saturated]
