"""Failover timeline reconstruction from canonical trace events.

Slingshot's headline numbers are timeline claims (PAPER.md §5, §8):
failure → in-switch detection within T = 450 µs → Orion notified →
migration armed on a TTI boundary → traffic resumes, with user-visible
downtime under ~10 ms. :class:`FailoverTimeline` folds one run's
canonical trace into exactly that decomposition.

The anchor events, in causal order:

===============================  ==========================================
phase                            trace categories
===============================  ==========================================
fault injected                   ``phy.crash`` / ``phy.hang``
failure detected                 ``mbox.failure_detected`` (switch
                                 detector) or
                                 ``orion.response_watchdog_fired``
                                 (L2-side backstop) — whichever first
L2 notified                      ``orion.failure_notified`` (or the
                                 watchdog fire itself: the backstop *is*
                                 the notification)
migration armed                  ``orion.migration_started``
boundary committed               ``mbox.migrate_on_slot`` /
                                 ``mbox.migration_committed``
first good delivery              first ``chaos.rx`` at/after the commit
===============================  ==========================================

Total downtime is **not** recomputed here: it delegates to
:meth:`repro.faults.invariants.RecoveryInvariants.max_probe_gap_ns` over
the same events and window, so the number a timeline reports is the
number the chaos recovery invariant bounds — by construction, never
"close to" it.

Link-noise scenarios (fh_loss, orion_dup, ...) inject no process fault
and commit no migration; their timelines have ``None`` phases and only
the probe-gap downtime is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.faults.invariants import PROBE_RX, RecoveryInvariants
from repro.sim.trace import TraceEvent

#: Categories marking the injected process fault (earliest wins).
FAULT_CATEGORIES = ("phy.crash", "phy.hang")

#: Categories marking failure detection (switch detector or L2 backstop).
DETECT_CATEGORIES = ("mbox.failure_detected", "orion.response_watchdog_fired")


def _first_time(
    events: Sequence[TraceEvent], *categories: str
) -> Optional[int]:
    times = [e.time for e in events if e.category in categories]
    return min(times) if times else None


@dataclass(frozen=True)
class FailoverTimeline:
    """One run's failure→recovery decomposition, all times in sim ns."""

    window_start_ns: int
    window_end_ns: int
    fault_ns: Optional[int]
    detected_ns: Optional[int]
    notified_ns: Optional[int]
    migrate_armed_ns: Optional[int]
    committed_ns: Optional[int]
    first_good_ns: Optional[int]
    #: RecoveryInvariants.max_probe_gap_ns() over the same events/window.
    downtime_ns: Optional[int]

    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Sequence[TraceEvent],
        *,
        window_start_ns: int,
        window_end_ns: int,
    ) -> "FailoverTimeline":
        fault_ns = _first_time(events, *FAULT_CATEGORIES)
        detected_ns = _first_time(events, *DETECT_CATEGORIES)
        notified_ns = _first_time(
            events, "orion.failure_notified", "orion.response_watchdog_fired"
        )
        migrate_armed_ns = _first_time(events, "orion.migration_started")
        committed_ns = _first_time(
            events, "mbox.migrate_on_slot", "mbox.migration_committed"
        )
        # Boundary actually flipped (vs armed) — prefer the commit record.
        commit_times = [
            e.time for e in events if e.category == "mbox.migration_committed"
        ]
        if commit_times:
            committed_ns = min(commit_times)
        first_good_ns: Optional[int] = None
        if committed_ns is not None:
            good = [
                e.time
                for e in events
                if e.category == PROBE_RX and e.time >= committed_ns
            ]
            first_good_ns = min(good) if good else None
        downtime_ns = RecoveryInvariants(
            events,
            window_start_ns=window_start_ns,
            window_end_ns=window_end_ns,
            downtime_budget_ns=None,
            expected_migrations=0,
        ).max_probe_gap_ns()
        return cls(
            window_start_ns=window_start_ns,
            window_end_ns=window_end_ns,
            fault_ns=fault_ns,
            detected_ns=detected_ns,
            notified_ns=notified_ns,
            migrate_armed_ns=migrate_armed_ns,
            committed_ns=committed_ns,
            first_good_ns=first_good_ns,
            downtime_ns=downtime_ns,
        )

    # ------------------------------------------------------------------
    # Downtime decomposition (None whenever either endpoint is missing)
    # ------------------------------------------------------------------
    @staticmethod
    def _delta(start: Optional[int], end: Optional[int]) -> Optional[int]:
        if start is None or end is None:
            return None
        return end - start

    @property
    def detect_latency_ns(self) -> Optional[int]:
        """Fault injection → detection (switch detector or L2 backstop)."""
        return self._delta(self.fault_ns, self.detected_ns)

    @property
    def notify_latency_ns(self) -> Optional[int]:
        """Detection → L2 Orion learning of the failure."""
        return self._delta(self.detected_ns, self.notified_ns)

    @property
    def commit_latency_ns(self) -> Optional[int]:
        """Notification → fronthaul boundary flipped at the switch."""
        return self._delta(self.notified_ns, self.committed_ns)

    @property
    def resume_latency_ns(self) -> Optional[int]:
        """Boundary commit → first probe delivery from the new PHY."""
        return self._delta(self.committed_ns, self.first_good_ns)

    @property
    def fault_to_first_good_ns(self) -> Optional[int]:
        """End-to-end fault → first good delivery."""
        return self._delta(self.fault_ns, self.first_good_ns)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "fault_ns": self.fault_ns,
            "detected_ns": self.detected_ns,
            "notified_ns": self.notified_ns,
            "migrate_armed_ns": self.migrate_armed_ns,
            "committed_ns": self.committed_ns,
            "first_good_ns": self.first_good_ns,
            "downtime_ns": self.downtime_ns,
            "detect_latency_ns": self.detect_latency_ns,
            "notify_latency_ns": self.notify_latency_ns,
            "commit_latency_ns": self.commit_latency_ns,
            "resume_latency_ns": self.resume_latency_ns,
            "fault_to_first_good_ns": self.fault_to_first_good_ns,
        }
