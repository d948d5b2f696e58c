"""Structured trace recording.

Components emit :class:`TraceEvent` records into a shared
:class:`TraceRecorder`; the experiment harnesses query the recorder to build
the time series behind each figure (e.g. per-10 ms throughput bins, ping
samples, failure-detection timestamps).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: a timestamp, a category, and free-form fields."""

    time: int
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceRecorder:
    """Append-only store of trace events with category indexing.

    ``window_ns`` enables the *bounded-memory* digest mode used by soak
    runs: the canonical trace is partitioned into fixed windows
    ``[k*window_ns, (k+1)*window_ns)`` and the digest is a hash chain
    folded over the non-empty windows in time order. Complete windows
    can then be evicted (:meth:`evict_before`): their fold is absorbed
    into a small picklable chain value, their events are dropped, and
    :meth:`rolling_digest` still equals the digest a never-evicting
    recorder with the same ``window_ns`` would produce over the full
    trace. With ``window_ns`` None (the default) the whole trace is one
    window and the chain seed is empty, so the digest is byte-identical
    to the historical flat SHA-256 — recorded golden digests are
    unaffected.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._by_category: Dict[str, List[TraceEvent]] = {}
        self.enabled = True
        #: Digest window; a soak sets it before recording.
        self.window_ns: Optional[int] = None
        #: Hex chain over evicted windows ("" until the first eviction).
        self._chain = ""
        #: Events absorbed into the chain and dropped.
        self._evicted_events = 0
        #: Everything before this time has been folded away; recording
        #: an event older than this would silently corrupt the digest.
        self._evicted_horizon_ns = 0

    def record(self, time: int, category: str, **fields: Any) -> None:
        """Append an event; no-op when the recorder is disabled."""
        if not self.enabled:
            return
        if time < self._evicted_horizon_ns:
            raise ValueError(
                f"cannot record at t={time} ns: windows before "
                f"{self._evicted_horizon_ns} ns have been evicted"
            )
        event = TraceEvent(time=time, category=category, fields=fields)
        self._events.append(event)
        self._by_category.setdefault(category, []).append(event)

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """All events, or those of one category, in emission order."""
        if category is None:
            return list(self._events)
        return list(self._by_category.get(category, []))

    def count(self, category: str) -> int:
        """Number of events recorded under ``category``."""
        return len(self._by_category.get(category, []))

    def categories(self) -> List[str]:
        """Sorted list of categories seen so far."""
        return sorted(self._by_category)

    def last(self, category: str) -> Optional[TraceEvent]:
        """Most recent event of a category, or None."""
        events = self._by_category.get(category)
        return events[-1] if events else None

    def canonical_events(self) -> List[TraceEvent]:
        """Events in canonical order: sorted by (time, category, fields).

        Same-timestamp events with no causal edge between them are
        concurrent — the engine may serialize them in any order (and the
        ``tie_shuffle_seed`` race-detector mode deliberately permutes
        them). Canonical order factors that arbitrary serialization out,
        so two runs are behaviourally identical iff their canonical
        traces are byte-identical. A real ordering race changes event
        *content* or *membership*, which canonical order still exposes.
        """
        return sorted(
            self._events,
            key=lambda e: (e.time, e.category, repr(sorted(e.fields.items()))),
        )

    @staticmethod
    def _line(event: TraceEvent) -> bytes:
        return (
            f"{event.time} {event.category} {sorted(event.fields.items())!r}\n"
        ).encode("utf-8")

    @staticmethod
    def _fold(chain: str, events: List[TraceEvent]) -> str:
        """Absorb one window's canonical lines into the hash chain.

        An empty chain seed contributes no bytes, so a single fold over
        the whole trace is exactly the flat canonical SHA-256.
        """
        hasher = hashlib.sha256()
        if chain:
            hasher.update(chain.encode("ascii"))
        for event in events:
            hasher.update(TraceRecorder._line(event))
        return hasher.hexdigest()

    def _windows(self) -> List[List[TraceEvent]]:
        """Retained canonical events grouped into non-empty windows."""
        events = self.canonical_events()
        if self.window_ns is None:
            return [events] if events else []
        windows: List[List[TraceEvent]] = []
        current_index: Optional[int] = None
        for event in events:
            index = event.time // self.window_ns
            if index != current_index:
                windows.append([])
                current_index = index
            windows[-1].append(event)
        return windows

    def digest(self) -> str:
        """SHA-256 over the canonical trace; equal digests ⇔ identical runs.

        With ``window_ns`` None (the default) this is the flat canonical
        hash; with windows it is the window chain — identical for any
        two runs recorded with the same ``window_ns``, whether or not
        either of them evicted.
        """
        chain = self._chain
        for window in self._windows():
            chain = self._fold(chain, window)
        if not chain:
            # Empty trace, no evictions: hash of zero canonical lines.
            return hashlib.sha256().hexdigest()
        return chain

    def rolling_digest(self) -> str:
        """The bounded-memory digest (alias of :meth:`digest`).

        Named separately so soak call sites document that the value
        survives :meth:`evict_before` — it equals the full-trace digest
        of a never-evicting recorder with the same ``window_ns``.
        """
        return self.digest()

    def evict_before(self, time_ns: int) -> int:
        """Fold and drop every *complete* window before ``time_ns``.

        Returns the number of events evicted. Requires ``window_ns``;
        only windows wholly below ``time_ns`` are folded, so events at
        or after the last window boundary stay queryable. After
        eviction, recording earlier than the horizon raises — those
        windows' folds are final.
        """
        if self.window_ns is None:
            raise ValueError("evict_before requires a window_ns")
        horizon = (time_ns // self.window_ns) * self.window_ns
        if horizon <= self._evicted_horizon_ns:
            return 0
        evicted = 0
        for window in self._windows():
            if window[-1].time >= horizon:
                break
            self._chain = self._fold(self._chain, window)
            evicted += len(window)
        if evicted:
            keep = [e for e in self._events if e.time >= horizon]
            self._events = keep
            self._by_category = {}
            for event in keep:
                self._by_category.setdefault(event.category, []).append(event)
            self._evicted_events += evicted
        self._evicted_horizon_ns = horizon
        return evicted

    @property
    def evicted_events(self) -> int:
        """Events absorbed into the digest chain and dropped."""
        return self._evicted_events

    def clear(self) -> None:
        """Drop all recorded events and reset the digest chain."""
        self._events.clear()
        self._by_category.clear()
        self._chain = ""
        self._evicted_events = 0
        self._evicted_horizon_ns = 0

    def __len__(self) -> int:
        return len(self._events)
