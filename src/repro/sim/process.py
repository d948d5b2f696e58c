"""Process helpers layered on the event engine.

A :class:`Process` is a named component bound to a simulator — all vRAN
nodes (RU, PHY, L2, Orion, switch, UE, ...) derive from it. Periodic
work rides :meth:`~repro.sim.engine.Simulator.schedule_periodic`.
"""

from __future__ import annotations

from repro.sim.engine import EventHandle, Simulator


class Process:
    """A named simulation component bound to a :class:`Simulator`."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self.sim.now

    def call_after(self, delay: int, callback, *args, label: str = "") -> EventHandle:
        """Schedule a callback ``delay`` ns from now, labelled with this process."""
        return self.sim.schedule(
            delay, callback, *args, label=label or f"{self.name}.{callback.__name__}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
