"""Process helpers layered on the event engine.

A :class:`Process` is a named component bound to a simulator — all vRAN
nodes (RU, PHY, L2, Orion, switch, UE, ...) derive from it. The clock is
``self.sim.now``; one-shot work rides
:meth:`~repro.sim.engine.Simulator.schedule` and periodic work
:meth:`~repro.sim.engine.Simulator.schedule_periodic`.
"""

from __future__ import annotations

from repro.sim.engine import Simulator


class Process:
    """A named simulation component bound to a :class:`Simulator`."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
