"""Tofino-style built-in packet generator — the eager model, a test fixture.

The runtime evaluates the timer-tick stream arithmetically
(:mod:`repro.core.failure_detector`); this is the literal model it
replaced — one engine event per injected timer packet — kept so
``tests/test_detector_deadline.py`` can drive both with one schedule and
require identical detections, counters and stats. ``PeriodicProcess``,
the self-ticking base class the generator was the last runtime user of,
moved here with it.

Programmable switches lack timers in the data plane; the paper (§5.2.2)
emulates timeout events by configuring the switch's packet generator to
inject ``n`` packets per timeout period ``T`` into the pipeline, where
they increment per-PHY registers. With the paper's defaults (T = 450 us,
n = 50) the detector's tick precision is T/n = 9 us at a negligible 50 k
packets/second of internal traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.engine import PeriodicHandle, Simulator
from repro.sim.process import Process


class PeriodicProcess(Process):
    """A process that invokes :meth:`on_tick` every ``period`` ns.

    Subclasses override :meth:`on_tick`. The tick counter starts at zero and
    increments by one per period, so slot-driven components can derive their
    slot number directly from it.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        period: int,
        start_offset: int = 0,
    ) -> None:
        super().__init__(sim, name)
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.tick_count = 0
        self._stopped = False
        self._next_tick: Optional[PeriodicHandle] = sim.schedule_periodic(
            period, self._tick, first_at=sim.now + start_offset
        )

    def stop(self) -> None:
        """Stop ticking; the pending tick (if any) is cancelled."""
        self._stopped = True
        if self._next_tick is not None:
            self._next_tick.cancel()
            self._next_tick = None

    @property
    def running(self) -> bool:
        """True while the process continues to tick."""
        return not self._stopped

    def _tick(self) -> None:
        if self._stopped:
            return
        tick = self.tick_count
        self.tick_count += 1
        self.on_tick(tick)

    def on_tick(self, tick: int) -> None:
        """Handle one period; ``tick`` counts from zero. Override in subclasses."""
        raise NotImplementedError


@dataclass(frozen=True)
class TimerPacket:
    """Payload of a generator-injected timer packet."""

    tick: int


class PacketGenerator(PeriodicProcess):
    """Injects timer packets into the switch pipeline at a fixed rate.

    Parameters
    ----------
    sim:
        Shared simulator.
    inject:
        Callback receiving each :class:`TimerPacket`; the fronthaul
        middlebox wires this to the switch's pipeline ingress.
    period_ns:
        Interval between injected packets (= T / n).
    """

    def __init__(
        self,
        sim: Simulator,
        inject: Callable[[TimerPacket], None],
        period_ns: int,
        name: str = "pktgen",
    ) -> None:
        super().__init__(sim, name, period=period_ns)
        self._inject = inject
        self.packets_injected = 0

    @classmethod
    def for_timeout(
        cls,
        sim: Simulator,
        inject: Callable[[TimerPacket], None],
        timeout_ns: int,
        ticks_per_timeout: int,
        name: str = "pktgen",
    ) -> "PacketGenerator":
        """Configure the generator for an n-ticks-per-timeout detector."""
        if ticks_per_timeout <= 0:
            raise ValueError("ticks_per_timeout must be positive")
        period = max(1, timeout_ns // ticks_per_timeout)
        return cls(sim, inject, period, name=name)

    @property
    def rate_pps(self) -> float:
        """Injection rate in packets per second."""
        return 1e9 / self.period

    def on_tick(self, tick: int) -> None:
        self.packets_injected += 1
        self._inject(TimerPacket(tick=tick))
