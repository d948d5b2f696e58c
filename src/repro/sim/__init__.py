"""Discrete-event simulation substrate.

Every component of the reproduced vRAN (radio unit, PHY processes, L2,
programmable switch, UEs, core network, application server) runs as an
event-driven process on a shared :class:`~repro.sim.engine.Simulator`.

Simulated time is an integer count of nanoseconds; helper constants for
common durations live in :mod:`repro.sim.units`.
"""

from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder, TraceEvent
from repro.sim.units import (
    NS,
    US,
    MS,
    SECOND,
    ns_to_ms,
    ns_to_s,
    ns_to_us,
    s_to_ns,
    seconds,
)

__all__ = [
    "Simulator",
    "Process",
    "RngRegistry",
    "TraceRecorder",
    "TraceEvent",
    "NS",
    "US",
    "MS",
    "SECOND",
    "ns_to_us",
    "ns_to_ms",
    "ns_to_s",
    "s_to_ns",
    "seconds",
]
