"""Declarative fault plans.

A :class:`FaultPlan` says *what* goes wrong, *where*, *when*, and *for
how long* — nothing about how the faults are realized. The
:class:`~repro.faults.injector.FaultInjector` executes a plan against a
built cell; keeping the description pure data makes scenarios diffable,
serializable into campaign reports, and trivially seed-independent (all
randomness lives in the executor's named RNG streams).

Times are absolute simulated nanoseconds, matching the campaign's fixed
timeline (warmup, fault window, measurement window).

A spec that cannot mean anything — a probability outside [0, 1], an
empty window, a negative duration or PHY index — is refused when it is
built; one a particular cell cannot honour is refused by
:meth:`~repro.faults.injector.FaultInjector.arm`. Either way it is one
``ValueError`` naming the spec and the defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.net.packet import EtherType

#: "Until the end of the run" sentinel for open-ended fault windows.
FOREVER = 2**62


def invalid_spec(spec, defect: str) -> ValueError:
    """The one error a spec a plan cannot honour raises: which, and why."""
    return ValueError(f"{spec!r}: {defect}")


def _refuse_negative(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if value < 0:
            raise invalid_spec(spec, f"negative {name} {value}")


@dataclass(frozen=True)
class LinkFaultSpec:
    """Probabilistic impairment of the links whose name contains
    ``link_pattern``, active in ``[start_ns, end_ns)``.

    Per matching frame the impairment draws, in fixed order, one uniform
    each for loss, corruption, reordering, and duplication, so the RNG
    stream consumption is independent of which faults are enabled.
    """

    link_pattern: str
    start_ns: int = 0
    end_ns: int = FOREVER
    #: P(frame silently dropped).
    loss_prob: float = 0.0
    #: P(payload corrupted; receivers fail integrity checks and discard).
    corrupt_prob: float = 0.0
    #: P(delivery delayed by uniform(0, reorder_jitter_ns) — frames
    #: behind it can overtake, violating the link's FIFO contract).
    reorder_prob: float = 0.0
    reorder_jitter_ns: int = 0
    #: P(frame delivered twice).
    dup_prob: float = 0.0
    #: Restrict to these ethertypes (empty tuple = every frame).
    ethertypes: Tuple[EtherType, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss_prob", "corrupt_prob", "reorder_prob", "dup_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise invalid_spec(self, f"{name} {value} is outside [0, 1]")
        if self.end_ns <= self.start_ns:
            raise invalid_spec(
                self, f"end_ns {self.end_ns} <= start_ns {self.start_ns}"
            )
        _refuse_negative(self, "reorder_jitter_ns")


@dataclass(frozen=True)
class ProcessFaultSpec:
    """A PHY-process fault.

    Kinds:

    * ``crash`` — fail-stop at ``at_ns`` (the paper's §8.2 injection).
    * ``crash_restart`` — crash, then restart ``duration_ns`` later and
      re-initialize the server as the cell's new hot standby (operator
      revival through Orion's stored-config replay, §6.3).
    * ``hang`` — gray failure: fronthaul heartbeats continue, FAPI
      responses stop. Invisible to the in-switch detector; exercises the
      L2-side Orion response watchdog. ``duration_ns`` 0 = forever.
    * ``slowdown`` — gray failure: every slot's uplink pipeline
      completion is delayed by ``slowdown_ns`` for ``duration_ns``.
    """

    phy_id: int
    kind: str
    at_ns: int
    duration_ns: int = 0
    slowdown_ns: int = 0
    #: After a crash_restart, revive the server as hot standby.
    reinit_secondary: bool = True

    KINDS = ("crash", "crash_restart", "hang", "slowdown")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise invalid_spec(self, f"unknown process fault kind {self.kind!r}")
        # ``phy_servers[-1]`` would silently fault the last server.
        _refuse_negative(self, "phy_id", "duration_ns", "slowdown_ns")


@dataclass(frozen=True)
class FaultPlan:
    """One scenario's complete fault description."""

    name: str
    link_faults: Tuple[LinkFaultSpec, ...] = ()
    process_faults: Tuple[ProcessFaultSpec, ...] = ()
