"""The shared N:M standby-capacity pool.

Every fleet cell keeps a warm null-FAPI standby *seat* (the §2.2
co-location — near-free by the §8.5 overhead measurement), but promoting
that seat on a failover consumes one unit of the fleet's shared standby
*capacity*: the CPU/fronthaul headroom provisioned for full-rate PHY
processing.  The pool models that capacity as ``size`` tokens.  A claim
at promotion time either grants (token consumed, re-warm scheduled) or
denies — and a denied cell degrades exactly like a cell with no standby,
surfacing ``orion.failover_impossible``.

Re-warm restores the *capacity* after ``rewarm_ns`` (a replacement
server is provisioned into the pool); it does not resurrect the failed
cell's own redundancy — that still takes an operator reviving the dead
server (``initialize_secondary``).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class StandbyPool:
    """Fleet-wide pool of warm standby capacity tokens."""

    def __init__(
        self,
        sim: Simulator,
        size: int,
        rewarm_ns: int,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.rewarm_ns = rewarm_ns
        self.trace = trace
        self.promotions = 0
        self.exhaustions = 0
        self.rewarmed = 0
        self.resize(size)

    def resize(self, size: int) -> None:
        """Provision ``size`` tokens; refused once a claim has been made."""
        if size < 0:
            raise ValueError(f"pool size must be >= 0, got {size}")
        if self.promotions or self.exhaustions:
            raise RuntimeError(
                f"cannot resize a pool after {self.promotions + self.exhaustions} "
                "claim(s)"
            )
        self.size = size
        self.available = size

    # ------------------------------------------------------------------
    def claim(self, cell_index: int, cell_id: int, phy_id: int) -> bool:
        """Claim one capacity token for promoting ``cell_index``'s seat.

        Claims execute inside ordinary simulator events, so concurrent
        failures contend in event order and each token is granted exactly
        once — there is no double-assign window.
        """
        if self.available <= 0:
            self.exhaustions += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.now,
                    "fleet.pool.exhausted",
                    cell=cell_index,
                    phy=phy_id,
                )
            return False
        self.available -= 1
        self.promotions += 1
        if self.trace is not None:
            self.trace.record(
                self.sim.now,
                "fleet.pool.promoted",
                cell=cell_index,
                phy=phy_id,
                available=self.available,
            )
        self.sim.schedule(self.rewarm_ns, self._rewarm, label="fleet.pool.rewarm")
        return True

    def _rewarm(self) -> None:
        """A replacement standby finished provisioning: restore capacity."""
        if self.available >= self.size:
            return  # Capacity already at the provisioned ceiling.
        self.available += 1
        self.rewarmed += 1
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "fleet.pool.rewarmed", available=self.available
            )

    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        return {
            "size": self.size,
            "available": self.available,
            "promotions": self.promotions,
            "exhaustions": self.exhaustions,
            "rewarmed": self.rewarmed,
        }


class PoolGate:
    """Per-cell adapter plugged into ``L2SideOrion.standby_gate``.

    A plain callable class (no closures) so fleet harnesses stay
    picklable for checkpoint capture.
    """

    __slots__ = ("pool", "cell_index", "on_decision")

    def __init__(self, pool: StandbyPool, cell_index: int, on_decision=None) -> None:
        self.pool = pool
        self.cell_index = cell_index
        #: Optional observer called with (cell_index, granted) — the
        #: population model marks the cell degraded/recovering from here.
        self.on_decision = on_decision

    def __call__(self, assignment) -> bool:
        granted = self.pool.claim(
            self.cell_index, assignment.cell_id, assignment.secondary_phy
        )
        if self.on_decision is not None:
            self.on_decision(self.cell_index, granted)
        return granted
