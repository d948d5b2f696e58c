"""Switch control plane (Barefoot-Runtime-style API model).

The control plane installs table rules and resets registers. Its defining
property for Slingshot is *latency*: a rule update takes tens of
milliseconds (the paper measured 29 ms at p99.9 in their testbed) and
cannot be aligned to a TTI boundary — which is why the migration trigger
(`migrate_on_slot`) executes in the data plane instead.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

import numpy as np

from repro.net.p4.tables import MatchActionTable
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import ms_to_ns


class ControlPlane:
    """Asynchronous, slow control-plane writer for switch state.

    Update latency is drawn per operation from a lognormal distribution
    calibrated so the 99.9th percentile lands near the paper's measured
    29 ms.
    """

    #: Lognormal parameters: median ~12 ms, p99.9 ~29 ms.
    _MU = np.log(12.0)
    _SIGMA = 0.285

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[np.random.Generator] = None,
        name: str = "switch-ctl",
    ) -> None:
        self.sim = sim
        self.name = name
        self.rng = (
            rng if rng is not None else RngRegistry(seed=0).stream(f"p4.{name}")
        )
        self.updates_issued = 0
        self._install_label = f"{name}.install"

    def sample_update_latency_ns(self) -> int:
        """Draw one rule-update latency."""
        latency_ms = float(self.rng.lognormal(self._MU, self._SIGMA))
        return ms_to_ns(latency_ms)

    def install_rule(self, table: MatchActionTable, key: Hashable, value: Any) -> int:
        """Install a rule after the control-plane latency; returns apply time."""
        self.updates_issued += 1
        delay = self.sample_update_latency_ns()

        def _apply() -> None:
            table.install(key, value, now=self.sim.now)

        self.sim.schedule(delay, _apply, label=self._install_label)
        return self.sim.now + delay

    def install_rule_sync(self, table: MatchActionTable, key: Hashable, value: Any) -> None:
        """Install a rule immediately (used at deployment/bring-up time).

        Bring-up happens long before any realtime traffic flows, so the
        control-plane latency is irrelevant there.
        """
        table.install(key, value, now=self.sim.now)
