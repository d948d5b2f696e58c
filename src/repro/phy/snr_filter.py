"""Per-UE SNR moving average.

The PHY maintains an exponentially-weighted moving average of each UE's
measured SNR (paper §4.2); the L2 uses the reported value for MCS
selection and to detect UE disconnection. Slingshot discards this filter
state on migration, so the destination PHY reports a default/stale value
until the filter reconverges (~25 ms in the paper), briefly biasing MCS
choice — another impairment the RAN absorbs naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


#: Default SNR a fresh PHY assumes for a UE before any measurement.
DEFAULT_SNR_DB = 10.0
#: Weight of each new sample, in (0, 1].
ALPHA = 0.1
#: Samples before a UE's average is trusted.
MIN_SAMPLES = 10


@dataclass
class _FilterState:
    value_db: float
    samples: int


class SnrMovingAverage:
    """EWMA SNR tracker for all UEs served by one PHY process.

    With one UL measurement per 2.5 ms (one UL slot per DDDSU period)
    and :data:`ALPHA` = 0.1, the filter
    converges to within 1 dB of a step change in roughly 25 ms, matching
    the paper's reconvergence remark.
    """

    def __init__(self) -> None:
        self._state: Dict[int, _FilterState] = {}

    def update(self, ue_id: int, measured_snr_db: float) -> float:
        """Fold one measurement into the UE's average; returns the new value."""
        state = self._state.get(ue_id)
        if state is None:
            state = _FilterState(value_db=measured_snr_db, samples=1)
            self._state[ue_id] = state
        else:
            state.value_db += ALPHA * (measured_snr_db - state.value_db)
            state.samples += 1
        return state.value_db

    def report(self, ue_id: int) -> float:
        """Current average for a UE (default if never measured)."""
        state = self._state.get(ue_id)
        return state.value_db if state is not None else DEFAULT_SNR_DB

    def samples(self, ue_id: int) -> int:
        """Number of measurements folded in for a UE since last reset."""
        state = self._state.get(ue_id)
        return state.samples if state is not None else 0

    def converged(self, ue_id: int) -> bool:
        """True once the filter has seen enough samples to be trusted."""
        return self.samples(ue_id) >= MIN_SAMPLES

    def discard_all(self) -> None:
        """Drop all filter state (what PHY migration does)."""
        self._state.clear()
