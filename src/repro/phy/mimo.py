"""Massive-MIMO inter-slot state (paper §10, future work).

Massive-MIMO PHYs maintain long-lived soft state: downlink precoding
(beamforming) and uplink equalization (zero-forcing) matrices derived
from channel estimates accumulated over tens to hundreds of slots of
sounding. The paper notes this is *still* discardable soft state — a
migrated-to PHY simply re-estimates — but with a possibly larger
transient UE impact than the small-antenna case.

:class:`BeamformingTracker` models that state at the fidelity the
migration question needs: per-UE effective array gain that

* rises toward the full array gain as sounding observations accumulate
  (channel estimates sharpen),
* decays as estimates go stale (channel aging between soundings), and
* vanishes entirely when the state is discarded (PHY migration),
  degrading the UE's effective SNR until re-sounding reconverges.

The extension experiment (``repro.experiments.ext_massive_mimo``)
measures the post-migration throughput transient with and without this
state in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


# Array and estimation parameters.

#: Antennas at the base station (64 is the common massive-MIMO size).
NUM_ANTENNAS = 64
#: Fraction of the ideal array gain a single sounding provides.
GAIN_PER_SOUNDING = 0.12
#: Slots of staleness after which an estimate has lost half its value.
AGING_HALF_LIFE_SLOTS = 200


def max_gain_db() -> float:
    """Ideal coherent array gain: 10·log10(N) for N antennas."""
    return 10.0 * math.log10(NUM_ANTENNAS)


@dataclass
class _UeBeamState:
    #: Estimate quality in [0, 1]: fraction of ideal gain realized.
    quality: float = 0.0
    #: Slot of the most recent sounding folded in.
    last_sounding_slot: int = -1


class BeamformingTracker:
    """Per-UE beamforming/equalization state for one PHY process.

    This is the §10 soft state: ``discard_all`` models migration, after
    which every UE's effective gain restarts from zero and reconverges
    one sounding at a time.
    """

    def __init__(self) -> None:
        self._state: Dict[int, _UeBeamState] = {}
        self.soundings_processed = 0
        self.discards = 0

    def _aged_quality(self, state: _UeBeamState, slot: int) -> float:
        if state.last_sounding_slot < 0:
            return 0.0
        age = max(slot - state.last_sounding_slot, 0)
        decay = 0.5 ** (age / AGING_HALF_LIFE_SLOTS)
        return state.quality * decay

    def on_sounding(self, ue_id: int, slot: int) -> float:
        """Fold one sounding (SRS) observation in; returns the new gain (dB).

        Quality approaches 1.0 geometrically: each sounding closes a
        fixed fraction of the remaining gap, so reconvergence after a
        discard takes tens of soundings — the "tens to hundreds of
        slots" horizon the paper cites.
        """
        state = self._state.setdefault(ue_id, _UeBeamState())
        current = self._aged_quality(state, slot)
        state.quality = current + GAIN_PER_SOUNDING * (1.0 - current)
        state.last_sounding_slot = slot
        self.soundings_processed += 1
        return self.gain_db(ue_id, slot)

    def gain_db(self, ue_id: int, slot: int) -> float:
        """Effective array gain for a UE at a slot (0 dB when untracked)."""
        state = self._state.get(ue_id)
        if state is None:
            return 0.0
        return self._aged_quality(state, slot) * max_gain_db()

    def discard_all(self) -> int:
        """Drop everything (what PHY migration does). Returns UEs affected."""
        affected = len(self._state)
        self._state.clear()
        self.discards += 1
        return affected
