"""Vectorized fleet-PHY backend: one encode kernel call per timestamp.

In a composed fleet every cell's PHY finishes its uplink pipeline at the
same slot-relative deadline, so at any completion timestamp there are
O(cells) transport blocks waiting for the same RNG-free transmit chain
(codeword table -> constellation gather). The per-cell path pays one
batched-kernel invocation *per cell*; this backend pays one *per fleet*:

* At slot-processing time each PHY **registers** its planned uplink work
  (completion time, cell, slot, scheduled PDUs) — captures have not
  arrived yet at that point, so registration records only the plan. A
  slot with no PDU registers nothing.
* When the first ``_finish_uplink`` at a timestamp that captured a block
  asks for symbols, the backend **gathers** every registered plan at
  that instant, peeks each cell's captured blocks read-only (the owning
  PHY still pops them itself), dedupes by encode key, and runs **one**
  batched encode per LDPC code object across all cells. Results are
  **scattered** back through a per-timestamp symbol cache keyed by
  content.

Byte-identity is structural, not incidental: the transmit chain is a
pure function of ``(code, tb_id, modulation)`` (the batch kernels in
:mod:`repro.phy.batch` are fuzz-pinned bit-identical to the per-block
references, and ``representative_bits`` derives from ``tb_id`` alone),
so cross-cell batching cannot change any symbol regardless of gather
order. All RNG draws — channel noise, SNR measurement error — stay in
each cell's own decode loop, in unchanged serial per-cell order, so
trace digests are bit-identical to the per-cell path by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: Symbol-cache key: the full input domain of the RNG-free encode chain.
_EncodeKey = Tuple[int, int, Any]


def _encode_key(codec: Any, block: Any) -> _EncodeKey:
    return (id(codec.code), block.tb_id, block.modulation)


@dataclass
class FleetPhyBackendStats:
    """Kernel-level accounting for the vectorized backend."""

    #: Batched encode kernel invocations (gather passes x code groups).
    kernel_invocations: int = 0
    #: Blocks encoded inside gather passes (deduped across cells).
    blocks_encoded: int = 0
    #: Blocks served straight from the per-timestamp symbol cache.
    cache_hits: int = 0
    #: Blocks the gathered batch did not cover, encoded supplementary.
    #: Mostly the demanding PHY's own: ``_finish_uplink`` pops its
    #: captures before it demands, so the gather's peek no longer finds
    #: them and they are served only if a sibling planned an identical
    #: key (a capture landing after the gather is the rare case).
    supplementary_blocks: int = 0
    #: Gather passes performed (at most one per completion timestamp).
    gather_passes: int = 0


class FleetPhyBackend:
    """Cross-cell batched encode, byte-identical to the per-cell path.

    Attach one instance to every PHY of a fleet (``phy.phy_backend =
    backend``); PHYs without a backend keep the per-cell
    ``codec.encode_blocks`` path.
    """

    def __init__(self) -> None:
        #: Planned uplink completions: done_at -> [(phy, cell, abs_slot, pdus)].
        self._planned: Dict[int, List[Tuple[Any, Any, int, List[Any]]]] = {}
        #: Per-timestamp symbol cache; flushed when the clock moves on.
        self._cache: Dict[_EncodeKey, np.ndarray] = {}
        self._cache_time: int = -1
        self.stats = FleetPhyBackendStats()

    # ------------------------------------------------------------------
    # Registration (from PhyProcess._process_cell_slot)
    # ------------------------------------------------------------------
    def register(
        self, done_at: int, phy: Any, cell: Any, abs_slot: int, ul_pdus: Sequence[Any]
    ) -> None:
        """Record that ``phy`` will finish ``cell``'s slot at ``done_at``."""
        planned = self._planned
        # A plan nobody demanded (its PHY crashed, or captured nothing)
        # is never gathered; drop past ones before they pile up.
        if len(planned) > 8:
            now = phy.sim.now
            for stale in [t for t in planned if t < now]:
                del planned[stale]
        planned.setdefault(done_at, []).append((phy, cell, abs_slot, list(ul_pdus)))

    # ------------------------------------------------------------------
    # Demand (from PhyProcess._finish_uplink, replacing codec.encode_blocks)
    # ------------------------------------------------------------------
    def encode_blocks(
        self, phy: Any, blocks: Sequence[Any]
    ) -> List[np.ndarray]:
        """Symbols for ``blocks``, element-for-element identical to
        ``phy.codec.encode_blocks(blocks)``.

        The first demand at a timestamp triggers the fleet-wide gather;
        later demands at the same instant are cache hits.
        """
        now = phy.sim.now
        if now != self._cache_time:
            self._cache.clear()
            self._cache_time = now
            self._gather(now)
        cache = self._cache
        misses = [
            block for block in blocks if _encode_key(phy.codec, block) not in cache
        ]
        if misses:
            # Not covered by the gather (the demander's own popped
            # captures with no sibling twin, a capture that landed after
            # it, a PHY that never registered): encode them in one
            # supplementary batch so the demand is still a single call.
            for block, symbols in zip(misses, phy.codec.encode_blocks(misses)):
                cache[_encode_key(phy.codec, block)] = symbols
            self.stats.kernel_invocations += 1
            self.stats.supplementary_blocks += len(misses)
        self.stats.cache_hits += len(blocks) - len(misses)
        return [cache[_encode_key(phy.codec, block)] for block in blocks]

    # ------------------------------------------------------------------
    # Gather -> batched kernels -> scatter (into the cache)
    # ------------------------------------------------------------------
    def _gather(self, now: int) -> None:
        """Batch-encode every block planned fleet-wide for this instant."""
        plans = self._planned.pop(now, None)
        if not plans:
            return
        self.stats.gather_passes += 1
        cache = self._cache
        # One batch per LDPC code object: encode output depends only on
        # (code, tb_id, modulation), so PHYs sharing the cached default
        # code batch together no matter which cell they serve.
        groups: Dict[int, Tuple[Any, List[Any], List[_EncodeKey]]] = {}
        seen: set = set()
        for phy, cell, abs_slot, ul_pdus in plans:
            codec = phy.codec
            for pdu in ul_pdus:
                # Read-only peek: the owning PHY pops the capture itself
                # when its _finish_uplink runs.
                capture = cell.captures.get((abs_slot, pdu.ue_id))
                if capture is None:
                    continue
                block = capture.block
                key = _encode_key(codec, block)
                if key in cache or key in seen:
                    continue
                seen.add(key)
                group = groups.get(key[0])
                if group is None:
                    group = (codec, [], [])
                    groups[key[0]] = group
                group[1].append(block)
                group[2].append(key)
        for codec, group_blocks, keys in groups.values():
            symbols = codec.encode_blocks(group_blocks)
            for key, row in zip(keys, symbols):
                cache[key] = row
            self.stats.kernel_invocations += 1
            self.stats.blocks_encoded += len(group_blocks)
