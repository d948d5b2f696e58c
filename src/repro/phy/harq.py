"""HARQ soft-combining retransmission buffers.

5G's Hybrid ARQ keeps the soft LLRs of failed decodes and chase-combines
them with retransmissions, so each retry decodes against an effectively
higher SNR. A HARQ sequence is one original transmission plus up to three
retransmissions (paper §4.2); failures that survive all retries fall
through to RLC/TCP retransmission.

Slingshot deliberately discards these buffers during PHY migration: the
destination PHY starts with empty buffers, a mid-sequence retransmission
loses its combining gain, and the decode may fail — which is exactly a
routine bad-channel event from the rest of the stack's perspective. The
stress test (paper Table 2, "interrupted HARQ seqs") counts how often
that happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Maximum retransmissions after the original transmission.
HARQ_MAX_RETX = 3

#: Number of parallel HARQ processes per UE (NR allows up to 16).
HARQ_NUM_PROCESSES = 8


@dataclass
class HarqBuffer:
    """Soft buffer for one HARQ process of one UE."""

    #: Accumulated LLRs from prior failed transmissions (None when fresh).
    soft_llrs: Optional[np.ndarray] = None
    #: Number of transmissions already combined into the buffer.
    transmissions: int = 0
    #: New-data indicator bookkeeping: which TB occupies the process.
    tb_id: Optional[int] = None

    def combine(self, llrs: np.ndarray) -> np.ndarray:
        """Chase-combine new LLRs into the buffer and return the sum."""
        if self.soft_llrs is None:
            self.soft_llrs = np.array(llrs, dtype=np.float64)
        else:
            self.soft_llrs = self.soft_llrs + llrs
        self.transmissions += 1
        return self.soft_llrs

    def clear(self) -> None:
        """Release the buffer (after success or sequence exhaustion)."""
        self.soft_llrs = None
        self.transmissions = 0
        self.tb_id = None

    @property
    def occupied(self) -> bool:
        return self.soft_llrs is not None


@dataclass
class HarqCombineStats:
    """Counters describing combining activity, for overhead/impact analyses."""

    combines: int = 0
    fresh_starts: int = 0
    cleared: int = 0
    lost_to_migration: int = 0


class HarqProcessPool:
    """All HARQ buffers held by one PHY process, keyed by (UE id, process id).

    This *is* the inter-TTI soft state the paper argues can be discarded:
    :meth:`discard_all` models what migration does to it.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[int, int], HarqBuffer] = {}
        self.stats = HarqCombineStats()

    def buffer(self, ue_id: int, process_id: int) -> HarqBuffer:
        """Get (creating if needed) the buffer for a UE's HARQ process."""
        key = (ue_id, process_id)
        buf = self._buffers.get(key)
        if buf is None:
            buf = HarqBuffer()
            self._buffers[key] = buf
        return buf

    def combine(
        self, ue_id: int, process_id: int, tb_id: int, llrs: np.ndarray, new_data: bool
    ) -> np.ndarray:
        """Record one (re)transmission and return the combined LLRs.

        ``new_data`` mirrors the NDI bit: a new TB flushes whatever the
        process held. A retransmission whose buffer was discarded (e.g. by
        migration) combines against nothing and is counted as interrupted.
        """
        buf = self.buffer(ue_id, process_id)
        if new_data or buf.tb_id != tb_id:
            if not new_data and buf.tb_id != tb_id:
                # Retransmission arrived but the buffer holds nothing for
                # this TB: the sequence was interrupted.
                self.stats.lost_to_migration += 1
            buf.clear()
            buf.tb_id = tb_id
            self.stats.fresh_starts += 1
        self.stats.combines += 1
        return buf.combine(llrs)

    def release(self, ue_id: int, process_id: int) -> None:
        """Free a process after decode success or sequence exhaustion."""
        key = (ue_id, process_id)
        buf = self._buffers.get(key)
        if buf is not None and buf.occupied:
            self.stats.cleared += 1
        if buf is not None:
            buf.clear()

    def discard_all(self) -> int:
        """Drop every soft buffer (what PHY migration does). Returns count dropped."""
        dropped = 0
        for buf in self._buffers.values():
            if buf.occupied:
                dropped += 1
            buf.clear()
        return dropped
