"""Deterministic random-number streams.

Every stochastic component in the simulation (wireless channel noise, PHY
processing jitter, application pacing, dirty-page behaviour of the VM
migration baseline, ...) draws from its own named stream. Streams are
derived from a single scenario seed with ``numpy``'s SeedSequence spawning,
so adding a new consumer never perturbs the draws seen by existing ones,
and re-running a scenario reproduces the exact same trace.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

#: Optional observer invoked on every stream acquisition with
#: ``(registry, name)``. Installed by the slinglint ``--sanitize`` pass
#: over two seed-1 chaos branches and a short fig9 failover, to
#: cross-check runtime draws against the static ownership map; it
#: must never draw from (or otherwise perturb) the stream — with the
#: default ``None`` the registry behaves exactly as before.
_STREAM_OBSERVER: Optional[Callable[["RngRegistry", str], None]] = None


def set_stream_observer(
    observer: Optional[Callable[["RngRegistry", str], None]],
) -> Optional[Callable[["RngRegistry", str], None]]:
    """Install (or, with ``None``, remove) the global stream observer.

    Returns the previously installed observer so callers can restore it.
    """
    global _STREAM_OBSERVER
    previous = _STREAM_OBSERVER
    _STREAM_OBSERVER = observer
    return previous


class BatchedIntegers:
    """Block-prefetching facade over one generator's bounded integers.

    ``numpy`` fills arrays with the same per-element routine it uses for
    scalar draws, so for a *fixed* ``[low, high)`` bound
    ``Generator.integers(low, high, size=n)`` consumes the bit stream
    exactly like ``n`` scalar calls — prefetching a block amortizes the
    per-call numpy dispatch overhead without changing a single value.
    (Pinned by ``tests/test_sim_engine.py``.) Used by the engine's
    tie-shuffle key stream, where the race detector draws one key per
    scheduled event.

    The facade must *own* its generator: interleaving direct draws on the
    same generator with batched draws would see values out of order
    relative to the unbatched program.
    """

    __slots__ = ("_gen", "_low", "_high", "_block", "_buf", "_pos")

    def __init__(
        self,
        generator: np.random.Generator,
        low: int,
        high: int,
        block: int = 256,
    ) -> None:
        if block <= 0:
            raise ValueError(f"block must be positive, got {block}")
        self._gen = generator
        self._low = low
        self._high = high
        self._block = block
        self._buf: List[int] = []
        self._pos = 0

    def draw(self) -> int:
        """Next integer in [low, high); identical to scalar ``integers()``."""
        if self._pos >= len(self._buf):
            self._buf = self._gen.integers(
                self._low, self._high, size=self._block
            ).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value


class RngRegistry:
    """Registry of named, independently-seeded ``numpy`` generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream's seed is derived from ``(scenario seed, stream name)``
        only, so the set or order of other streams requested does not
        affect it.
        """
        if _STREAM_OBSERVER is not None:
            _STREAM_OBSERVER(self, name)
        generator = self._streams.get(name)
        if generator is None:
            name_entropy = [ord(ch) for ch in name]
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(name_entropy))
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
