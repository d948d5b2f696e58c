"""Deterministic random-number streams.

Every stochastic component in the simulation (wireless channel noise, PHY
processing jitter, application pacing, dirty-page behaviour of the VM
migration baseline, ...) draws from its own named stream. Streams are
derived from a single scenario seed with ``numpy``'s SeedSequence spawning,
so adding a new consumer never perturbs the draws seen by existing ones,
and re-running a scenario reproduces the exact same trace.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Stream namespace head -> (owning subsystem, strict). A stream's draws
#: are a pure function of ``(scenario seed, stream name)``, so a
#: subsystem drawing a stream another one owns couples the two through
#: one bit stream. Adding a stream family means declaring its head here;
#: :meth:`RngRegistry.stream` refuses an undeclared one. A strict
#: namespace is drawn by its owner only: fault injection and fleet
#: composition never share a bit stream with the system under test, and
#: ``perf.*`` is reserved for the test corpora (``tests/corpora.py``).
NAMESPACES: Dict[str, Tuple[str, bool]] = {
    "app": ("apps", False),  # application traffic sources
    "baseline": ("baselines", False),  # non-Slingshot baseline models
    "core": ("corenet", False),  # core-network attach jitter
    "faults": ("faults", True),  # chaos fault plans
    "fleet": ("fleet", True),  # fleet composition (tracer sampling)
    "perf": ("perf", True),  # test input corpora
    "phy": ("cell", False),  # per-PHY processing jitter
    "ue": ("cell", False),  # per-UE channel and modem
}

#: Subsystems that may also draw any non-strict namespace: the wiring
#: layers that thread streams into components at build time.
COMPOSITION_ROOTS = frozenset({"cell", "experiments"})


def namespace_head(name: str) -> str:
    """Leading namespace component of a stream name.

    ``"faults.link.fh"`` -> ``"faults"``; a trailing digit run is
    stripped when that leaves a plausible head (``"phy3"`` -> ``"phy"``,
    ``"ue12.channel"`` -> ``"ue"``) but short heads keep their digits
    (``"p4"`` stays ``"p4"``).
    """
    head = name.split(".", 1)[0]
    stripped = head.rstrip("0123456789")
    return stripped if stripped != head and len(stripped) >= 2 else head


def _check_owner(
    name: str, caller: str, subsystem: str, first: Optional[str]
) -> None:
    """Raise unless ``subsystem`` (the module ``caller``'s) may draw
    ``name``, which this registry first handed to ``first`` (``None``:
    not yet handed to any subsystem)."""
    head = namespace_head(name)
    declared = NAMESPACES.get(head)
    if declared is None:
        problem = f"its namespace {head!r} has no owner in repro.sim.rng.NAMESPACES"
    else:
        owner, strict = declared
        if subsystem != owner and (strict or subsystem not in COMPOSITION_ROOTS):
            kind = "strict " if strict else ""
            problem = f"it belongs to the {kind}{head}.* namespace owned by {owner!r}"
        elif first is not None and first != subsystem:
            problem = (
                f"this registry already handed it to {first!r} "
                f"(namespace owner {owner!r})"
            )
        else:
            return
    raise ValueError(f"stream {name!r} drawn from {caller}: {problem}")


#: Integers :class:`BatchedIntegers` prefetches per numpy call.
BATCH_BLOCK = 256


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

    __slots__ = ("_gen", "_low", "_high", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator, low: int, high: int) -> None:
        self._gen = generator
        self._low = low
        self._high = high
        self._buf: List[int] = []
        self._pos = 0

    def draw(self) -> int:
        """Next integer in [low, high); identical to scalar ``integers()``."""
        if self._pos >= len(self._buf):
            self._buf = self._gen.integers(
                self._low, self._high, size=BATCH_BLOCK
            ).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value


class RngRegistry:
    """Registry of named, independently-seeded ``numpy`` generators.

    Each stream is drawn only by the subsystem that owns it
    (:data:`NAMESPACES`): :meth:`stream` checks every caller inside the
    ``repro`` package; tests, benchmarks and examples are exempt.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: name -> (generator, first ``repro`` subsystem to acquire it).
        self._streams: Dict[str, Tuple[np.random.Generator, Optional[str]]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream's seed is derived from ``(scenario seed, stream name)``
        only, so the set or order of other streams requested does not
        affect it. A caller in ``repro.<subsystem>`` gets a
        ``ValueError`` naming the stream, itself and the owner when the
        namespace is undeclared, belongs to another subsystem (a
        composition root may wire a non-strict one), or was already
        handed to another subsystem by this registry. Streams are
        acquired when components are built (and on a UE's re-attach),
        never on a per-slot path, so the check costs no slot anything.
        """
        caller = sys._getframe(1).f_globals.get("__name__", "")
        subsystem = caller.split(".")[1] if caller.startswith("repro.") else None
        entry = self._streams.get(name)
        if subsystem is not None:
            _check_owner(name, caller, subsystem, None if entry is None else entry[1])
        if entry is None:
            name_entropy = [ord(ch) for ch in name]
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(name_entropy))
            entry = (np.random.Generator(np.random.PCG64(seq)), subsystem)
            self._streams[name] = entry
        elif entry[1] is None and subsystem is not None:
            self._streams[name] = (entry[0], subsystem)
        return entry[0]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
