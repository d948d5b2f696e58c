"""Property-based chaos-case generation for the fleet pool.

Hand-written scenarios pin the failure modes someone thought of; the
property harness samples the space nobody enumerated.  Cases are drawn
from the reserved ``faults.prop`` stream of a **private**
:class:`~repro.sim.rng.RngRegistry` (its own seed universe, so test
generation can never perturb a simulation stream), and every case
carries its *expected* pool outcome computed independently of the
simulator — greedy token math over the drawn failure times:

* with re-warm pushed past the horizon, a pool of M tokens grants the
  first ``min(K, M)`` of K failures in detection order;
* failure times are spaced further apart than the slowest detection
  path (the ~4 ms response watchdog), so detection order equals
  injection order and the expected winner set is exact;
* *contention* cases instead fail every cell at the same nanosecond
  against a single token — which cell wins is tie-order dependent by
  design, so only the aggregate counts (exactly ``min(K, M)``
  promotions, no double-assign) are expected.

A sampled subset of cases additionally duplicates Orion's transport
frames (``dup_prob`` on the ``l2`` links): duplicated failure
notifications must not double-claim the pool or double-migrate — the
exactly-once property under the kind of network the paper's §5.2
control plane actually rides on.

One model limitation this harness surfaced (and now pins as bounded):
failing over from a *hung* PHY — which, unlike a crashed one, keeps
transmitting fronthaul downlink — can deliver one stale in-flight frame
for the migration boundary slot to the RU, because the watchdog's
``failover_slot_margin`` is a single slot.  The property tests allow at
most that one boundary-slot conflict for hang promotions and zero
conflicts everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan, LinkFaultSpec, ProcessFaultSpec
from repro.net.packet import EtherType
from repro.sim.rng import RngRegistry
from repro.sim.units import MS

#: The reserved property-generation stream (strict ``faults.*`` family).
PROP_STREAM = "faults.prop"

#: Case timeline: faults start past cell warmup, spaced further apart
#: than the watchdog's ~4 ms detection bound, inside a fixed horizon.
PROP_FAULT_START_NS = 60 * MS
PROP_FAULT_SPACING_NS = 12 * MS
PROP_RUN_END_NS = 150 * MS
#: crash_restart revival delay (within the horizon).
PROP_RESTART_NS = 30 * MS
#: Re-warm pushed past the horizon so the greedy token math is exact.
PROP_REWARM_NS = 10_000 * MS

PROP_KINDS = ("crash", "crash_restart", "hang")
#: Cases drawn; every ``PROP_CONTENTION_EVERY``-th is same-instant.
PROP_CASES = 50
PROP_CONTENTION_EVERY = 5


@dataclass(frozen=True)
class PropCase:
    """One generated mini-fleet chaos case plus its expected outcome."""

    case_id: int
    num_cells: int
    pool_size: int
    #: (cell index, fault spec) in injection-time order.
    faults: Tuple[Tuple[int, ProcessFaultSpec], ...]
    #: Orion-transport duplication applied to every faulted cell (or None).
    link_dup: Optional[LinkFaultSpec]
    #: Same-instant failures against one token: winners unspecified.
    contention: bool
    #: Cell indices expected to win a pool token (None for contention).
    expected_promoted: Optional[Tuple[int, ...]]

    @property
    def expected_promotions(self) -> int:
        return min(len(self.faults), self.pool_size)

    @property
    def expected_exhaustions(self) -> int:
        return len(self.faults) - self.expected_promotions

    def plan_for(self, cell_index: int) -> Optional[FaultPlan]:
        """The per-cell fault plan (cells without faults get None)."""
        specs = tuple(
            spec for faulted_cell, spec in self.faults if faulted_cell == cell_index
        )
        if not specs:
            return None
        link_faults = () if self.link_dup is None else (self.link_dup,)
        return FaultPlan(
            name=f"prop-case{self.case_id}-cell{cell_index}",
            process_faults=specs,
            link_faults=link_faults,
        )


def _draw_spec(stream, kind: str, at_ns: int) -> ProcessFaultSpec:
    if kind == "crash_restart":
        return ProcessFaultSpec(
            phy_id=0, kind=kind, at_ns=at_ns, duration_ns=PROP_RESTART_NS
        )
    return ProcessFaultSpec(phy_id=0, kind=kind, at_ns=at_ns)


def generate_cases(master_seed: int = 2026) -> Tuple[PropCase, ...]:
    """Draw :data:`PROP_CASES` cases."""
    registry = RngRegistry(seed=master_seed)  # Private seed universe.
    stream = registry.stream(PROP_STREAM)
    cases = []
    for case_id in range(PROP_CASES):
        num_cells = int(stream.integers(2, 4))
        if case_id % PROP_CONTENTION_EVERY == 0:
            # Every cell crashes at the same nanosecond, one token.
            at_ns = PROP_FAULT_START_NS + int(stream.integers(0, 5)) * MS
            faults = tuple(
                (cell, _draw_spec(stream, "crash", at_ns))
                for cell in range(num_cells)
            )
            cases.append(
                PropCase(
                    case_id=case_id,
                    num_cells=num_cells,
                    pool_size=1,
                    faults=faults,
                    link_dup=None,
                    contention=True,
                    expected_promoted=None,
                )
            )
            continue
        num_failures = int(stream.integers(1, num_cells + 1))
        failing_cells = sorted(
            int(c) for c in stream.choice(num_cells, size=num_failures, replace=False)
        )
        pool_size = int(stream.integers(0, 4))
        faults = []
        for position, cell in enumerate(failing_cells):
            at_ns = (
                PROP_FAULT_START_NS
                + position * PROP_FAULT_SPACING_NS
                + int(stream.integers(0, 4)) * MS
            )
            kind = PROP_KINDS[int(stream.integers(0, len(PROP_KINDS)))]
            faults.append((cell, _draw_spec(stream, kind, at_ns)))
        link_dup = None
        if stream.random() < 0.3:
            link_dup = LinkFaultSpec(
                link_pattern="l2",
                start_ns=PROP_FAULT_START_NS - 10 * MS,
                end_ns=PROP_RUN_END_NS,
                dup_prob=round(0.05 + 0.15 * float(stream.random()), 4),
                ethertypes=(EtherType.IPV4,),
            )
        winners = tuple(
            cell for cell, _ in faults[: min(num_failures, pool_size)]
        )
        cases.append(
            PropCase(
                case_id=case_id,
                num_cells=num_cells,
                pool_size=pool_size,
                faults=tuple(faults),
                link_dup=link_dup,
                contention=False,
                expected_promoted=winners,
            )
        )
    return tuple(cases)
