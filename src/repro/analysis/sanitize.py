"""Runtime sanitizer: static STREAM map vs. actual draws of a short workload.

The STREAM rules (:mod:`repro.analysis.streams`) prove stream-name
ownership *statically*; this module closes the loop at runtime. With the
:func:`repro.sim.rng.set_stream_observer` hook installed, every
``RngRegistry.stream(...)`` acquisition during :data:`WORKLOAD` — two
seed-1 chaos branches run in-process, and a 0.5 s fig9 ping failover —
is recorded with the module that made it, then diffed against the
static map:

* a dynamic draw whose ``(name, module)`` matches no static site in that
  module is a **divergence** — the static analysis is blind to a real
  draw (an ``exec``-built name, a monkeypatched acquirer, a site the
  extractor failed to see), so every STREAM guarantee is unsound there;
* static sites the workload never exercised are reported as coverage,
  not divergence — the workload is deliberately small.

The observer only records; it never draws.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.program import Program
from repro.analysis.streams import StreamSite, stream_sites

#: Modules whose frames are skipped when attributing a draw to its
#: caller: the registry's own internals and this recorder.
_INFRA_MODULES = frozenset({"repro.sim.rng", "repro.analysis.sanitize"})

#: What :func:`run_sanitizer` runs, as its summary names it.
WORKLOAD = "chaos cmd_drop + crash_restart at seed 1, a 0.5 s fig9 failover"


def _caller_module() -> str:
    """Module name of the nearest non-infrastructure frame."""
    frame = sys._getframe(1)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name not in _INFRA_MODULES:
            return name
        frame = frame.f_back
    return "<unknown>"


@dataclass
class SanitizeResult:
    """Outcome of one static-vs-dynamic stream cross-check."""

    #: Distinct (stream name, caller module) pairs observed at runtime.
    draws: List[Tuple[str, str]] = field(default_factory=list)
    #: Observed draws with no matching static site in the caller module.
    divergences: List[str] = field(default_factory=list)
    #: Static sites matched by at least one observed draw.
    covered_sites: int = 0
    total_sites: int = 0

    def summary(self) -> str:
        status = (
            "0 divergences"
            if not self.divergences
            else f"{len(self.divergences)} DIVERGENCES"
        )
        lines = [
            f"sanitize: {len(self.draws)} distinct stream draws across "
            f"{WORKLOAD}; "
            f"{self.covered_sites}/{self.total_sites} static sites "
            f"exercised; {status}"
        ]
        lines.extend(f"  divergence: {entry}" for entry in self.divergences)
        return "\n".join(lines)


def run_sanitizer(program: Program) -> SanitizeResult:
    """Run :data:`WORKLOAD` with the recorder on and diff the draws.

    The campaign runs at ``jobs=1``, in this process, where the observer
    sees its draws. The simulation stack is imported lazily so a plain
    lint pass never pulls it (or numpy) into the analyzer's import graph.
    """
    from repro.experiments import fig9_ping
    from repro.faults.campaign import run_campaign
    from repro.faults.scenarios import scenario_by_name
    from repro.sim.rng import set_stream_observer

    observed: Set[Tuple[str, str]] = set()

    def record(_registry, name: str) -> None:
        observed.add((name, _caller_module()))

    previous = set_stream_observer(record)
    try:
        catalog = scenario_by_name()
        run_campaign([catalog["cmd_drop"], catalog["crash_restart"]], seeds=(1,), jobs=1)
        fig9_ping.run(duration_s=0.5, failure_at_s=0.3)
    finally:
        set_stream_observer(previous)

    sites = stream_sites(program)
    by_module: Dict[str, List[StreamSite]] = {}
    for site in sites:
        by_module.setdefault(site.module, []).append(site)

    matched_sites: Set[Tuple[str, int, int]] = set()
    divergences: List[str] = []
    for name, module in sorted(observed):
        candidates = by_module.get(module, [])
        hits = [site for site in candidates if site.matches(name)]
        if hits:
            for site in hits:
                matched_sites.add((site.path, site.line, site.col))
        else:
            divergences.append(
                f"stream {name!r} drawn from {module} matches no static "
                "site in that module"
            )
    return SanitizeResult(
        draws=sorted(observed),
        divergences=divergences,
        covered_sites=len(matched_sites),
        total_sites=len(sites),
    )
