#!/usr/bin/env python3
"""Render the generated doc blocks and ledgers from the committed sources.

    PYTHONPATH=src python benchmarks/render_perf_docs.py          # rewrite
    PYTHONPATH=src python benchmarks/render_perf_docs.py --check  # exit 1 if stale

README.md, DESIGN.md (section 9) and EXPERIMENTS.md quote the recorded
macro sim/wall ratios, receive-chain rate, TCP recovery cost and
switch-transit cost between ``<!-- perf:NAME:begin -->`` and
``<!-- perf:NAME:end -->`` markers. This script regenerates those blocks
from the committed JSON's full-mode results, so the docs are never typed
from memory; ``tests/test_perf_harness.py`` runs the ``--check`` form in
tier-1. The numbers are one host's recorded, ungated rates.

DESIGN section 7's slinglint rule table sits between the same kind of
markers (``perf:rules``) and is rendered from the rule registry, the one
place a rule's id, severity and title are written down.

It also writes ``benchmarks/src_lines.json``, the per-package line count
of ``src/repro`` (:func:`src_line_ledger`), so a PR's diff shows what it
did to the size of the runtime package instead of CHANGES.md typing it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Callable, Dict

from repro import CellConfig
from repro.analysis import all_rules
from repro.harness import bench_path
from repro.perf.harness import BenchmarkResult, load_report

#: What every renderer reads: the full-mode results by benchmark name.
Results = Dict[str, BenchmarkResult]

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SRC_LINES = ROOT / "benchmarks" / "src_lines.json"


def src_line_ledger() -> str:
    """``src/repro`` physical lines (what ``wc -l`` counts) per package,
    top-level modules under ``"."``, as the JSON text of the ledger."""
    package_root = ROOT / "src" / "repro"
    packages: Dict[str, int] = {}
    for path in sorted(package_root.rglob("*.py")):
        parts = path.relative_to(package_root).parts
        package = parts[0] if len(parts) > 1 else "."
        packages[package] = packages.get(package, 0) + path.read_text().count("\n")
    ledger = {"packages": packages, "total": sum(packages.values())}
    return json.dumps(ledger, indent=2, sort_keys=True) + "\n"


def render_macros(results: Results) -> str:
    macros = [
        result for result in results.values()
        if result.kind == "macro" and result.sim_wall_ratio is not None
    ]
    rows = [
        "| macro benchmark | events | wall s | sim/wall | real time on this host |",
        "|---|---|---|---|---|",
    ]
    for result in macros:
        verdict = "yes" if result.sim_wall_ratio >= 1.0 else "no"
        rows.append(
            f"| `{result.name}` | {result.events:,} | {result.wall_seconds:.2f} "
            f"| {result.sim_wall_ratio:.3g}× | {verdict} |"
        )
    made_it = [r.name for r in macros if r.sim_wall_ratio >= 1.0]
    rows.append("")
    rows.append(
        f"{len(made_it)} of {len(macros)} recorded macro runs reach 1× real "
        f"time on the recording host"
        + (f" ({', '.join(f'`{name}`' for name in made_it)})." if made_it else ".")
        + " The `campaign_shards_serial` row sums sim time over four one-cell shards."
    )
    return "\n".join(rows)


def render_rxchain(results: Results) -> str:
    """The per-block receive-chain budget against a 500 us slot."""
    result = results["phy_rx_chain"]
    per_block_us = 1e6 / result.events_per_sec
    return (
        f"`phy_rx_chain`: {result.events_per_sec:,.0f} blocks/s "
        f"({per_block_us:.0f} µs a block at "
        f"{result.counts['iterations_per_block']:.2f} BP iterations a block, "
        f"block error rate {result.counts['block_error_rate']:.2%}) — "
        f"{500.0 / per_block_us:.1f} transport blocks per 500 µs slot per "
        "core is this host's real-time receive budget."
    )


def render_tcprecovery(results: Results) -> str:
    """What one segment costs the transport layer at a full window."""
    result = results["tcp_recovery_window"]
    return (
        f"`tcp_recovery_window` as recorded ({result.description}): "
        f"{result.events_per_sec:,.0f} ACKs/s, "
        f"{result.extra['us_per_ack']:.1f} µs a segment, "
        f"{result.counts['retransmissions']:.0f} retransmissions, "
        f"{result.counts['rto_events']:.0f} RTOs."
    )


def render_transit(results: Results) -> str:
    """What a switch hop costs, and what a cell-slot costs in events."""
    hop = results["transit_hop"]
    slot_ns = CellConfig().numerology.slot_duration_ns
    rows = [
        f"`transit_hop` as recorded ({hop.description}): "
        f"{hop.events_per_sec:,.0f} hops/s, {hop.extra['us_per_hop']:.2f} µs "
        f"and {hop.counts['events_per_hop']:g} engine events a hop.",
        "",
        "| recorded run | cells | events | events per cell-slot |",
        "|---|---|---|---|",
    ]
    for result in results.values():
        if result.digest is None or result.name.startswith("campaign_shards"):
            continue
        cells = int(result.counts.get("cells", 1))
        per_slot = result.events / (cells * result.sim_ns / slot_ns)
        rows.append(
            f"| `{result.name}` | {cells} | {result.events:,} | {per_slot:.1f} |"
        )
    return "\n".join(rows)


def render_rules(results: Results) -> str:
    """The slinglint catalog (``python -m repro lint --list-rules``)."""
    rows = ["| rule | severity | title |", "|---|---|---|"]
    rows.extend(
        f"| {rule.rule_id} | {rule.severity} | {rule.title} |" for rule in all_rules()
    )
    return "\n".join(rows)


BLOCKS: Dict[str, Callable[[Results], str]] = {
    "macros": render_macros,
    "rxchain": render_rxchain,
    "tcprecovery": render_tcprecovery,
    "transit": render_transit,
    "rules": render_rules,
}


def render_doc(text: str, results: Results) -> str:
    """``text`` with every marked block regenerated from ``results``."""
    def replace(match: "re.Match[str]") -> str:
        name = match.group(1)
        return (
            f"<!-- perf:{name}:begin -->\n{BLOCKS[name](results)}\n"
            f"<!-- perf:{name}:end -->"
        )

    return re.sub(
        r"<!-- perf:(\w+):begin -->.*?<!-- perf:\1:end -->",
        replace, text, flags=re.S,
    )


def main(argv: "list[str]") -> int:
    results = load_report(bench_path("perf")).modes["full"]
    stale = []
    for path in [ROOT / name for name in DOCS] + [SRC_LINES]:
        text = path.read_text() if path.exists() else ""
        fresh = src_line_ledger() if path == SRC_LINES else render_doc(text, results)
        if fresh != text:
            stale.append(path.name)
            if "--check" not in argv:
                path.write_text(fresh)
    if "--check" in argv and stale:
        print(f"stale generated content in: {', '.join(stale)} (re-run without --check)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
