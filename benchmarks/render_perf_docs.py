#!/usr/bin/env python3
"""Render the generated doc blocks and ledgers from the committed sources.

    PYTHONPATH=src python benchmarks/render_perf_docs.py          # rewrite
    PYTHONPATH=src python benchmarks/render_perf_docs.py --check  # exit 1 if stale

README.md and EXPERIMENTS.md quote the simulator's speed between
``<!-- perf:trajectory:begin -->`` and ``<!-- perf:trajectory:end -->``
markers. This script regenerates that block from
``benchmarks/trajectory.json`` — one row per PR of ``bench/run.py``
``sim_rate`` medians, each tagged with its source and host — so the docs
are never typed from memory; ``tests/test_benchmark_scripts.py`` runs the
``--check`` form in tier-1.

It also writes ``benchmarks/src_lines.json``, the per-package line count
of ``src/repro`` (:func:`src_line_ledger`), so a PR's diff shows what it
did to the size of the runtime package instead of CHANGES.md typing it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SRC_LINES = ROOT / "benchmarks" / "src_lines.json"
TRAJECTORY = ROOT / "benchmarks" / "trajectory.json"


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


def _rate(value: Optional[float]) -> str:
    if value is None:
        return "–"
    return f"{value:.4f}" if value < 0.1 else f"{value:.3f}"


def render_trajectory() -> str:
    """``sim_rate`` per PR and source, then which workloads reach 1× real
    time in the latest measurement on each host."""
    data = json.loads(TRAJECTORY.read_text())
    workloads: List[str] = data["workloads"]
    rows = [
        "| PR | `src/` lines | source | " + " | ".join(f"`{w}`" for w in workloads) + " |",
        "|---|---|---|" + "---|" * len(workloads),
    ]
    latest: Dict[str, Any] = {}
    for row in data["rows"]:
        if not row["sim_rate"]:
            rows.append(
                f"| {row['pr']} | {row['src_lines']:,} | not measured |"
                + " |" * len(workloads)
            )
        for run in row["sim_rate"]:
            parent = run["parent"] or [None] * len(workloads)
            cells = [
                _rate(new) if old is None else f"{_rate(old)} → {_rate(new)}"
                for old, new in zip(parent, run["change"])
            ]
            rows.append(
                f"| {row['pr']} | {row['src_lines']:,} | {run['source']} | "
                + " | ".join(cells) + " |"
            )
            latest[run["host"]] = (row["pr"], run)
    rows.append("")
    for host, (pr, run) in latest.items():
        rates = dict(zip(workloads, run["change"]))
        fast = [f"`{w}`" for w, rate in rates.items() if rate is not None and rate >= 1.0]
        slow = [
            f"`{w}` {rate:.2g}×" for w, rate in rates.items()
            if rate is not None and rate < 1.0
        ]
        rows.append(
            f"- {data['hosts'][host]} (latest: PR {pr}, {run['source']}): "
            + (", ".join(fast) + " reach" if fast else "nothing reaches")
            + " 1× real time; " + ", ".join(slow) + "."
        )
    return "\n".join(rows)


BLOCKS: Dict[str, Callable[[], str]] = {
    "trajectory": render_trajectory,
}


def render_doc(text: str) -> str:
    """``text`` with every marked block regenerated."""
    def replace(match: "re.Match[str]") -> str:
        name = match.group(1)
        return f"<!-- perf:{name}:begin -->\n{BLOCKS[name]()}\n<!-- perf:{name}:end -->"

    return re.sub(
        r"<!-- perf:(\w+):begin -->.*?<!-- perf:\1:end -->",
        replace, text, flags=re.S,
    )


def main(argv: "list[str]") -> int:
    stale = []
    for path in [ROOT / name for name in DOCS] + [SRC_LINES]:
        text = path.read_text() if path.exists() else ""
        fresh = src_line_ledger() if path == SRC_LINES else render_doc(text)
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
