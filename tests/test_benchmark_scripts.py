"""The scripts under ``benchmarks/``: generated docs, the line ledger and
the pop census.

``render_perf_docs.py`` writes the README / DESIGN / EXPERIMENTS blocks
(the speed trajectory from ``benchmarks/trajectory.json``, the slinglint
rule table) and ``benchmarks/src_lines.json``; a stale block or ledger
fails here. ``pop_census.py`` runs at smoke size. No wall number is
asserted anywhere: the simulator's speed is ``bench/run.py``'s to measure.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_docs_quote_the_committed_sources():
    """README / DESIGN / EXPERIMENTS generated blocks are rendered from
    the committed JSON and the rule registry, never typed."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "render_perf_docs.py"), "--check"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_src_line_ledger_is_current():
    """benchmarks/src_lines.json is the per-package line count of
    src/repro as committed: a PR that grows or shrinks the runtime
    package shows it in its own diff."""
    script = ROOT / "benchmarks" / "render_perf_docs.py"
    spec = importlib.util.spec_from_file_location("render_perf_docs", script)
    render = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(render)
    assert render.SRC_LINES.read_text() == render.src_line_ledger(), (
        "benchmarks/src_lines.json is stale: run "
        "`PYTHONPATH=src python benchmarks/render_perf_docs.py`"
    )


def test_pop_census_attributes_every_event():
    """benchmarks/pop_census.py at smoke size: every popped event of the
    window lands in exactly one callback kind, the carriers are split by
    consumer, and every line it prints parses. No wall number is asserted."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pop_census.py"),
         "fleet_idle_wave", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    *rows, total, calls = result.stdout.splitlines()
    assert rows[0].startswith("# pop census: fleet_idle_wave seed 1 smoke")
    assert rows[1].startswith("# host: ") and rows[2].startswith("callback kind")
    row = re.compile(r"(\S.*?) +(\d+) +(\d+\.\d\d) +(\d+\.\d) +(\d+\.\d\d)")
    parsed = [row.fullmatch(line) for line in rows[3:]]
    assert all(parsed), [line for line, m in zip(rows[3:], parsed) if m is None]
    kinds = [m.group(1) for m in parsed]
    assert len(set(kinds)) == len(kinds)
    assert {"Link._deliver -> SwitchPort", "ShmChannel._deliver -> PhyProcess",
            "_ServiceQueue._complete -> L2SideOrion._route_request",
            "PhyProcess._slot_tick"} <= set(kinds)
    attributed, delta = re.fullmatch(
        r"events (\d+) == events_processed delta (\d+) \(\d+\.\d /cell-slot\)", total
    ).groups()
    assert int(attributed) == int(delta) == sum(int(m.group(2)) for m in parsed) > 0
    assert re.fullmatch(r"calls /cell-slot: python \d+\.\d c \d+\.\d", calls)
