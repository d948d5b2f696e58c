"""The scripts under ``benchmarks/``: generated docs, the line ledger and
the pop census.

``render_perf_docs.py`` writes the README / DESIGN / EXPERIMENTS blocks
(the speed trajectory from ``benchmarks/trajectory.json``) and
``benchmarks/src_lines.json``; a stale block or ledger fails here. ``pop_census.py`` runs at smoke size. No wall number is
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
    the committed JSON, never typed."""
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
    *rows, total, cancelled, calls, collector = result.stdout.splitlines()
    assert rows[0].startswith("# pop census: fleet_idle_wave seed 1 smoke")
    assert rows[1].startswith("# host: ") and rows[2].startswith("callback kind")
    row = re.compile(r"(\S.*?) +(\d+) +(\d+\.\d\d) +(\d+\.\d) +(\d+\.\d\d)")
    parsed = [row.fullmatch(line) for line in rows[3:]]
    assert all(parsed), [line for line, m in zip(rows[3:], parsed) if m is None]
    kinds = [m.group(1) for m in parsed]
    assert len(set(kinds)) == len(kinds)
    assert {"SwitchPort.receive_frame", "ShmChannel._deliver -> PhyProcess",
            "ServerNic.receive_frame -> PhySideOrion",
            "ServerNic.receive_frame -> L2SideOrion",
            "L2SideOrion._route_request", "PhyProcess._slot_tick"} <= set(kinds)
    attributed, delta = re.fullmatch(
        r"events (\d+) == events_processed delta (\d+) \(\d+\.\d /cell-slot\)", total
    ).groups()
    assert int(attributed) == int(delta) == sum(int(m.group(2)) for m in parsed) > 0
    assert re.fullmatch(r"cancelled skipped \d+ \(\d+\.\d\d /cell-slot\)", cancelled)
    assert re.fullmatch(r"calls /cell-slot: python \d+\.\d c \d+\.\d", calls)
    assert re.fullmatch(
        r"collector: gen0 \d+ \(\d+ reclaimed\) gen1 \d+ \(\d+ reclaimed\) "
        r"gen2 \d+ \(\d+ reclaimed\), \d+\.\d{3} s of \d+\.\d{3} s wall \(\d+\.\d %\)",
        collector,
    ), collector


def test_pop_census_by_role_splits_every_kind():
    """``--by-role`` prefixes every kind with the role, at pop time, of
    the PHY server the event works for; the role block sums the rows.
    The idle fleet's never-promoted standbys show up as ``dormant``
    (their slots elided and counted), and every live PHY role runs the
    PHY tick. Its killed primaries pop nothing in the window: no row is
    ``retired`` (their loss watchdogs stop at the first tick after the
    kill)."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pop_census.py"),
         "fleet_idle_wave", "--smoke", "--by-role"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    total = next(i for i, line in enumerate(lines) if line.startswith("events "))
    row = re.compile(r"(\S+) (\S.*?) +(\d+) +\d+\.\d\d +\d+\.\d +\d+\.\d\d")
    parsed = [row.fullmatch(line) for line in lines[3:total]]
    assert all(parsed), [line for line, m in zip(lines[3:total], parsed) if m is None]
    roles = {"active", "standby", "dormant", "other"}
    assert {m.group(1) for m in parsed} == roles
    kinds = {f"{m.group(1)} {m.group(2)}" for m in parsed}
    assert {"active PhyProcess._slot_tick", "standby PhyProcess._slot_tick",
            "dormant PhyProcess._slot_tick",
            "dormant L2SideOrion._route_response",
            "other RadioUnit._process_slot"} <= kinds
    # A dormant standby's C-plane sends and inbound nulls pop nothing;
    # its completion and its watchdog occurrence stay events.
    assert not {"dormant PhyProcess._send_fronthaul_now",
                "dormant PhySideOrion._to_phy",
                "dormant ShmChannel._deliver -> PhyProcess"} & kinds
    assert {"dormant PhyProcess._finish_uplink", "dormant PhySideOrion._watchdog_tick"} <= kinds
    header = lines.index(next(line for line in lines if line.startswith("role ")))
    elided = re.fullmatch(r"standby-slots elided (\d+) \((\d+\.\d\d) /cell-slot\)", lines[-2])
    assert elided and int(elided.group(1)) > 0, lines[-2]
    # A dormant slot's UL and DL nulls were booked, not sent (the L2
    # schedules ahead, so the window's ends shift the count a little).
    booked = re.fullmatch(r"nulls booked (\d+) \((\d+\.\d\d) /cell-slot\)", lines[-1])
    assert booked and int(elided.group(1)) < int(booked.group(1)) < 3 * int(elided.group(1))
    block = [re.fullmatch(r"(\S+) +(\d+) +\d+\.\d\d +(\d+\.\d)", line)
             for line in lines[header + 1:-2]]
    assert all(block) and {m.group(1) for m in block} == roles
    for m in block:
        assert int(m.group(2)) == sum(
            int(r.group(3)) for r in parsed if r.group(1) == m.group(1)
        )
    assert abs(sum(float(m.group(3)) for m in block) - 100.0) < 0.3


def test_pop_census_frames_tally_every_python_call():
    """``--frames N`` appends the N most entered Python code objects per
    cell-slot: at most N rows, most entered first, each a ``path:qualname``
    under ``src/`` (a generated dataclass ``__init__`` is named by its
    class), and together no more than the ``calls`` total above them."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "pop_census.py"),
         "cell_tcp_dl_failover", "--smoke", "--frames", "12"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    header = lines.index(next(line for line in lines if line.startswith("python frame")))
    calls = next(filter(None, (
        re.fullmatch(r"calls /cell-slot: python (\d+\.\d) c \d+\.\d", line)
        for line in lines[:header]
    )))
    rows = [re.fullmatch(r"(\S+:\S+) +(\d+\.\d\d)", line) for line in lines[header + 1:]]
    assert all(rows) and len(rows) == 12, lines[header + 1:]
    per_slot = [float(m.group(2)) for m in rows]
    assert per_slot == sorted(per_slot, reverse=True)
    assert sum(per_slot) <= float(calls.group(1)) + 0.1
    labels = [m.group(1) for m in rows]
    assert len(set(labels)) == len(labels)
    assert "repro/sim/engine.py:Simulator._pop" in labels
    assert all(label.startswith(("repro/", "<string>:")) for label in labels), labels
