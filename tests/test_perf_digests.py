"""Digest-equivalence regression tests (tier-1): the three golden figure
cells, each run once.

The perf subsystem's contract is that optimizations are *behavior
invisible*: the canonical trace digest (``TraceRecorder.digest()``) of
every golden cell must stay bit-identical across perf work. The digests
below were recorded from the pre-optimization engine/codec and
re-verified after the ``__slots__``/tuple-heap/compaction, codec
fast-path, memoized-formatting, and batched-RNG changes (``fig10_tcp_dl``
from the whole-window-scan TCP that ``tests/tcp_scan.py`` preserves, and
re-verified on the ordered scoreboard). Any future PR
that changes one of these values changed *behaviour*, not just speed —
either fix the regression or consciously re-golden with a written
justification in the PR.

Each cell is built once per session (the ``cell_run`` fixture): its one
run captures a :class:`~repro.checkpoint.Checkpoint` mid-run, finishes
the uninterrupted run (golden digest and event count), then restores the
capture and finishes it too (the same digest); the tests below read what
that run showed. The chaos goldens are the
seed-1 records of ``benchmarks/BENCH_chaos.json``, checked in
``tests/test_parallel.py``.
"""

import pytest

from repro.apps.dispatch import FlowDispatch
from repro.apps.iperf import TcpIperfDownlink, UdpIperfUplink
from repro.apps.ping import PingClient, UePingResponder
from repro.cell.config import CellConfig, UeProfile
from repro.cell.deployment import build_slingshot_cell
from repro.checkpoint import Checkpoint
from repro.sim.units import MS, s_to_ns, seconds
from repro.telemetry import collect

#: Full-cell scenario runs; excluded from the fast `-m "not slow"` split.
pytestmark = pytest.mark.slow

#: cell name -> golden canonical-trace digest.
GOLDEN_DIGESTS = {
    "fig9": "a2d803ef1283861ef3e27034a5f68d2961c98aa1d311be8a188517af18c32ecf",
    "fig10_smoke": "ad5cac0c91d549f258a41da816ca1fc648852e45ff94731f01b80e9fe240be35",
    "fig10_tcp_dl": "4c1e748f0271ee4f8a9858cacc1464c54292cd993f72b91aa09b5cb2362f05bc",
}

#: cell name -> engine events popped. An event that leaves no trace
#: record (a timer that fires and does nothing visible) moves no digest,
#: so the count is pinned beside it. Each is the eager count less the
#: twelve events a slot of its dormant standby elides
#: (``core/standby.py``; 1,197 / 1,197 / 917 dormant slots). The killed
#: primary's loss watchdog stops at its first tick after the crash
#: (``PhySideOrion``). A PHY pops an uplink completion only in uplink
#: slots (102,503 / 82,944 / 102,998 while it popped one every slot).
#: The detector's deadline follows each heartbeat, so it pops only to
#: detect, and the RU's slot is one event at its control deadline
#: (99,633 / 80,394 / 100,912 while the deadline popped 4,734 / 3,949 /
#: 3,355 times and the RU's slot boundary 2,400 / 2,000 / 1,700).
GOLDEN_EVENTS = {
    "fig9": 92_500,
    "fig10_smoke": 74_446,
    "fig10_tcp_dl": 95_858,
}


def fig9_cell():
    """Fig 9 shape: three UEs pinging every 10 ms, from 0.2 s on."""
    cell = build_slingshot_cell(CellConfig(seed=0))
    clients = []
    for ue_id, ue in cell.ues.items():
        flow = f"ping-{ue_id}"
        responder = UePingResponder(ue, flow, bearer_id=1)
        ue.dl_sink = FlowDispatch(flow, responder.on_packet, ue.dl_sink)
        clients.append(
            PingClient(
                cell.sim, cell.server, ue_id=ue_id, flow_id=flow,
                bearer_id=1, interval_ns=10 * MS,
            )
        )
    cell.run_for(seconds(0.2))
    for client in clients:
        client.start()
    return cell


def _bulk_flow_cell():
    """Fig 10's isolated setting: one good-SNR UE on its own cell."""
    return build_slingshot_cell(
        CellConfig(
            seed=0,
            ue_profiles=[
                UeProfile(
                    ue_id=1, name="UE", mean_snr_db=17.0,
                    shadow_sigma_db=0.6, fade_probability=0.0,
                )
            ],
        )
    )


def fig10_smoke_cell():
    """Fig 10 smoke: one UE, 15.8 Mb/s uplink UDP iperf from 0.2 s on."""
    cell = _bulk_flow_cell()
    flow = UdpIperfUplink(
        cell.sim, cell.server, cell.ue(1), "iperf", 1, bitrate_bps=15.8e6
    )
    cell.run_for(seconds(0.2))
    flow.start()
    return cell


def fig10_tcp_dl_cell():
    """Fig 10's TCP curve: one UE, bulk downlink TCP from 0.2 s on — the
    window stands at 1,000-2,500 segments when the failover loses a burst
    of them, so SACK/RACK recovery is the transport layer's work."""
    cell = _bulk_flow_cell()
    flow = TcpIperfDownlink(cell.sim, cell.server, cell.ue(1), "iperf", 1)
    cell.run_for(seconds(0.2))
    flow.start()
    return cell


def _sender(cell):
    return cell.ue(1).dl_sink.deliver.__self__.sender


def _scoreboard(cell):
    """The bulk TCP sender's ordered views of its flight (time-ordered
    unjudged queue, lost heap with lazily deleted entries, applied SACK
    ranges), copied."""
    sender = _sender(cell)
    return {
        "in_fast_recovery": sender.in_fast_recovery,
        "sacked": set(sender._sacked),
        "lost": set(sender._lost),
        "lost_heap": list(sender._lost_heap),
        "unjudged": list(sender._unjudged.items()),
        "sack_ranges": list(sender._sack_ranges),
    }


#: cell name -> (builder, primary PHY killed at, checkpoint captured at,
#: run end), in seconds.
CELLS = {
    "fig9": (fig9_cell, 0.6, 0.7, 1.2),
    "fig10_smoke": (fig10_smoke_cell, 0.6, 0.7, 1.0),
    # Fault at 0.46 s; RACK gives up on the lost burst ~0.59 s, so the
    # capture sees the whole scoreboard populated.
    "fig10_tcp_dl": (fig10_tcp_dl_cell, 0.46, 0.60, 0.85),
}


def _run_with_capture(name):
    """Run cell ``name`` once: kill the primary PHY, checkpoint mid-run,
    finish the uninterrupted run and read it with ``collect``, then
    restore the capture and finish it too. Returns what the tests
    assert on; the cells themselves are dropped."""
    builder, failure_at_s, capture_at_s, end_s = CELLS[name]
    tcp = name == "fig10_tcp_dl"
    cell = builder()
    cell.kill_phy_at(0, s_to_ns(failure_at_s))
    cell.run_until(seconds(capture_at_s))
    seen = {"captured": _scoreboard(cell) if tcp else None}
    checkpoint = Checkpoint.capture(cell, label=f"{name}@{capture_at_s}s")
    cell.run_until(seconds(end_s))
    seen["reading"] = collect(cell)
    seen["digest"] = cell.trace.digest()
    seen["events"] = cell.sim.events_processed
    restored = checkpoint.restore()
    seen["restored_scoreboard"] = _scoreboard(restored) if tcp else None
    restored.run_until(seconds(end_s))
    seen["restored_digest"] = restored.trace.digest()
    seen["restored_events"] = restored.sim.events_processed
    if tcp:
        seen["stats"] = _sender(cell).stats
        seen["restored_stats"] = _sender(restored).stats
    return seen


@pytest.fixture(scope="module")
def cell_run():
    """cell name -> :func:`_run_with_capture`'s result; each cell is
    built once, by the first test that asks for it."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _run_with_capture(name)
        return runs[name]

    return run


def test_golden_set_matches_cell_catalog():
    assert set(GOLDEN_DIGESTS) == set(GOLDEN_EVENTS) == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_scenario_digest_matches_golden(name, cell_run):
    """The uninterrupted run, read by ``collect`` before its digest is
    taken, ends on the golden digest and event count."""
    seen = cell_run(name)
    assert seen["digest"] == GOLDEN_DIGESTS[name], (
        f"canonical trace digest of cell {name!r} changed: a perf or "
        "refactor change altered simulation behaviour (event content or "
        "membership). Optimizations must be behavior-invisible."
    )
    assert seen["events"] == GOLDEN_EVENTS[name]
    assert seen["reading"]["engine.events_processed"] == GOLDEN_EVENTS[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_restored_run_matches_golden(name, cell_run):
    """The mid-run checkpoint, restored and finished, ends on the golden
    digest and event count too."""
    seen = cell_run(name)
    assert seen["restored_digest"] == GOLDEN_DIGESTS[name]
    assert seen["restored_events"] == GOLDEN_EVENTS[name]


def test_collect_reads_a_bare_cell(cell_run):
    """``collect`` reads a bare cell as well as a probe harness (reading
    it moves neither the digest nor the event count, as the golden test
    of the same run asserts)."""
    reading = cell_run("fig10_smoke")["reading"]
    assert reading["phy.phy0.codec.blocks_decoded"] > 0


def test_capture_mid_tcp_recovery_restores_the_scoreboard(cell_run):
    """A checkpoint taken while every view of the TCP scoreboard is
    populated — the failover's burst marked lost, only the front hole
    retransmitted — restores them equal, and the restored sender ends
    with the uninterrupted one's stats."""
    seen = cell_run("fig10_tcp_dl")
    captured = seen["captured"]
    assert captured["in_fast_recovery"]
    assert len(captured["sacked"]) > 100 and len(captured["lost"]) > 100
    assert len(captured["lost_heap"]) > len(captured["lost"])  # a stale entry
    assert captured["unjudged"] and len(captured["sack_ranges"]) > 1
    assert seen["restored_scoreboard"] == captured
    assert seen["restored_stats"] == seen["stats"]
    assert seen["stats"].retransmissions > 300
