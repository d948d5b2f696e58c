"""Event-budget guard: polling must not creep back into the event loop.

Deterministic (event counts, no wall clock). A healthy default cell is
driven for 100 ms and every fired event is attributed to the component
and callback that own it, through a seam that wraps each callback where
it is scheduled (``tests/fired.py``). Four things are pinned:

* the engine pops at most ``MAX_EVENTS_PER_SLOT`` events per slot
  (38.2 measured since the detector's deadline follows each heartbeat
  and the RU's slot is one event; 41.2 while the deadline popped about
  twice a slot and the RU once more at each slot boundary, since each
  PHY schedules its uplink completion only in
  the uplink slot, one in five; 42.8 while both PHYs popped one every
  slot; 40.8 plus 15 % when first set; 42.8 since the dormant standby's
  completion and watchdog occurrence are events again, 54.8 while its
  null slots ran as events — twelve a slot are evaluated on touch, DESIGN
  §9 "Standby on touch: cost model" — 62.9 while every forwarded frame waited out
  the switch pipeline in a ``Switch._egress`` event, 118.5 under the
  per-tick detector model, of which 55.6 were 9 µs timer ticks) and none
  of them is a switch egress event;
* no single callback of a single component fires more often than once
  per OFDM symbol — the finest grain at which the modelled RAN does
  anything. A component that needs a finer clock has to evaluate it
  arithmetically between events, the way the failure detector does;
* exactly ``PERIODIC_PER_SLOT`` of a slot's events are occurrences of a
  ``schedule_periodic`` series (24 % of the measured 38.2; the dormant
  standby's Orion watchdog is one) — the census on which
  periodic events were sized to share the one heap (DESIGN §15);
* the interpreter enters at most ``MAX_CALLS_PER_SLOT`` Python frames per
  slot (340.8 measured since the run loop drains each instant with no
  call per event and a slot's O-RAN address is a table read; 380.3 before,
  384.3 measured since a link delivers to its endpoint and an
  Orion worker completes into its action with no trampoline between, and
  the switch's pipeline returns a port and a frame; 416.9 since the
  deadline and the RU's slot boundary
  stopped popping, a slot's TDD type is a table read and a null slot
  builds one C-plane; 458.7 since an event is its heap entry, with no
  ``EventHandle`` to build, and D / S slots have no uplink completion;
  505.2 plus 5 % when first set, 518.5 measured then; 526.2 with a
  per-bit demodulator and a Generator per payload, 548.2 with the
  L2-side nulls sent and switched, 645.4 with the standby forced awake, 627.1 before dormancy
  existed, 666.3 while every process read the clock through a property,
  851.3 while the engine's clock was one too,
  every heartbeat walked the tick grid and every register access called
  its bound check — DESIGN §9 "Healthy slot: cost model"). Python frames
  only: ``c_call`` accounting differs across interpreter versions.

A bulk-TCP slot is pinned the same way: one UE at ~17 dB carrying
``TcpIperfDownlink``, warmed past slow start and its first recovery, pops
exactly ``TCP_EVENTS`` events in the window (72.8 a slot; 75.8 while the
detector's deadline and the RU's slot boundary popped; 77.4 while both
PHYs popped an uplink completion in D / S slots too, 75.4 while the
dormant standby's completion and watchdog were elided too, 89.4 with the
standby forced awake) and enters at most
``MAX_CALLS_PER_TCP_SLOT`` Python frames per slot (741.9 measured since
the run loop drains each instant in place, 822.7 before; 827.6 since
deliveries and completions need no trampoline; 853.3 since
the deadline follows the heartbeat and the RU's slot is one event; 887.3
since list heap entries and uplink-slot-only completions; 995.5 plus 5 % when
first set; 1,019.3 with a per-bit demodulator and a Generator per payload,
1,041.3 with the nulls sent, 1,117.7 before; 1,478.4 with a clock property, a label string per event, lambda
id factories and property-sized PDUs — DESIGN §9 "Bulk TCP slot: cost
model"), so frames cannot be traded for events.

A 16-cell idle fleet pops at most ``MAX_FLEET_EVENTS_PER_CELL_SLOT``
events per cell-slot (34.7 measured since the detector's deadline
follows each heartbeat and the RU's slot is one event; 37.7 since
completions are confined to
uplink slots; 37.3 plus 15 % when first set, 39.3 measured then; 51.3
with every standby forced awake).
"""

import sys
from collections import Counter

from repro import CellConfig, UeProfile, build_slingshot_cell
from repro.phy.numerology import NUMEROLOGY
from repro.apps import TcpIperfDownlink
from repro.fleet import FleetConfig, build_fleet
from repro.sim.units import MS
from tests.fired import observe_fires

WARMUP_NS = 50 * MS
WINDOW_NS = 100 * MS
MAX_EVENTS_PER_SLOT = 39
PERIODIC_PER_SLOT = 9
MAX_CALLS_PER_SLOT = 350
#: Bulk TCP: the flow starts at WARMUP_NS and is counted from TCP_WARMUP_NS
#: on, past slow start's overshoot and the fast recovery it ends in.
TCP_WARMUP_NS = 650 * MS
TCP_EVENTS = 14_565
MAX_CALLS_PER_TCP_SLOT = 761
FLEET_CELLS = 16
MAX_FLEET_EVENTS_PER_CELL_SLOT = 35


def _python_calls(sim, window_ns, skip=frozenset()):
    """Python frames entered while ``sim`` runs ``window_ns``; frames of
    the code objects in ``skip`` (a census seam, not the program) excluded."""
    calls = [0]

    def count_python_frames(frame, event, arg):
        calls[0] += event == "call" and frame.f_code not in skip

    profiler = sys.getprofile()
    sys.setprofile(count_python_frames)
    try:
        sim.run_for(window_ns)
    finally:
        sys.setprofile(profiler)
    return calls[0]


def test_healthy_cell_event_budget(monkeypatch):
    fired = Counter()
    periodic = [0]

    def count_fire(callback, args, is_periodic):
        periodic[0] += is_periodic
        fired[(id(getattr(callback, "__self__", None)), callback.__qualname__)] += 1

    seam = observe_fires(monkeypatch, count_fire)
    cell = build_slingshot_cell(CellConfig())
    cell.sim.run_for(WARMUP_NS)
    fired.clear()
    periodic[0] = 0

    before = cell.sim.events_processed
    calls = _python_calls(cell.sim, WINDOW_NS, skip=seam | {count_fire.__code__})
    monkeypatch.undo()

    slots = WINDOW_NS // cell.slot_ns
    events = cell.sim.events_processed - before
    assert events == sum(fired.values())
    assert events / slots <= MAX_EVENTS_PER_SLOT, (
        f"{events / slots:.1f} events per slot on a healthy cell"
    )
    assert periodic[0] == PERIODIC_PER_SLOT * slots
    assert calls / slots <= MAX_CALLS_PER_SLOT, (
        f"{calls / slots:.1f} Python calls per slot on a healthy cell"
    )
    symbols = slots * NUMEROLOGY.symbols_per_slot
    assert not [name for _, name in fired if name.endswith("._egress")]
    (_, busiest), count = fired.most_common(1)[0]
    assert count <= symbols, (
        f"{busiest} fired {count} times in {symbols} OFDM symbols"
    )
    # The detector still models every 9 us tick of the window.
    period = cell.middlebox.detector.config.tick_period_ns
    assert cell.middlebox.detector.stats.ticks_processed == (
        (WARMUP_NS + WINDOW_NS) // period + 1
    )


def test_bulk_tcp_cell_call_budget():
    bulk_ue = UeProfile(
        ue_id=1, name="UE", mean_snr_db=17.0, shadow_sigma_db=0.6, fade_probability=0.0
    )
    cell = build_slingshot_cell(CellConfig(ue_profiles=[bulk_ue]))
    cell.sim.run_for(WARMUP_NS)
    flow = TcpIperfDownlink(cell.sim, cell.server, cell.ue(1), "iperf", 1)
    flow.start()
    cell.sim.run_until(TCP_WARMUP_NS)
    assert not flow.sender.in_fast_recovery
    assert flow.sender.cwnd >= flow.sender.ssthresh  # Congestion avoidance.

    before = cell.sim.events_processed
    calls = _python_calls(cell.sim, WINDOW_NS)
    slots = WINDOW_NS // cell.slot_ns
    events = cell.sim.events_processed - before
    assert events == TCP_EVENTS, f"{events / slots:.2f} events per bulk-TCP slot"
    assert calls / slots <= MAX_CALLS_PER_TCP_SLOT, (
        f"{calls / slots:.1f} Python calls per bulk-TCP slot"
    )


def test_idle_fleet_event_budget():
    """Cohort-only cells: per cell-slot the primary's chain plus what a
    dormant standby keeps (its tick, its SlotIndication, its uplink-slot completion
    and its watchdog occurrence)."""
    fleet = build_fleet(FleetConfig(seed=0, num_cells=FLEET_CELLS))
    fleet.run_for(20 * MS)
    before = fleet.sim.events_processed
    fleet.run_for(WINDOW_NS // 2)
    cell_slots = FLEET_CELLS * (WINDOW_NS // 2) // fleet.cells[0].slot_ns
    events = fleet.sim.events_processed - before
    assert events / cell_slots <= MAX_FLEET_EVENTS_PER_CELL_SLOT, (
        f"{events / cell_slots:.1f} events per cell-slot on an idle fleet"
    )
    assert all(len(cell.dormancy.sleeping) == 1 for cell in fleet.cells)
