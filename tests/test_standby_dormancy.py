"""Standby on touch: a dormant standby is indistinguishable from an eager one.

``core/standby.py`` evaluates a healthy hot standby's server-private slot
work instead of simulating it. Every scenario here runs twice — once
*forced awake* (the eligibility predicate monkeypatched to refuse, so
every slot takes the eager code a woken standby runs) and once as
built — and the two must agree on everything a reader can see:

* the trace (or fleet) digest;
* ``collect()`` at every 1 ms pause, apart from the ``engine.*`` keys,
  plus the state the books stand in for: every link's counters and line
  occupancy, switch and port counters, P4 register and table access
  counts, detector counters and last heartbeats, each PHY-side Orion's
  worker and loss-repair state, SHM counters and the PHYs' request maps;
* bench's ``COUNTERS`` at the end, apart from ``sim.events``;
* every PHY stream's ``bit_generator.state`` at the end;
* every switch ingress that the middlebox did not filter, in order and
  to the nanosecond, apart from null requests (booked, they never reach
  the switch; their counters and line occupancy are compared above).

The event counts differ by exactly the eager run's pops of the elided
kinds; every other kind pops identically. Touches find booked nulls in
each stage of their way, hand-made mutants of the dormant path must each
break one of these equalities, and the eager run pins the premises the
dormant path relies on (DESIGN §9 "Standby on touch: cost model").
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib
import sys
import types
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro import CellConfig, UeProfile, build_slingshot_cell
from repro.apps import TcpIperfDownlink
from repro.core import orion as orion_module
from repro.core.orion import OrionDatagram, _ServiceQueue
from repro.core import standby as standby_module
from repro.core.standby import Sleeper, StandbyDormancy
from repro.fapi.messages import SlotIndication, is_null_request
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFaultSpec, ProcessFaultSpec
from repro.fleet import FleetConfig, build_fleet, fleet_digest
from repro.fronthaul.oran import CplaneMessage, UplaneDownlink
from repro.net.link import Link
from repro.net.switch import Switch, SwitchPort
from repro.phy import process as process_module
from repro.phy.process import PhyProcess
from repro.telemetry import collect
from tests.fired import observe_fires

MS = 1_000_000

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_counters() -> Dict[str, tuple]:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads_for_dormancy", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.COUNTERS


COUNTERS = _bench_counters()

#: Event kinds (``<owner name>.<callback __qualname__>``, a frame
#: delivery ``<source>-><endpoint>.receive_frame``) a dormant standby
#: elides (some — the L2's and the PHY servers' frames to and from the
#: switch, an impaired line's deferred sends toward them, the Orion
#: worker's completions — also carry kept traffic, so only their elided
#: share goes).
ELIDED_KINDS = ("._send_fronthaul_now", "->edge-switch.receive_frame",
                "->phy-server", "Link._send_deferred", "PhySideOrion._to_phy",
                "->phy.ShmChannel._deliver")


def _frame_sources(root: Any) -> Dict[Any, str]:
    """The name a frame's source MAC stands for, over every cell."""
    names = {}
    for cell in _cells(root):
        names[cell.l2_orion.mac] = "l2"
        for site in cell.sites:
            names[site.ru.mac] = site.ru.name
        for node in cell.phy_servers:
            names[node.phy_mac] = node.phy.name
            names[node.orion_mac] = node.orion.name
    return names


def _fire_kind(callback: Any, args: Tuple[Any, ...], sources: Dict[Any, str]) -> str:
    """A fired event's kind: its callback's owner and qualified name; a
    frame delivery's, the frame's source and the receiving endpoint."""
    owner = getattr(callback, "__self__", None)
    if callback.__name__ == "receive_frame":
        frame = args[0]
        endpoint = getattr(owner, "switch", owner).name
        return f"{sources.get(frame.src, 'other')}->{endpoint}.receive_frame"
    return f"{getattr(owner, 'name', '')}.{callback.__qualname__}"


def _elided_kind(kind: str) -> bool:
    return kind.startswith(
        ("phy", "orion-phy", "edge-switch->phy", "shm-orion", "l2->")
    ) and any(
        part in kind for part in ELIDED_KINDS
    )


# ----------------------------------------------------------------------
# One run of a scenario
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Run:
    digest: str
    events: int
    pops: Counter
    readings: List[Dict[str, Any]]
    counters: Dict[str, Any]
    rng: List[Any]
    ingress: List[tuple]
    asleep_after_touch: List[int]
    asleep: List[int]
    submits: List[tuple]


def _cells(root: Any) -> List[Any]:
    return list(root.cells) if hasattr(root, "phy_backend") else [root]


def _links(cell: Any) -> List[Link]:
    ports = [cell.switch.port(n) for n in cell.switch.port_numbers()]
    return [port.ingress_link for port in ports] + [port.egress for port in ports]


def _state(cell: Any) -> Dict[str, Any]:
    """What the dormant books stand in for, read after ``collect`` (which
    syncs the detector)."""
    mbox = cell.middlebox
    detector = mbox.detector
    state: Dict[str, Any] = {
        "links": [
            (link.frames_sent, link.bytes_sent, link._line_free_at) for link in _links(cell)
        ],
        "ports": [
            (cell.switch.port(n).frames_in, cell.switch.port(n).frames_out)
            for n in cell.switch.port_numbers()
        ],
        "switch": (cell.switch.frames_processed, cell.switch.frames_dropped),
        "registers": [
            (r.reads, r.writes, [r.peek(i) for i in range(r.size)])
            for r in (mbox.ru_to_phy, mbox.mig_valid, mbox.mig_slot, mbox.mig_dest,
                      mbox.prev_phy, mbox.last_boundary, detector._counters)
        ],
        "tables": [
            (t.lookups, t.hits)
            for t in (mbox.ru_id_directory, mbox.phy_id_directory,
                      mbox.phy_address_directory, mbox.ru_port_directory)
        ],
        "last_heartbeat": sorted(detector._last_heartbeat_ns.items()),
    }
    for node in cell.phy_servers:
        orion, phy = node.orion, node.phy
        sleeper = cell.dormancy.sleeping.get(node.phy_id)
        booked = [[], []] if sleeper is None else [
            list(range(taken + 1, filed + 1))
            for taken, filed in zip(sleeper.taken, sleeper.filed)
        ]
        state[f"server{node.phy_id}"] = (
            orion._queue._busy_until,
            sorted(orion._last_tti_slot.items()),
            orion.shm_to_phy.messages_sent,
            phy.fapi_tx.messages_sent,
            [(c.cell_id, sorted([*c.ul_tti, *booked[0]]), sorted([*c.dl_tti, *booked[1]]),
              c.consecutive_missing_tti)
             for c in phy.cells.values()],
        )
    return state


def _reading(root: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for index, cell in enumerate(_cells(root)):
        for key, value in collect(cell).items():
            if not key.startswith("engine."):
                out[f"{index}:{key}"] = value
        out[f"{index}:state"] = _state(cell)
    if hasattr(root, "phy_backend"):
        backend = root.phy_backend
        now = root.sim.now
        out["backend"] = dataclasses.asdict(backend.stats)
        out["plans"] = sorted(
            (t, len(plans)) for t, plans in backend._planned.items() if t > now
        )
        out["pool"] = root.pool.stats_dict()
    return out


def _bench_counts(root: Any, flows: List[Any]) -> Dict[str, Any]:
    targets = {"cell": _cells(root), "fleet": [root] if hasattr(root, "phy_backend") else []}
    targets["flow"] = flows
    for kind in ("ping", "udp_ul", "tcp_dl"):
        targets[kind] = [f for f in flows if f.kind == kind]
    return {
        name: sum(read(target) for target in targets[scope])
        for name, (scope, read) in COUNTERS.items()
        if scope != "sim"
    }


@pytest.fixture
def instrumented(monkeypatch):
    """Class-level probes shared by both runs of a scenario: the switch
    ingress log (frames the middlebox did not filter, apart from null
    requests, which a dormant standby's books take through the switch)
    and every Orion worker submit. Installed identically in both runs,
    so they change nothing they compare."""
    log: Dict[str, list] = {"ingress": [], "submits": []}
    ingress = Switch.ingress
    submit = _ServiceQueue.submit

    def logged_ingress(self, frame, in_port):
        stats = self.pipeline.stats
        filtered = stats.dl_filtered
        ingress(self, frame, in_port)
        # (A datagram's ingress may wake a standby, whose settle counts
        # earlier filtered frames: only a downlink frame is ever filtered.)
        payload = frame.payload
        if isinstance(payload, OrionDatagram) and is_null_request(payload.message):
            return
        if stats.dl_filtered == filtered or not isinstance(
            payload, (CplaneMessage, UplaneDownlink)
        ):
            detail = getattr(payload, "message", payload)
            log["ingress"].append((
                id(self), self.sim.now, in_port, type(detail).__name__,
                getattr(detail, "slot", getattr(detail, "abs_slot", None)),
                getattr(payload, "phy_id", None),
            ))

    def logged_submit(self, size_bytes, action, *args):
        log["submits"].append((self, self.sim.now, self._busy_until, action.__name__, args))
        return submit(self, size_bytes, action, *args)

    monkeypatch.setattr(Switch, "ingress", logged_ingress)
    monkeypatch.setattr(_ServiceQueue, "submit", logged_submit)
    return log


def _drive(
    build: Callable[[], Tuple[Any, List[Any]]],
    end_ms: int,
    actions: Dict[int, Callable[[Any], None]],
    log: Dict[str, list],
) -> Run:
    log["ingress"].clear()
    log["submits"].clear()
    pops: Counter = Counter()
    sources: Dict[Any, str] = {}

    def count_fire(callback, args, periodic):
        pops[_fire_kind(callback, args, sources)] += 1

    with pytest.MonkeyPatch.context() as patch:
        observe_fires(patch, count_fire)
        root, flows = build()
        sim = root.sim
        sources.update(_frame_sources(root))
        readings, asleep_after_touch, asleep = [], [], []
        for ms in range(1, end_ms + 1):
            sim.run_until(ms * MS)
            asleep.append(sum(len(cell.dormancy.sleeping) for cell in _cells(root)))
            if ms in actions:
                actions[ms](root)
                asleep_after_touch.append(
                    sum(len(cell.dormancy.sleeping) for cell in _cells(root))
                )
            readings.append(_reading(root))
    ingress_ids = {id(cell.switch): i for i, cell in enumerate(_cells(root))}
    return Run(
        digest=fleet_digest(root) if hasattr(root, "phy_backend") else root.trace.digest(),
        events=sim.events_processed,
        pops=pops,
        readings=readings,
        counters=_bench_counts(root, flows),
        rng=[
            node.phy.rng.bit_generator.state
            for cell in _cells(root) for node in cell.phy_servers
        ],
        ingress=[(ingress_ids[entry[0]],) + entry[1:] for entry in log["ingress"]],
        asleep_after_touch=asleep_after_touch,
        asleep=asleep,
        submits=list(log["submits"]),
    )


def _forced_awake(monkeypatch) -> None:
    monkeypatch.setattr(StandbyDormancy, "eligible", lambda self, phy, abs_slot: False)


def _mismatches(eager: Run, dormant: Run) -> List[str]:
    out = []
    if eager.digest != dormant.digest:
        out.append("digest")
    for ms, (a, b) in enumerate(zip(eager.readings, dormant.readings), start=1):
        if a != b:
            keys = sorted(k for k in a if a[k] != b.get(k))
            out.append(f"reading at {ms} ms: {keys[:4]}")
            break
    if eager.counters != dormant.counters:
        out.append("bench counters")
    if eager.rng != dormant.rng:
        out.append("rng state")
    if eager.ingress != dormant.ingress:
        out.append("switch ingress log")
    if dormant.asleep_after_touch != [0] * len(dormant.asleep_after_touch):
        out.append("a standby still asleep right after a touch")
    return out


def _assert_equivalent(eager: Run, dormant: Run) -> None:
    assert not any(eager.asleep)
    assert any(dormant.asleep), "no standby ever fell asleep"
    assert _mismatches(eager, dormant) == []
    elided = {kind for kind in eager.pops | dormant.pops if _elided_kind(kind)}
    kept = set(eager.pops) | set(dormant.pops)
    for kind in kept - elided:
        assert eager.pops[kind] == dormant.pops[kind], kind
    for kind in elided:
        assert dormant.pops[kind] <= eager.pops[kind], kind
    removed = sum(eager.pops[kind] - dormant.pops[kind] for kind in elided)
    assert removed > 0
    assert dormant.events == eager.events - removed


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def inexact_null_slot_cost(monkeypatch):
    """Every PHY here costs 0.7 µs a null slot, a value with no exact
    binary form, so a re-associated ``busy_core_us`` sum shows."""
    monkeypatch.setattr(process_module, "CPU_NULL_SLOT_US", 0.7)


def default_cell() -> Tuple[Any, List[Any]]:
    return build_slingshot_cell(CellConfig(seed=11)), []


def _restart_phy0_as_standby(cell: Any) -> None:
    cell.phy_servers[0].phy.restart()
    cell.l2_orion.initialize_secondary(0, 0)


#: 150 ms healthy, PHY 0 killed, restarted as the standby, then a
#: planned migration back to it (PHY 1 becomes the standby again).
CELL_ACTIONS = {
    150: lambda cell: cell.kill_phy(0),
    200: _restart_phy0_as_standby,
    260: lambda cell: cell.planned_migration(),
}
CELL_END_MS = 330


def idle_fleet() -> Tuple[Any, List[Any]]:
    fleet = build_fleet(FleetConfig(seed=5, num_cells=4, standby_pool_size=1))
    fleet.cells[1].kill_phy_at(0, 30 * MS + 123_457)
    fleet.cells[2].kill_phy_at(0, 35 * MS + 777)
    return fleet, []


def impaired_cell() -> Tuple[Any, List[Any]]:
    """Two plans armed mid-run, while the standby sleeps. The first: loss
    on the L2's uplink (missing nulls), then duplication there, a
    slow-down and a hang of the standby and a slow-down of the primary —
    the standby falls asleep again after each, with the L2 uplink's hook
    still attached once its windows have closed — then lossy,
    duplicating, reordering hooks on the standby's own links, which wake
    it the tick before their window opens. The second arms the same kind
    of hooks with the window open at once, which wakes it at the arm."""
    cell = build_slingshot_cell(CellConfig(seed=4))
    lossy = dict(loss_prob=0.2, dup_prob=0.1, reorder_prob=0.2, reorder_jitter_ns=3_000)
    plan = FaultPlan(
        name="standby-links",
        link_faults=(
            LinkFaultSpec(link_pattern="l2->edge", start_ns=40 * MS, end_ns=60 * MS,
                          loss_prob=0.05),
            LinkFaultSpec(link_pattern="l2->edge", start_ns=64 * MS, end_ns=66 * MS,
                          dup_prob=0.2),
            LinkFaultSpec(link_pattern="edge-switch->phy1", start_ns=200 * MS,
                          end_ns=230 * MS, **lossy),
        ),
        process_faults=(
            ProcessFaultSpec(kind="slowdown", phy_id=1, at_ns=80 * MS,
                             duration_ns=10 * MS, slowdown_ns=50_000),
            ProcessFaultSpec(kind="hang", phy_id=1, at_ns=110 * MS, duration_ns=5 * MS),
            ProcessFaultSpec(kind="slowdown", phy_id=0, at_ns=140 * MS,
                             duration_ns=10 * MS, slowdown_ns=30_000),
        ),
    )
    at_once = FaultPlan(
        name="standby-uplink-now",
        link_faults=(
            LinkFaultSpec(link_pattern="phy1->edge", start_ns=170 * MS + 1,
                          end_ns=180 * MS, **lossy),
        ),
    )
    cell.sim.at(20 * MS + 1, FaultInjector(cell, plan).arm)
    cell.sim.at(170 * MS + 1, FaultInjector(cell, at_once).arm)
    return cell, []


def tcp_cell() -> Tuple[Any, List[Any]]:
    bulk_ue = UeProfile(
        ue_id=1, name="UE", mean_snr_db=17.0, shadow_sigma_db=0.6, fade_probability=0.0
    )
    cell = build_slingshot_cell(CellConfig(ue_profiles=[bulk_ue]))
    flow = TcpIperfDownlink(cell.sim, cell.server, cell.ue(1), "iperf", 1)
    cell.sim.at(30 * MS, flow.start)
    return cell, [types.SimpleNamespace(
        kind="tcp_dl", obj=flow, useful_bytes=lambda: flow.receiver.bytes_delivered
    )]


@pytest.fixture(scope="module")
def runs() -> Dict[str, Run]:
    """Cached runs, keyed by scenario and mode."""
    return {}


def _run(runs, key, monkeypatch, log, build, end_ms, actions, awake) -> Run:
    if key not in runs:
        with monkeypatch.context() as patch:
            if awake:
                _forced_awake(patch)
            runs[key] = _drive(build, end_ms, actions, log)
    return runs[key]


def _cell_pair(runs, monkeypatch, log) -> Tuple[Run, Run]:
    return tuple(
        _run(runs, ("cell", awake), monkeypatch, log, default_cell, CELL_END_MS,
             CELL_ACTIONS, awake)
        for awake in (True, False)
    )


class TestDifferential:
    def test_default_cell_kill_restart_and_migration_back(
        self, runs, monkeypatch, instrumented
    ):
        eager, dormant = _cell_pair(runs, monkeypatch, instrumented)
        _assert_equivalent(eager, dormant)

    def test_idle_fleet_with_a_denied_kill(self, runs, monkeypatch, instrumented):
        eager, dormant = (
            _run(runs, ("fleet", awake), monkeypatch, instrumented, idle_fleet, 70,
                 {}, awake)
            for awake in (True, False)
        )
        _assert_equivalent(eager, dormant)
        assert dormant.readings[-1]["pool"]["exhaustions"] == 1

    def test_fault_plan_armed_while_the_standby_sleeps(
        self, runs, monkeypatch, instrumented
    ):
        eager, dormant = (
            _run(runs, ("impaired", awake), monkeypatch, instrumented, impaired_cell,
                 250, {}, awake)
            for awake in (True, False)
        )
        _assert_equivalent(eager, dormant)
        # Awake while a window of the L2 uplink's hook can open; asleep
        # again once its windows (and later the standby's links') closed.
        assert not dormant.asleep[50 - 1]
        assert dormant.asleep[75 - 1] and dormant.asleep[-1]

    def test_bulk_tcp_cell(self, runs, monkeypatch, instrumented):
        eager, dormant = (
            _run(runs, ("tcp", awake), monkeypatch, instrumented, tcp_cell, 120, {}, awake)
            for awake in (True, False)
        )
        _assert_equivalent(eager, dormant)
        assert dormant.counters["transport.tcp_segments"] > 0


# ----------------------------------------------------------------------
# Mutants of the dormant path: each must break an equality
# ----------------------------------------------------------------------
def _mutant_run(runs, monkeypatch, log, mutate) -> List[str]:
    eager, _ = _cell_pair(runs, monkeypatch, log)
    with monkeypatch.context() as patch:
        mutate(patch)
        mutant = _drive(default_cell, CELL_END_MS, CELL_ACTIONS, log)
    return _mismatches(eager, mutant)


def _skip_run_return_settle(patch) -> None:
    patch.setattr(StandbyDormancy, "settle", lambda self, now: None)


def _no_wake_on_crash(patch) -> None:
    crash = PhyProcess.crash

    def crash_without_wake(self, reason="killed"):
        dormancy, self.dormancy = self.dormancy, None
        try:
            crash(self, reason)
        finally:
            self.dormancy = dormancy

    patch.setattr(PhyProcess, "crash", crash_without_wake)


def _lump_sum_cpu(patch) -> None:
    """``busy_core_us += k * CPU_NULL_SLOT_US`` once per settle instead
    of one addition per slot."""
    dormant_slot = PhyProcess._dormant_slot
    settle = StandbyDormancy.settle
    owed: Counter = Counter()

    def deferred_cost(self, sleeper, abs_slot):
        with pytest.MonkeyPatch.context() as free:
            free.setattr(process_module, "CPU_NULL_SLOT_US", 0.0)
            dormant_slot(self, sleeper, abs_slot)
        owed[id(self)] += 1

    def settle_lump_sum(self, now):
        for phy in self.phys.values():
            k = owed.pop(id(phy), 0)
            phy.cpu.busy_core_us += k * process_module.CPU_NULL_SLOT_US
        settle(self, now)

    patch.setattr(PhyProcess, "_dormant_slot", deferred_cost)
    patch.setattr(StandbyDormancy, "settle", settle_lump_sum)


class _SkipMidSlotDraw:
    """The PHY's generator with the mid-slot section's offset draw (the
    second ``random()`` of a dormant slot) answered without drawing."""

    def __init__(self, rng):
        self._rng = rng
        self._randoms = 0

    def normal(self, *args):
        return self._rng.normal(*args)

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def random(self):
        self._randoms += 1
        return 0.5 if self._randoms == 2 else self._rng.random()


def _skip_one_jitter_draw(patch) -> None:
    dormant_slot = PhyProcess._dormant_slot

    def skipping(self, sleeper, abs_slot):
        rng, self.rng = self.rng, _SkipMidSlotDraw(self.rng)
        try:
            dormant_slot(self, sleeper, abs_slot)
        finally:
            self.rng = rng

    patch.setattr(PhyProcess, "_dormant_slot", skipping)


@pytest.mark.parametrize(
    "mutate",
    [_skip_run_return_settle, _no_wake_on_crash, _lump_sum_cpu, _skip_one_jitter_draw],
    ids=["settle-skipped", "no-wake-on-crash", "lump-sum-cpu", "jitter-draw-skipped"],
)
def test_mutant_is_caught(runs, monkeypatch, instrumented, mutate):
    assert _mutant_run(runs, monkeypatch, instrumented, mutate)


# ----------------------------------------------------------------------
# A C-plane send and the SlotIndication on one nanosecond of the line
# ----------------------------------------------------------------------
def _jitter_onto_slot_indication(patch) -> None:
    """The standby's first C-plane leaves exactly when its SlotIndication
    reaches the NIC line (SHM hop plus an idle Orion worker's service);
    the draws still happen."""
    jitter = PhyProcess._tx_jitter_ns

    def forced(self):
        drawn = jitter(self)
        if self.phy_id != 1:
            return drawn
        abs_slot = self.slot_clock.slot_at(self.sim.now + process_module.TX_LEAD_NS)
        datagram = OrionDatagram(
            message=SlotIndication(cell_id=0, slot=abs_slot),
            phy_id=self.phy_id, is_response=True,
        )
        service = orion_module.SERVICE_BASE_NS + round(
            datagram.wire_bytes * orion_module.SERVICE_PER_BYTE_NS
        )
        return self.fapi_tx.latency_ns + service

    patch.setattr(PhyProcess, "_tx_jitter_ns", forced)


def _kept_frame_first_at_a_tie(patch) -> None:
    send = Link.send

    def kept_first(self, frame, ready_at=None):
        held = []
        if self._elided:
            now = self.sim.now
            self.settle_elided(now - 1)
            while self._elided and self._elided[0][0] == now:
                held.append(self._elided.popleft())
        arrival = send(self, frame, ready_at)
        if held:
            self._elided.extendleft(reversed(held))
        return arrival

    patch.setattr(Link, "send", kept_first)


def test_tie_on_the_nic_line_goes_to_the_c_plane(monkeypatch, instrumented):
    """The tick schedules its C-plane send before the SlotIndication's
    worker completion exists, so FIFO puts the C-plane first on a shared
    nanosecond; the dormant line must too, and the mutant that lets the
    kept frame go first must show in the switch ingress log."""
    modes = {}
    for mode in ("eager", "dormant", "mutant"):
        with monkeypatch.context() as patch:
            _jitter_onto_slot_indication(patch)
            if mode == "eager":
                _forced_awake(patch)
            if mode == "mutant":
                _kept_frame_first_at_a_tie(patch)
            modes[mode] = _drive(default_cell, 40, {}, instrumented)
    assert any(modes["dormant"].asleep)
    assert _mismatches(modes["eager"], modes["dormant"]) == []
    assert "switch ingress log" in _mismatches(modes["eager"], modes["mutant"])


# ----------------------------------------------------------------------
# A touch while booked nulls are on their way
# ----------------------------------------------------------------------
#: In the default cell the L2-side Orion books a slot's UL null 12.5 µs
#: into the slot; it reaches the switch 1.0 µs later, the standby's NIC
#: 1.4 µs after that, and holds the Orion's worker and then SHM for about
#: 1.5 µs and 1 µs. A touch (``StandbyDormancy.wake``, a no-op on an
#: eager standby) at each of these instants into four slots finds it on
#: the L2 line, on the switch -> NIC line, in the worker and in SHM.
TOUCHES = {40: 13_000, 44: 14_000, 48: 15_500, 52: 17_000}
TOUCH_END_MS = 30


def touched_cell() -> Tuple[Any, List[Any]]:
    cell, flows = default_cell()
    for slot, offset in TOUCHES.items():
        cell.sim.at(cell.slot_clock.slot_start(slot) + offset, cell.dormancy.wake)
    return cell, flows


def _stages_at_wake(patch) -> List[Tuple[int, ...]]:
    """Per wake: its instant and the booked nulls then on the L2 line,
    on the switch -> NIC line, in the worker and in SHM."""
    seen: List[Tuple[int, ...]] = []
    wake_inbound = Sleeper.wake_inbound

    def recording(self, sim):
        egress = self.egress
        seen.append((sim.now, len(egress._elided or ()), len(egress.elided_departed or ()),
                     len(self.queued), len(self.handed)))
        wake_inbound(self, sim)

    patch.setattr(Sleeper, "wake_inbound", recording)
    return seen


def _touch_pair(runs, monkeypatch, log) -> Tuple[Run, Run, List[Tuple[int, ...]]]:
    if ("touched", False) not in runs:
        with monkeypatch.context() as patch:
            stages = _stages_at_wake(patch)
            runs[("touched", False)] = _drive(touched_cell, TOUCH_END_MS, {}, log)
        runs["touched stages"] = stages
    eager = _run(runs, ("touched", True), monkeypatch, log, touched_cell, TOUCH_END_MS,
                 {}, True)
    return eager, runs[("touched", False)], runs["touched stages"]


def test_a_touch_makes_booked_nulls_events_in_every_stage(runs, monkeypatch, instrumented):
    eager, dormant, stages = _touch_pair(runs, monkeypatch, instrumented)
    _assert_equivalent(eager, dormant)
    clock = build_slingshot_cell(CellConfig(seed=11)).slot_clock
    by_time = {wake[0]: wake[1:] for wake in stages}
    for stage, (slot, offset) in enumerate(TOUCHES.items()):
        assert by_time[clock.slot_start(slot) + offset][stage] > 0, (slot, by_time)


def _booked_null_skips_the_l2_line(patch) -> None:
    """A booked null takes no time on the L2 server's uplink, so the kept
    request after it goes onto the line early."""
    elide = Link.elide

    def unoccupied(self, send_ns, wire_bytes, token=None, ready_at=None):
        line = (self._line_free_at, self.frames_sent, self.bytes_sent)
        arrival = elide(self, send_ns, wire_bytes, token, ready_at)
        if self.name.startswith("l2->"):
            self._line_free_at, self.frames_sent, self.bytes_sent = line
        return arrival

    patch.setattr(Link, "elide", unoccupied)


def _kept_send_unsettled(patch) -> None:
    """A kept frame goes onto a line ahead of the elided sends due
    before it (the standby's SlotIndication ahead of its C-plane)."""
    send = Link.send

    def unsettled(self, frame, ready_at=None):
        held, self._elided = self._elided, None
        try:
            return send(self, frame, ready_at)
        finally:
            self._elided = held

    patch.setattr(Link, "send", unsettled)


def _frames_processed_not_booked(patch) -> None:
    def forwarded(self, count, out):
        self.frames_in += count
        out.frames_out += count

    patch.setattr(SwitchPort, "absorb_forwarded", forwarded)


def _wake_drops_nulls_on_the_nic_line(patch) -> None:
    wake_inbound = Sleeper.wake_inbound

    def dropping(self, sim):
        self.egress.elided_departed.clear()
        wake_inbound(self, sim)

    patch.setattr(Sleeper, "wake_inbound", dropping)


@pytest.mark.parametrize(
    "mutate",
    [_booked_null_skips_the_l2_line, _kept_send_unsettled, _frames_processed_not_booked,
     _wake_drops_nulls_on_the_nic_line],
    ids=["l2-line-unoccupied", "kept-send-unsettled", "frames-processed-unbooked",
         "wake-drops-a-null"],
)
def test_booking_mutant_is_caught(runs, monkeypatch, instrumented, mutate):
    eager, _, _ = _touch_pair(runs, monkeypatch, instrumented)
    with monkeypatch.context() as patch:
        mutate(patch)
        mutant = _drive(touched_cell, TOUCH_END_MS, {}, instrumented)
    assert _mismatches(eager, mutant)


# ----------------------------------------------------------------------
# A booked null and the SlotIndication on one nanosecond of the worker
# ----------------------------------------------------------------------
#: Nanoseconds into a slot at which the default cell's UL null reaches
#: the standby's NIC (booked 12.5 µs in, 2.4 µs of lines and switch).
UL_NULL_AT_NIC = 14_923


def _own_leads(patch, leads: Dict[int, int]) -> None:
    """A PHY listed in ``leads`` runs on its own transmit lead: its slot
    tick, its tick arming and its sleeper's slot-indication test read
    ``TX_LEAD_NS`` as that PHY's entry."""

    def on_own_lead(function, phy_of):
        def wrapped(self, *args):
            lead = leads.get(phy_of(self).phy_id)
            if lead is None:
                return function(self, *args)
            with pytest.MonkeyPatch.context() as own:
                own.setattr(process_module, "TX_LEAD_NS", lead)
                own.setattr(standby_module, "TX_LEAD_NS", lead)
                return function(self, *args)

        return wrapped

    for name in ("_slot_tick", "_schedule_next_slot"):
        patch.setattr(
            PhyProcess, name, on_own_lead(getattr(PhyProcess, name), lambda phy: phy)
        )
    patch.setattr(
        Sleeper,
        "_meets_slot_indication",
        on_own_lead(Sleeper._meets_slot_indication, lambda sleeper: sleeper.phy),
    )


def _tick_onto_null_arrivals(cell: Any, leads: Dict[int, int]) -> None:
    """From here the sleeping standby ticks while a UL null is on its
    NIC line, its SHM hop short of the null's arrival: the two meet at
    the Orion's worker on one nanosecond, and FIFO gives it to the null,
    whose delivery was scheduled first. The standby cannot fall asleep
    again (a tick always finds a null in flight)."""
    phy = cell.phy_servers[1].phy
    leads[phy.phy_id] = cell.slot_clock.slot_duration_ns - (
        UL_NULL_AT_NIC - phy.fapi_tx.latency_ns
    )
    phy._tick_handle.cancel()
    phy._schedule_next_slot()


def rephased_cell(patch) -> Tuple[Any, List[Any]]:
    leads: Dict[int, int] = {}
    _own_leads(patch, leads)
    cell, flows = default_cell()
    cell.sim.at(
        10 * MS + 1, _tick_onto_null_arrivals, cell, leads
    )
    return cell, flows


def test_a_null_meeting_the_slot_indication_is_sent_live(monkeypatch, instrumented):
    """The tie guard wakes the standby at the booking, and without it the
    SlotIndication takes the worker first, which the switch shows."""
    modes = {}
    for mode in ("eager", "dormant", "mutant"):
        with monkeypatch.context() as patch:
            if mode == "eager":
                _forced_awake(patch)
            if mode == "mutant":
                patch.setattr(Sleeper, "_meets_slot_indication", lambda self, arrival: False)
            modes[mode] = _drive(lambda: rephased_cell(patch), 14, {}, instrumented)
    assert any(modes["dormant"].asleep)
    assert _mismatches(modes["eager"], modes["dormant"]) == []
    assert "switch ingress log" in _mismatches(modes["eager"], modes["mutant"])


# ----------------------------------------------------------------------
# Premises of the dormant path, pinned on the eager run
# ----------------------------------------------------------------------
class TestEagerPremises:
    """The dormant path keeps every shared-resource event and relies on
    how they meet today; a change that breaks a premise fails here."""

    def _eager(self, runs, monkeypatch, log) -> Run:
        return _cell_pair(runs, monkeypatch, log)[0]

    def test_primary_slot_indication_first_at_the_switch(
        self, runs, monkeypatch, instrumented
    ):
        eager = self._eager(runs, monkeypatch, instrumented)
        by_slot: Dict[int, list] = {}
        for _, now, _, kind, slot, phy_id in eager.ingress:
            if kind == "SlotIndication":
                by_slot.setdefault(slot, []).append((now, phy_id))
        met = [arrivals for arrivals in by_slot.values() if len(arrivals) == 2]
        assert len(met) > 500
        for (first_ns, first_phy), (second_ns, second_phy) in met:
            assert first_ns == second_ns
            assert {first_phy, second_phy} == {0, 1}
        # Before the kill PHY 0 is the primary, and it comes first.
        early = [arrivals for slot, arrivals in by_slot.items() if len(arrivals) == 2
                 and arrivals[0][0] < 150 * MS]
        assert early and all(arrivals[0][1] == 0 for arrivals in early)

    def test_standby_slot_indication_never_waits_or_ties(
        self, runs, monkeypatch, instrumented
    ):
        eager = self._eager(runs, monkeypatch, instrumented)
        standby_queue = next(
            queue for queue, *_ in eager.submits if queue.name == "orion-phy1"
        )
        submits = [s for s in eager.submits if s[0] is standby_queue]
        instants = Counter(now for _, now, *_ in submits)
        indications = [
            (now, busy) for _, now, busy, action, args in submits
            if action == "_to_network" and isinstance(args[0].message, SlotIndication)
            and now < 150 * MS
        ]
        assert len(indications) > 250
        for now, busy in indications:
            assert busy <= now
            assert instants[now] == 1

    def test_nothing_waits_behind_a_standby_response(
        self, runs, monkeypatch, instrumented
    ):
        eager = self._eager(runs, monkeypatch, instrumented)
        l2_submits = [s for s in eager.submits if s[0].name == "orion-l2"]
        waits = 0
        for previous, current in zip(l2_submits, l2_submits[1:]):
            _, now, busy, _, _ = current
            if busy <= now:
                continue
            waits += 1
            _, before, _, action, args = previous
            if action == "_route_response" and before < 150 * MS:
                assert args[0].phy_id != 1, f"waited behind standby response at {now}"
        assert waits > 0
