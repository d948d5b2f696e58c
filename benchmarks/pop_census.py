#!/usr/bin/env python3
"""Pop-level census of one benchmark workload: which callbacks the wall goes to.

    python benchmarks/pop_census.py <workload> [--seed N] [--smoke] [--frames N]
                                    [--by-role]

Builds and warms the workload's plan exactly as ``bench/worker.py`` does
(``bench/workloads.py`` is imported read-only), then drives the measured
window twice, on two identical deployments:

* a **timed** pass with every callback wrapped where it is scheduled
  (``Simulator.schedule`` / ``.at`` / ``.schedule_periodic`` patched from
  outside before the deployment is built, through the tests' seam
  ``tests/fired.wrap_scheduled``, as ``bench/spans.py`` does):
  each fire's wall is its callback's, attributed to its kind — owner
  class · method, with
  the carriers ``ShmChannel._deliver`` and ``ServerNic.receive_frame``
  split by the consumer they hand to; the run loop's own work between
  callbacks is no kind's; ``gc.callbacks`` times CPython's
  cyclic collector over the same window (collections per generation and
  their share of the window's wall, DESIGN §9 "Collector: cost model").
  The window runs in the benchmark's chunks, and each chunk's walls are
  scaled by the calibration loop timed right before it
  (``bench/worker.calibration_work``) to the reference host's speed, as
  ``bench/metrics.quiet_wall_s`` scales a run;
  ``--by-role`` prefixes each kind with the role, at fire time, of the
  PHY server the event works for (below); the cancelled entries the run
  loop skipped (the fall of ``sim._cancelled_in_queue`` between one
  callback's end and the next one's start) are the cost an event traded
  for a cancel leaves behind;
* a **counted** pass under ``sys.setprofile``: Python ``call`` and C
  ``c_call`` events per cell-slot, and the Python ones per code object
  (``--frames N`` prints the N most entered). Deterministic, so it repeats
  exactly; it runs apart from the timed pass because the profile hook
  would be most of the wall it measured.

Both passes must fire the ``events_processed`` delta of the window, event
for event, or the script fails. ROADMAP's perf_opt item asks for this
census before any fleet-speed direction is taken; DESIGN §9 "Healthy slot: cost
model" quotes its table and "Collector: cost model" its collector line.

A PHY server's events are those of its PHY, its PHY-side Orion, their
SHM channels and its NIC, every frame delivery whose frame is from or to
one of its MACs, and the L2-side ``_route_response`` of its datagrams.
Its role is read from
its cell's L2-side Orion when the event fires, since a failover swaps
them: ``active`` (a primary), ``standby`` (a secondary), ``dormant`` (a
secondary whose slots run evaluated, ``core/standby.py``) or ``retired``
(neither, e.g. a killed primary). Every other event (RU, switch,
detector, L2, the fleet's own) is ``other``. A dormant server's elided
work fires nothing; the census counts its dormant slot ticks instead
(``standby-slots elided``), and the null requests the L2-side Orion
booked for it instead of sending them (``nulls booked``).
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), ROOT]

import workloads  # noqa: E402  (bench/workloads.py)
from metrics import CALIBRATION_REF_NS  # noqa: E402  (bench/metrics.py)
from worker import calibration_work  # noqa: E402  (bench/worker.py)

from repro.core.standby import Sleeper  # noqa: E402
from repro.net.packet import EtherType  # noqa: E402
from repro.phy.process import PhyProcess  # noqa: E402
from tests.fired import wrap_scheduled  # noqa: E402

SLOT_NS = 500 * workloads.US


def callback_kind(callback: Any, args: Tuple[Any, ...]) -> str:
    """``Owner.method`` of a fired callback; a carrier — its cost belongs
    to whoever it hands the work to — is split by that consumer."""
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return getattr(callback, "__qualname__", repr(callback))
    kind = f"{type(owner).__name__}.{callback.__name__}"
    if kind == "ShmChannel._deliver":
        return f"{kind} -> {type(owner.endpoint).__name__}"
    if kind == "ServerNic.receive_frame":
        frame = args[0]
        consumer = owner.phy if frame.ethertype == EtherType.ECPRI else owner.orion
        return f"{kind} -> {type(consumer).__name__}"
    return kind


class RoleMap:
    """Which PHY server of which cell a fired event works for, and that
    server's role at fire time."""

    def __init__(self, cells: List[Any]) -> None:
        self.cells = cells
        self.server_of: Dict[int, Tuple[int, int]] = {}  # id(object) -> (cell, phy)
        self.cell_of: Dict[int, int] = {}  # id(endpoint or L2-side Orion) -> cell
        self.mac_phy: Dict[Tuple[int, Any], int] = {}  # (cell, MAC) -> phy
        for index, cell in enumerate(cells):
            self.cell_of[id(cell.l2_orion)] = index
            for number in cell.switch.port_numbers():
                port = cell.switch.port(number)
                self.cell_of[id(port)] = index
                self.cell_of[id(port.egress.endpoint)] = index
            for node in cell.phy_servers:
                for part in (node.phy, node.orion, node.nic,
                             node.orion.shm_to_phy, node.phy.fapi_tx):
                    self.server_of[id(part)] = (index, node.phy_id)
                self.mac_phy[index, node.phy_mac] = node.phy_id
                self.mac_phy[index, node.orion_mac] = node.phy_id

    def role(self, cell: int, phy: int) -> str:
        assignments = self.cells[cell].l2_orion.cells.values()
        if any(a.primary_phy == phy for a in assignments):
            return "active"
        if any(a.secondary_phy == phy for a in assignments):
            return "dormant" if self.cells[cell].phy_servers[phy].phy.asleep else "standby"
        return "retired"

    def __call__(self, callback: Any, args: Tuple[Any, ...]) -> str:
        owner = getattr(callback, "__self__", None)
        server = self.server_of.get(id(owner))
        if server is None and callback.__name__ == "_route_response":
            server = (self.cell_of[id(owner)], args[0].phy_id)
        elif server is None and callback.__name__ == "receive_frame":
            cell = self.cell_of[id(owner)]
            frame = args[0]
            phy = self.mac_phy.get((cell, frame.src), self.mac_phy.get((cell, frame.dst)))
            if phy is not None:
                server = (cell, phy)
        return "other" if server is None else self.role(*server)


def _window(name: str, seed: int, smoke: bool) -> Tuple[Any, Dict[str, Any]]:
    plan = workloads.plan(name, seed, smoke)
    deployment = workloads.build(plan)
    deployment.warm_up()
    return deployment, plan


class Timed:
    """A scheduled callback whose fires the census times while it is on."""

    __slots__ = ("census", "callback")

    def __init__(self, census: "FireCensus", callback: Any) -> None:
        self.census = census
        self.callback = callback

    def __call__(self, *args: Any) -> Any:
        census = self.census
        if not census.on:
            return self.callback(*args)
        return census.fire(self.callback, args)


class FireCensus:
    """Events and callback wall per kind, taken by wrapping every
    callback where it is scheduled (module notes)."""

    def __init__(self, role_of: Optional[RoleMap]) -> None:
        self.role_of = role_of
        self.on = False
        self.sim: Any = None
        self.events: Counter = Counter()
        self.wall_ns: Counter = Counter()  # This chunk's measured ns per kind.
        self.skipped = 0  # Cancelled entries the window's run loop dropped.
        self.queued_cancels = 0  # sim._cancelled_in_queue as the last callback ended.
        self.clock = time.perf_counter_ns
        self._patched: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        wrap_scheduled(self._patch, lambda callback, periodic: Timed(self, callback))

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in self._patched:
            setattr(owner, name, original)
        self._patched.clear()

    def start(self, sim: Any) -> None:
        self.sim = sim
        self.queued_cancels = sim._cancelled_in_queue
        self.on = True

    def stop(self) -> None:
        self.skipped += self.queued_cancels - self.sim._cancelled_in_queue
        self.on = False

    def fire(self, callback: Any, args: Tuple[Any, ...]) -> Any:
        sim = self.sim
        self.skipped += self.queued_cancels - sim._cancelled_in_queue
        kind = callback_kind(callback, args)
        if self.role_of is not None:
            kind = f"{self.role_of(callback, args)} {kind}"
        self.events[kind] += 1
        clock = self.clock
        started = clock()
        try:
            return callback(*args)
        finally:
            self.wall_ns[kind] += clock() - started
            self.queued_cancels = sim._cancelled_in_queue


def timed_pass(name: str, seed: int, smoke: bool, by_role: bool = False) -> Dict[str, Any]:
    """Events and callback wall per kind (per role and kind with
    ``by_role``) over the measured window, and the collections the
    window ran; walls in reference-host nanoseconds (module notes)."""
    plan = workloads.plan(name, seed, smoke)
    fires = FireCensus(None)
    fires.install()
    try:
        deployment = workloads.build(plan)
        deployment.warm_up()
        if by_role:
            fires.role_of = RoleMap(deployment.cells)
        return _timed_window(deployment, plan, fires)
    finally:
        fires.uninstall()


def _timed_window(deployment: Any, plan: Dict[str, Any], fires: FireCensus) -> Dict[str, Any]:
    sim = deployment.sim
    wall_ns: Counter = Counter()  # Reference-host ns, summed over chunks.
    collections: Counter = Counter()  # generation -> collections ...
    collected: Counter = Counter()  # ... -> objects they reclaimed
    gc_ns = 0
    elided = 0  # Slots a dormant standby ran evaluated.
    booked = 0  # Null requests booked for a dormant standby.
    inner_dormant_slot = PhyProcess._dormant_slot
    inner_book = Sleeper.book
    clock = time.perf_counter_ns

    def on_collect(phase: str, info: Dict[str, int]) -> None:
        nonlocal gc_ns
        if phase == "start":
            gc_ns -= clock()
        else:
            gc_ns += clock()
            collections[info["generation"]] += 1
            collected[info["generation"]] += info["collected"]

    def counting_dormant_slot(self: PhyProcess, sleeper: Any, abs_slot: int) -> None:
        nonlocal elided
        elided += 1
        inner_dormant_slot(self, sleeper, abs_slot)

    def counting_book(self: Sleeper, *fields: int) -> bool:
        nonlocal booked
        done = inner_book(self, *fields)
        booked += done
        return done

    before = sim.events_processed
    PhyProcess._dormant_slot = counting_dormant_slot
    Sleeper.book = counting_book
    window_ns = 0.0
    try:
        for end in deployment.chunk_ends():
            calibration_work()  # Untimed: refills the caches the chunk evicted.
            calibrated = clock()
            calibration_work()
            scale = CALIBRATION_REF_NS / (clock() - calibrated)
            gc_before = gc_ns
            gc.callbacks.append(on_collect)  # The chunk's collections only.
            fires.start(sim)
            chunk_started = clock()
            try:
                sim.run_until(end)
            finally:
                chunk_ns = clock() - chunk_started
                fires.stop()
                gc.callbacks.remove(on_collect)
            window_ns += chunk_ns * scale
            gc_ns = gc_before + (gc_ns - gc_before) * scale
            for kind, wall in fires.wall_ns.items():
                wall_ns[kind] += wall * scale
            fires.wall_ns.clear()
    finally:
        Sleeper.book = inner_book
        PhyProcess._dormant_slot = inner_dormant_slot
    return {
        "skipped": fires.skipped,
        "elided_slots": elided,
        "booked_nulls": booked,
        "events": fires.events,
        "wall_ns": wall_ns,
        "window_ns": window_ns,
        "gc_ns": gc_ns,
        "collections": collections,
        "collected": collected,
        "events_processed": sim.events_processed - before,
        "cell_slots": len(deployment.cells)
        * ((plan["end_ns"] - plan["warmup_ns"]) // SLOT_NS),
    }


def frame_label(code: Any, owner: Optional[str] = None) -> str:
    """``path:qualname`` of a code object, the path relative to ``src/``
    or the checkout, below ``site-packages`` or a bare file name (the
    standard library); a generated one (a dataclass ``__init__``, compiled
    from ``<string>``) is named by the class that owns it."""
    if owner is not None:
        return f"{code.co_filename}:{owner}.{code.co_name}"
    path = code.co_filename
    for base in (os.path.join(ROOT, "src"), ROOT):
        if path.startswith(base + os.sep):
            path = os.path.relpath(path, base)
            break
    else:
        path = path.partition("site-packages" + os.sep)[2] or os.path.basename(path)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def counted_pass(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """Interpreter ``call`` / ``c_call`` events over the same window, and
    the ``call`` events per code object."""
    deployment, plan = _window(name, seed, smoke)
    sim = deployment.sim
    counts: Dict[str, Any] = {"call": 0, "c_call": 0}
    calls: Counter = Counter()
    owners: Dict[Any, str] = {}

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            if code not in calls and code.co_filename == "<string>":
                owners[code] = type(frame.f_locals.get("self")).__qualname__
            calls[code] += 1
        elif event == "c_call":
            counts["c_call"] += 1

    before = sim.events_processed
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run_until(plan["end_ns"])
    finally:
        sys.setprofile(previous)
    counts["call"] = sum(calls.values())
    counts["frames"] = Counter()
    for code, count in calls.items():
        counts["frames"][frame_label(code, owners.get(code))] += count
    counts["events_processed"] = sim.events_processed - before
    return counts


def census(
    name: str, seed: int = 1, smoke: bool = False, by_role: bool = False
) -> Dict[str, Any]:
    """Both passes of one workload, checked against each other."""
    timed = timed_pass(name, seed, smoke, by_role)
    counted = counted_pass(name, seed, smoke)
    total = sum(timed["events"].values())
    if not total == timed["events_processed"] == counted["events_processed"]:
        raise SystemExit(
            f"pop census: {total} events attributed, events_processed moved by "
            f"{timed['events_processed']} (timed) / {counted['events_processed']} (counted)"
        )
    return {
        "workload": name, "seed": seed, "smoke": smoke, "by_role": by_role,
        "attributed": total,
        **timed, **counted,
    }


def render(result: Dict[str, Any], frames: int = 0) -> List[str]:
    """The census as text: a header, one row per kind, three total lines,
    then the ``frames`` most entered Python code objects."""
    slots = result["cell_slots"]
    wall_total = sum(result["wall_ns"].values())
    lines = [
        f"# pop census: {result['workload']} seed {result['seed']}"
        f"{' smoke' if result['smoke'] else ''}, {slots} cell-slots measured",
        f"# host: {platform.machine()} {os.cpu_count()} cpu, "
        f"{platform.python_implementation()} {platform.python_version()}",
        f"{'callback kind':<62} {'events':>8} {'/cell-slot':>10} {'wall %':>7} {'us/event':>9}",
    ]
    for kind, wall in result["wall_ns"].most_common():
        count = result["events"][kind]
        lines.append(
            f"{kind:<62} {count:>8} {count / slots:>10.2f} "
            f"{100 * wall / wall_total:>7.1f} {wall / count / 1e3:>9.2f}"
        )
    lines.append(
        f"events {result['attributed']} == events_processed delta "
        f"{result['events_processed']} ({result['events_processed'] / slots:.1f} /cell-slot)"
    )
    lines.append(
        f"cancelled skipped {result['skipped']} ({result['skipped'] / slots:.2f} /cell-slot)"
    )
    lines.append(
        f"calls /cell-slot: python {result['call'] / slots:.1f} c {result['c_call'] / slots:.1f}"
    )
    collections, collected = result["collections"], result["collected"]
    lines.append(
        "collector: " + " ".join(
            f"gen{g} {collections[g]} ({collected[g]} reclaimed)" for g in range(3)
        )
        + f", {result['gc_ns'] / 1e9:.3f} s of {result['window_ns'] / 1e9:.3f} s wall"
        f" ({100 * result['gc_ns'] / result['window_ns']:.1f} %)"
    )
    if result["by_role"]:
        role_wall: Counter = Counter()
        role_events: Counter = Counter()
        for kind, wall in result["wall_ns"].items():
            role = kind.partition(" ")[0]
            role_wall[role] += wall
            role_events[role] += result["events"][kind]
        lines.append(f"{'role':<10} {'events':>8} {'/cell-slot':>10} {'wall %':>7}")
        for role, wall in role_wall.most_common():
            lines.append(
                f"{role:<10} {role_events[role]:>8} {role_events[role] / slots:>10.2f} "
                f"{100 * wall / wall_total:>7.1f}"
            )
        lines.append(
            f"standby-slots elided {result['elided_slots']} "
            f"({result['elided_slots'] / slots:.2f} /cell-slot)"
        )
        lines.append(
            f"nulls booked {result['booked_nulls']} "
            f"({result['booked_nulls'] / slots:.2f} /cell-slot)"
        )
    if frames:
        lines.append(f"{'python frame':<86} {'/cell-slot':>10}")
        for label, count in result["frames"].most_common(frames):
            lines.append(f"{label:<86} {count / slots:>10.2f}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="the smoke-test shape")
    parser.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="also list the N most entered Python code objects per cell-slot",
    )
    parser.add_argument(
        "--by-role", action="store_true",
        help="split each kind by the role of the PHY server it works for",
    )
    args = parser.parse_args(argv)
    if args.frames < 0:
        parser.error(f"--frames must be >= 0, got {args.frames}")
    result = census(args.workload, args.seed, args.smoke, args.by_role)
    print("\n".join(render(result, args.frames)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
