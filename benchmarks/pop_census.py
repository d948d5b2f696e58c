#!/usr/bin/env python3
"""Pop-level census of one benchmark workload: which callbacks the wall goes to.

    python benchmarks/pop_census.py <workload> [--seed N] [--smoke] [--frames N]

Builds and warms the workload's plan exactly as ``bench/worker.py`` does
(``bench/workloads.py`` is imported read-only), then drives the measured
window twice, on two identical deployments:

* a **timed** pass with ``Simulator._pop`` wrapped from outside: the wall
  between one pop returning and the next pop being asked for is the
  popped callback's, attributed to its kind — owner class · method, with
  ``Link._deliver``, ``ShmChannel._deliver`` and ``_ServiceQueue._complete``
  split by the consumer they hand to;
* a **counted** pass under ``sys.setprofile``: Python ``call`` and C
  ``c_call`` events per cell-slot, and the Python ones per code object
  (``--frames N`` prints the N most entered). Deterministic, so it repeats
  exactly; it runs apart from the timed pass because the profile hook
  would be most of the wall it measured.

Both passes must pop the ``events_processed`` delta of the window, event
for event, or the script fails. ROADMAP item 6 asks for this census
before any fleet-speed direction is taken; DESIGN §9 "Healthy slot: cost
model" quotes its table.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402  (bench/workloads.py)

from repro.sim.engine import Simulator  # noqa: E402

SLOT_NS = 500 * workloads.US


def callback_kind(handle: Any) -> str:
    """``Owner.method`` of a popped event; a carrier — its cost belongs to
    whoever it hands the work to — is split by that consumer."""
    callback = handle.callback
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return getattr(callback, "__qualname__", repr(callback))
    kind = f"{type(owner).__name__}.{callback.__name__}"
    if kind == "_ServiceQueue._complete":
        action = handle.args[0]
        return f"{kind} -> {type(action.__self__).__name__}.{action.__name__}"
    if kind in ("Link._deliver", "ShmChannel._deliver"):
        return f"{kind} -> {type(owner.endpoint).__name__}"
    return kind


def _window(name: str, seed: int, smoke: bool) -> Tuple[Any, Dict[str, Any]]:
    plan = workloads.plan(name, seed, smoke)
    deployment = workloads.build(plan)
    deployment.warm_up()
    return deployment, plan


def timed_pass(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """Events and callback wall per kind over the measured window."""
    deployment, plan = _window(name, seed, smoke)
    sim = deployment.sim
    events: Counter = Counter()
    wall_ns: Counter = Counter()
    inner_pop = Simulator._pop
    clock = time.perf_counter_ns
    running: Optional[str] = None  # Kind of the callback in flight ...
    started = 0  # ... and when its pop returned.

    def census_pop(self: Simulator, limit: Optional[int] = None):
        nonlocal running, started
        asked = clock()
        if running is not None:
            wall_ns[running] += asked - started
        entry = inner_pop(self, limit)
        if entry is None:
            running = None
            return None
        running = callback_kind(entry[3])
        events[running] += 1
        started = clock()
        return entry

    before = sim.events_processed
    Simulator._pop = census_pop
    try:
        sim.run_until(plan["end_ns"])
    finally:
        Simulator._pop = inner_pop
    return {
        "events": events,
        "wall_ns": wall_ns,
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


def census(name: str, seed: int = 1, smoke: bool = False) -> Dict[str, Any]:
    """Both passes of one workload, checked against each other."""
    timed = timed_pass(name, seed, smoke)
    counted = counted_pass(name, seed, smoke)
    total = sum(timed["events"].values())
    if not total == timed["events_processed"] == counted["events_processed"]:
        raise SystemExit(
            f"pop census: {total} events attributed, events_processed moved by "
            f"{timed['events_processed']} (timed) / {counted['events_processed']} (counted)"
        )
    return {
        "workload": name, "seed": seed, "smoke": smoke, "attributed": total,
        **timed, **counted,
    }


def render(result: Dict[str, Any], frames: int = 0) -> List[str]:
    """The census as text: a header, one row per kind, two total lines,
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
        f"calls /cell-slot: python {result['call'] / slots:.1f} c {result['c_call'] / slots:.1f}"
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
    args = parser.parse_args(argv)
    if args.frames < 0:
        parser.error(f"--frames must be >= 0, got {args.frames}")
    print("\n".join(render(census(args.workload, args.seed, args.smoke), args.frames)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
