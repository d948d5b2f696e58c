"""Span tracer for the traced pass, applied from outside the program.

Two kinds of boundary, both installed by :class:`Tracer.install` and
removed again by :meth:`Tracer.uninstall`:

* **event boundary** — ``Simulator.schedule`` / ``.at`` /
  ``.schedule_periodic`` are wrapped so every callback runs inside a span
  named for the package and module that own it. The span's *cause* is the
  span that was open when the callback was scheduled, which links RU
  symbol -> link delivery -> switch -> PHY -> Orion -> L2 across the
  event queue.
* **call boundary** — the public callables in :data:`BOUNDARIES` are
  wrapped in place. Each is named by dotted path and resolved at install
  time; one that no longer resolves is listed in
  ``Tracer.unresolved`` and its metrics read ``null`` instead of the
  benchmark crashing on a refactor.

Each span records name, start, end, parent and cause. Self time is
duration minus the part covered by child spans, so self times over all
spans sum exactly to the root span. Spans are folded into per-name
aggregates as they close; raw spans are kept (up to ``RAW_SPAN_CAP``)
only while ``raw_on`` is set — the driver sets it for the chunks around a
fault. Everything stays in memory until the pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: The packages on the measured path; a span's layer is the first
#: component of its name.
LAYERS = (
    "sim", "net", "fronthaul", "phy", "fapi", "core",
    "l2", "transport", "apps", "ue", "corenet", "fleet",
)

#: Sub-spans reported by name (``<name>.self_s``); every other span name
#: still counts toward its layer and is kept in the results file.
SUB_SPANS = (
    "sim.dispatch", "sim.schedule",
    "net.link", "net.switch",
    "fronthaul.ru", "fronthaul.ecpri",
    "phy.encode", "phy.channel", "phy.demod", "phy.decode", "phy.crc", "phy.harq",
    "core.orion", "core.mbox", "core.detector",
    "l2.mac", "l2.rlc",
    "transport.tcp", "transport.udp",
    "fleet.backend", "fleet.pool", "fleet.population",
)

#: The root span is the benchmark's own ``run_until`` loop; what it does
#: not spend inside callbacks is the engine popping and dispatching.
ROOT = "sim.dispatch"
SCHEDULE = "sim.schedule"

#: Call boundaries: dotted path of a public callable -> span name.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("repro.net.link.Link.send", "net.link"),
    ("repro.net.switch.Switch.ingress", "net.switch"),
    ("repro.fronthaul.ru.RadioUnit.receive_frame", "fronthaul.ru"),
    ("repro.fronthaul.ecpri.encode_header", "fronthaul.ecpri"),
    ("repro.fronthaul.ecpri.decode_header", "fronthaul.ecpri"),
    ("repro.fronthaul.ecpri.parse_timing_fields", "fronthaul.ecpri"),
    ("repro.phy.process.PhyProcess.receive_frame", "phy.process"),
    ("repro.phy.process.PhyProcess.receive_fapi", "phy.process"),
    ("repro.phy.codec.PhyCodec.encode_blocks", "phy.encode"),
    ("repro.phy.codec.PhyCodec.encode_block", "phy.encode"),
    ("repro.phy.batch.modulate_batch", "phy.encode"),
    ("repro.phy.codec.PhyCodec.decode_block", "phy.decode"),
    ("repro.phy.ldpc.LdpcCode.decode", "phy.decode"),
    ("repro.phy.channel.AwgnChannel.apply", "phy.channel"),
    ("repro.phy.modulation.demodulate_llr", "phy.demod"),
    ("repro.phy.batch.demodulate_llr_batch", "phy.demod"),
    ("repro.phy.crc.crc24a_batch", "phy.crc"),
    ("repro.phy.crc.check_crc", "phy.crc"),
    ("repro.phy.harq.HarqProcessPool.combine", "phy.harq"),
    ("repro.fapi.channels.ShmChannel.send", "fapi.channels"),
    ("repro.fapi.codec.encode_message", "fapi.codec"),
    ("repro.fapi.codec.decode_message", "fapi.codec"),
    ("repro.core.fh_middlebox.FronthaulMiddlebox.process", "core.mbox"),
    ("repro.core.failure_detector.FailureDetector.on_heartbeat", "core.detector"),
    ("repro.core.failure_detector.FailureDetector.on_timer_tick", "core.detector"),
    ("repro.core.orion.L2SideOrion.receive_frame", "core.orion"),
    ("repro.core.orion.L2SideOrion.receive_fapi", "core.orion"),
    ("repro.core.orion.PhySideOrion.receive_frame", "core.orion"),
    ("repro.core.orion.PhySideOrion.receive_fapi", "core.orion"),
    ("repro.l2.mac.L2Process.receive_fapi", "l2.mac"),
    ("repro.l2.mac.L2Process.send_downlink", "l2.mac"),
    ("repro.l2.rlc.RlcTransmitter.enqueue", "l2.rlc"),
    ("repro.l2.rlc.RlcTransmitter.pull", "l2.rlc"),
    ("repro.l2.rlc.RlcTransmitter.on_status", "l2.rlc_status"),
    ("repro.l2.rlc.RlcReceiver.on_pdu", "l2.rlc"),
    ("repro.transport.tcp.TcpSender.on_ack", "transport.tcp"),
    ("repro.transport.tcp.TcpReceiver.on_segment", "transport.tcp"),
    ("repro.transport.udp.UdpSink.on_packet", "transport.udp"),
    ("repro.ue.ue.UserEquipment.on_dl_data", "ue.ue"),
    ("repro.ue.ue.UserEquipment.on_dl_control", "ue.ue"),
    ("repro.fleet.phy_backend.FleetPhyBackend.encode_blocks", "fleet.backend"),
    ("repro.fleet.pool.StandbyPool.claim", "fleet.pool"),
)

#: Event spans are named ``<package>.<module>``; where the issue's
#: sub-span name differs from the module name, map it.
_EVENT_ALIASES = {
    "core.fh_middlebox": "core.mbox",
    "core.failure_detector": "core.detector",
    "fleet.phy_backend": "fleet.backend",
}

SIMULATOR = "repro.sim.engine.Simulator"
RAW_SPAN_CAP = 100_000
RAW_FIELDS = ("span", "parent", "cause", "name", "start_ns", "end_ns", "sim_ns")


def resolve(path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, object) for a dotted path; raises LookupError."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            continue
    raise LookupError(path)


def _event_name(callback: Any) -> str:
    """``<package>.<module>`` of the code that owns an event callback."""
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        module = type(owner).__module__
    else:
        module = getattr(callback, "__module__", None) or "unknown"
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        parts = parts[1:]
    name = ".".join((parts[0], parts[-1])) if len(parts) > 1 else parts[0]
    return _EVENT_ALIASES.get(name, name)


class _TracedCallback:
    """An event callback that runs inside a span caused by its scheduler."""

    __slots__ = ("tracer", "fn", "name", "cause", "periodic")

    def __init__(self, tracer: "Tracer", fn: Callable, cause: int, periodic: bool):
        self.tracer = tracer
        self.fn = fn
        self.name = _event_name(fn)
        self.cause = cause
        self.periodic = periodic

    def __call__(self, *args: Any) -> Any:
        tracer = self.tracer
        if self.periodic:
            tracer.wheel_ticks += 1
        frame = tracer.enter(self.name, self.cause)
        try:
            return self.fn(*args)
        finally:
            tracer.exit(frame)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: Open spans: [name, start_ns, child_ns, span_id, cause_id].
        self.stack: List[list] = []
        #: name -> [self_ns, calls].
        self.aggregates: Dict[str, List[int]] = {}
        #: Raw spans, RAW_FIELDS integers each, flat: an array holds no
        #: per-span objects for the garbage collector to walk.
        self.raw = array("q")
        self.raw_names: Dict[str, int] = {}
        self.raw_on = False
        self.raw_dropped = 0
        self.next_id = 1
        self.wheel_ticks = 0
        self.unresolved: List[str] = []
        self.root_ns = 0
        self._sim: Any = None
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ----------------------------------------------
    def enter(self, name: str, cause: int = 0) -> list:
        frame = [name, 0, 0, self.next_id, cause]
        self.next_id += 1
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        agg = self.aggregates.get(frame[0])
        if agg is None:
            agg = self.aggregates[frame[0]] = [0, 0]
        agg[0] += duration - frame[2]
        agg[1] += 1
        parent = 0
        if stack:
            top = stack[-1]
            top[2] += duration
            parent = top[3]
        else:
            self.root_ns += duration
        if self.raw_on:
            if len(self.raw) < RAW_SPAN_CAP * len(RAW_FIELDS):
                names = self.raw_names
                name_id = names.get(frame[0])
                if name_id is None:
                    name_id = names[frame[0]] = len(names)
                self.raw.extend(
                    (frame[3], parent, frame[4], name_id, frame[1], end, self._sim.now)
                )
            else:
                self.raw_dropped += 1

    def current(self) -> int:
        return self.stack[-1][3] if self.stack else 0

    def run_root(self, sim: Any, until_ns: int) -> None:
        """Drive ``sim.run_until`` inside one root span."""
        self._sim = sim
        frame = self.enter(ROOT)
        try:
            sim.run_until(until_ns)
        finally:
            self.exit(frame)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        try:
            _, _, simulator = resolve(SIMULATOR)
        except LookupError:
            self.unresolved.append(SIMULATOR)
        else:
            self._wrap_scheduler(simulator)
        for path, name in BOUNDARIES:
            try:
                owner, attr, target = resolve(path)
            except LookupError:
                self.unresolved.append(path)
                continue
            wrapper = self._wrap_call(target, name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # A module-level function may already be bound by name in
                # the modules that import it; rebind it everywhere.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is target:
                                self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_call(self, fn: Callable, name: str) -> Callable:
        enter, exit_ = self.enter, self.exit

        def boundary(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        boundary.__wrapped__ = fn  # type: ignore[attr-defined]
        return boundary

    def _wrap_scheduler(self, simulator: type) -> None:
        tracer = self

        def wrap(method_name: str, callback_index: int, periodic: bool) -> None:
            original = getattr(simulator, method_name, None)
            if original is None:
                tracer.unresolved.append(f"{SIMULATOR}.{method_name}")
                return

            def scheduling(sim: Any, *args: Any, **kwargs: Any) -> Any:
                callback = args[callback_index]
                if type(callback) is _TracedCallback:
                    # schedule() delegating to at(): already inside the span.
                    return original(sim, *args, **kwargs)
                traced = _TracedCallback(tracer, callback, tracer.current(), periodic)
                args = args[:callback_index] + (traced,) + args[callback_index + 1:]
                frame = tracer.enter(SCHEDULE)
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    tracer.exit(frame)

            tracer._patch(simulator, method_name, scheduling)

        wrap("schedule", 1, False)
        wrap("at", 1, False)
        wrap("schedule_periodic", 1, True)

    # -- read-out --------------------------------------------------------
    def raw_spans(self):
        """Recorded raw spans as RAW_FIELDS tuples, names restored."""
        names = {index: name for name, index in self.raw_names.items()}
        width = len(RAW_FIELDS)
        raw = self.raw
        for at in range(0, len(raw), width):
            row = list(raw[at:at + width])
            row[3] = names[row[3]]
            yield row

    def summary(self) -> Dict[str, Any]:
        """Per-layer and per-name aggregates of the finished pass."""
        names = {
            name: {"self_s": agg[0] / 1e9, "calls": agg[1]}
            for name, agg in sorted(self.aggregates.items())
        }
        layers: Dict[str, Dict[str, float]] = {}
        for name, agg in names.items():
            layer = layers.setdefault(name.split(".")[0], {"self_s": 0.0, "calls": 0})
            layer["self_s"] += agg["self_s"]
            layer["calls"] += agg["calls"]
        root_s = self.root_ns / 1e9
        for layer in layers.values():
            layer["share"] = layer["self_s"] / root_s if root_s else 0.0
        return {
            "root_s": root_s,
            "self_sum_s": sum(a["self_s"] for a in names.values()),
            "layers": layers,
            "names": names,
            "wheel_ticks": self.wheel_ticks,
            "unresolved_boundaries": list(self.unresolved),
            "raw_spans": len(self.raw) // len(RAW_FIELDS),
            "raw_spans_dropped": self.raw_dropped,
        }
