"""Model-based differential test for the folded switch egress.

:class:`repro.net.switch.Switch` hands a forwarded frame to its egress
link at ingress with the instant it will be ready; the store-then-event
switch it replaced lives on as ``tests/switch_egress_event.py``. Both are
driven with the same generated traffic — mixed line rates, bursts that
queue on one egress link, same-nanosecond arrivals on different ports,
failure notifications landing inside another frame's pipeline window (and
the other way round), frames the pipeline drops, impaired egress links
whose fault windows open while a frame is inside the pipeline — and
everything observable must be **equal**: every
``(arrival, port, frame)`` delivered, every link's ``_line_free_at`` /
``frames_sent`` / ``bytes_sent`` at quiescence, port and switch counters,
impairment stats and trace records. Schedules are drawn from a reserved
``perf.*`` RngRegistry stream (seed ``CORPUS_SEED``), like
``test_tcp_scoreboard_fuzz.py``.

Under ``tie_shuffle_seed`` the two models draw different tie keys, so the
shuffled schedules hold no two same-nanosecond operations whose order one
egress link could see, and what a tie may still legitimately decide (which
of two equal-sized frames is serialized first) is compared order-free, the
``tie_free`` idiom of ``test_detector_deadline.py``.

The last class applies four one-line mutants to the live code and
requires the corpus to tell each from the fixture.
"""

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

import pytest

from repro.core.commands import FailureNotification
from repro.core.fh_middlebox import FronthaulMiddlebox
from repro.faults.link_faults import CorruptedPayload, LinkImpairment
from repro.faults.plan import FOREVER, LinkFaultSpec
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.packet import EtherType, EthernetFrame
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.units import US
from tests.conftest import mutated
from tests.corpora import CORPUS_SEED
from tests.switch_egress_event import EgressEventMiddlebox, EgressEventSwitch

SCHEDULES = 60
#: Every third schedule is free of same-instant operations and also runs
#: under these seeds.
SHUFFLE_SEEDS = (1, 2)
PIPELINE_NS = Switch(Simulator()).pipeline_latency_ns
HORIZON_NS = 300 * US
LINE_RATES = (1e9, 10e9, 25e9, 100e9)
LATENCIES = (100, 1_000, 3_000)
SIZES = (64, 128, 1_500, 9_000)


def mac_of(port: int) -> MacAddress:
    return MacAddress(0x100 + port)


@dataclass(frozen=True)
class FrameSpec:
    """One frame: its identity and what the pipeline is to do with it."""

    tag: int
    wire_bytes: int
    #: ``script`` carries its forwarding decision, one egress port or
    #: none (a drop); ``unicast`` goes through the static MAC table.
    mode: str
    out_ports: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Schedule:
    index: int
    #: (bandwidth_bps, latency_ns) of attached port 0, 1, ...
    ports: Tuple[Tuple[float, int], ...]
    #: A cabled port that no operation sends into and no MAC-table entry
    #: names: only stray scripted frames leave by it.
    spare_port: int
    notify_port: int
    #: Egress port -> fault specs of its impaired link.
    impaired: Tuple[Tuple[int, Tuple[LinkFaultSpec, ...]], ...]
    #: (time, "send" | "inject", port, FrameSpec) or (time, "notify", phy).
    ops: Tuple[Tuple[Any, ...], ...]
    #: No two operations share an instant.
    tie_free: bool


def generate_schedules(count: int = SCHEDULES):
    rng = RngRegistry(CORPUS_SEED).stream("perf.switch_fold_fuzz")

    def pick(*options):
        return options[int(rng.integers(0, len(options)))]

    def size():
        return pick(*SIZES) if rng.random() < 0.6 else int(rng.integers(64, 9_001))

    schedules = []
    for index in range(count):
        tie_free = index % 3 == 2
        n = int(rng.integers(3, 9))
        ports = [(pick(*LINE_RATES), pick(*LATENCIES)) for _ in range(n)]
        hot = int(rng.integers(0, n))
        ports[hot] = (pick(1e9, 10e9), ports[hot][1])
        notify_port = hot if index % 2 else int(rng.integers(0, n))
        tags = iter(range(1, 1_000_000))
        ops = []

        def other(port):
            return int((port + rng.integers(1, n)) % n)

        def script(out_ports):
            return FrameSpec(next(tags), size(), "script", tuple(out_ports))

        def entry(when, spec, in_port):
            ops.append((int(when), pick("send", "inject"), in_port, spec))

        for _ in range(int(rng.integers(40, 121))):
            in_port = int(rng.integers(0, n))
            mode = pick("script", "script", "unicast", "stray")
            if mode == "script":
                spec = script([other(in_port)])
            elif mode == "unicast":
                spec = FrameSpec(next(tags), size(), "unicast", (other(in_port),))
            else:
                spec = script(pick((), (n,)))
            entry(rng.integers(0, HORIZON_NS), spec, in_port)
        # Bursts that queue on the slow egress link.
        for _ in range(int(rng.integers(2, 4))):
            at = int(rng.integers(0, HORIZON_NS))
            for _ in range(int(rng.integers(5, 21))):
                at += int(rng.integers(1, 2_000))
                entry(at, script([hot]), other(hot))
        # Frames dropped, forwarded, or sent to the slow link.
        for _ in range(int(rng.integers(3, 9))):
            in_port = int(rng.integers(0, n))
            outs = pick((), (other(in_port),), (hot,))
            entry(rng.integers(0, HORIZON_NS), script(outs), in_port)
        # Same-instant ingress on two ports, to one egress link and to two.
        if not tie_free:
            for _ in range(int(rng.integers(2, 7))):
                at = int(rng.integers(0, HORIZON_NS))
                first = int(rng.integers(0, n))
                second = other(first)
                target = pick(hot, other(first))
                ops.append((at, "inject", first, script([target])))
                ops.append((at, "inject", second, script([pick(target, other(second))])))
        # Notifications around frames bound for the notification port:
        # inside the frame's pipeline window, the frame inside the
        # notification's, and (FIFO only) at the same instant.
        for phy in range(int(rng.integers(3, 9))):
            at = int(rng.integers(PIPELINE_NS, HORIZON_NS))
            gap = int(rng.integers(1, PIPELINE_NS))
            relation = pick("after", "before", "same", "alone")
            if relation == "same" and tie_free:
                relation = "after"
            if relation != "alone":
                frame_at = {"after": at - gap, "before": at + gap, "same": at}[relation]
                ops.append((frame_at, "inject", other(notify_port), script([notify_port])))
            ops.append((at, "notify", phy))
        if tie_free:
            taken = set()
            for position, op in enumerate(ops):
                when = op[0]
                while when in taken:
                    when += 1
                taken.add(when)
                ops[position] = (when,) + op[1:]
        # Impaired egress links; some fault windows open while a frame
        # bound for that link is inside the pipeline.
        impaired = []
        for port in sorted({int(rng.integers(0, n)) for _ in range(int(rng.integers(0, 3)))}):
            inbound = [
                op[0] for op in ops
                if op[1] == "inject" and port in op[3].out_ports
            ]
            specs = []
            for _ in range(int(rng.integers(1, 3))):
                if inbound and rng.random() < 0.7:
                    start = pick(*inbound) + int(rng.integers(1, PIPELINE_NS + 1))
                else:
                    start = int(rng.integers(0, HORIZON_NS))
                specs.append(LinkFaultSpec(
                    link_pattern="",
                    start_ns=start,
                    end_ns=pick(FOREVER, start + int(rng.integers(20, 101)) * US),
                    loss_prob=pick(0.0, 0.3, 0.6),
                    corrupt_prob=pick(0.0, 0.2),
                    reorder_prob=pick(0.0, 0.3),
                    reorder_jitter_ns=pick(0, 5_000, 40_000),
                    dup_prob=pick(0.0, 0.3),
                ))
            impaired.append((port, tuple(specs)))
        ops.sort(key=lambda op: op[0])
        schedules.append(Schedule(
            index=index,
            ports=tuple(ports),
            spare_port=n,
            notify_port=notify_port,
            impaired=tuple(impaired),
            ops=tuple(ops),
            tie_free=tie_free,
        ))
    return schedules


CORPUS = generate_schedules()


class ScriptedPipeline:
    """Static L2 forwarding, except for frames that carry their decision."""

    def __init__(self) -> None:
        self.mac_table: Dict[MacAddress, int] = {}

    def process(self, frame, in_port, switch):
        spec = frame.payload
        if spec.mode == "script":
            return (spec.out_ports[0], frame) if spec.out_ports else None
        port = self.mac_table.get(frame.dst)
        if port is None or port == in_port:
            return None
        return port, frame


class Sink:
    def __init__(self, rig: "Rig", port: int) -> None:
        self.rig = rig
        self.port = port

    def receive_frame(self, frame, ingress) -> None:
        self.rig.deliveries.append((self.rig.sim.now, self.port, identity(frame.payload)))


def identity(payload) -> Tuple[Any, ...]:
    if isinstance(payload, CorruptedPayload):
        return ("corrupt",) + identity(payload.original)
    if isinstance(payload, FailureNotification):
        return ("notify", payload.phy_id, payload.detected_at)
    return ("frame", getattr(payload, "tag", payload))


class Rig:
    """One switch of either kind with its nodes, driven by a schedule."""

    def __init__(self, schedule, switch_cls, mbox_cls, tie_shuffle_seed=None):
        self.sim = Simulator(tie_shuffle_seed=tie_shuffle_seed)
        self.trace = TraceRecorder()
        self.switch = switch_cls(self.sim)
        self.mbox = mbox_cls(self.sim, trace=self.trace)
        # The middlebox is here for its notification path only; nothing is
        # monitored, so its detector arms no event.
        self.mbox.install_on(self.switch)
        pipeline = self.switch.pipeline = ScriptedPipeline()
        self.deliveries = []
        for number, (bandwidth, latency) in enumerate(schedule.ports):
            self.switch.attach(Sink(self, number), bandwidth, latency, name=f"n{number}")
            pipeline.mac_table[mac_of(number)] = number
        spare = self.switch.attach(Sink(self, schedule.spare_port), name="spare")
        assert spare.number == schedule.spare_port
        self.mbox.set_notification_target(
            mac_of(schedule.notify_port), schedule.notify_port
        )
        registry = RngRegistry(seed=schedule.index)
        self.impairments: Dict[int, LinkImpairment] = {}
        for port, specs in schedule.impaired:
            link = self.switch.port(port).egress
            link.impairment = self.impairments[port] = LinkImpairment(
                specs, registry.stream(f"faults.link.{link.name}"), self.trace
            )
        for op in schedule.ops:
            self.sim.at(op[0], self.apply, *op[1:])

    def apply(self, kind, *args) -> None:
        if kind == "notify":
            self.mbox.detector.notify(args[0], self.sim.now)
            return
        in_port, spec = args
        dst = mac_of(spec.out_ports[0]) if spec.mode == "unicast" else MacAddress(0)
        frame = EthernetFrame(mac_of(in_port), dst, EtherType.IPV4, spec, spec.wire_bytes)
        if kind == "send":
            self.switch.port(in_port).ingress_link.send(frame)
        else:
            self.switch.ingress(frame, in_port)

    def run(self) -> Dict[str, Any]:
        self.sim.run()
        ports = [self.switch.port(number) for number in self.switch.port_numbers()]
        links = [
            link
            for port in ports
            for link in (port.ingress_link, port.egress)
        ]
        return {
            "deliveries": sorted(self.deliveries),
            "links": {
                link.name: (link._line_free_at, link.frames_sent, link.bytes_sent)
                for link in links
            },
            "ports": [(port.number, port.frames_in, port.frames_out) for port in ports],
            "switch": (self.switch.frames_processed, self.switch.frames_dropped),
            "notifications_sent": self.mbox.stats.notifications_sent,
            "impairments": {
                port: asdict(impairment.stats)
                for port, impairment in self.impairments.items()
            },
            "trace": [
                (event.time, event.category, sorted(event.fields.items()))
                for event in self.trace.events()
            ],
        }


def tie_free(outcome):
    """An outcome without what tie order legitimately decides: which of
    two frames that became ready in the same nanosecond a link serialized
    first. Arrival instants and arrived frames are compared separately."""
    return {
        **outcome,
        "deliveries": (
            sorted((at, port) for at, port, _ in outcome["deliveries"]),
            sorted((port, frame) for _, port, frame in outcome["deliveries"]),
        ),
        "trace": sorted(outcome["trace"]),
    }


def run_old(schedule, tie_shuffle_seed=None):
    return Rig(schedule, EgressEventSwitch, EgressEventMiddlebox, tie_shuffle_seed).run()


def run_new(schedule, tie_shuffle_seed=None):
    return Rig(schedule, Switch, FronthaulMiddlebox, tie_shuffle_seed).run()


@pytest.mark.parametrize("schedule", CORPUS, ids=lambda s: f"s{s.index}")
def test_fold_matches_egress_event_switch(schedule):
    old = run_old(schedule)
    assert run_new(schedule) == old
    assert old["deliveries"], "schedule delivered nothing"
    if schedule.tie_free:
        for seed in SHUFFLE_SEEDS:
            shuffled = tie_free(run_new(schedule, seed))
            assert shuffled == tie_free(run_old(schedule, seed))
            # Without ties the shuffled run is the FIFO run.
            assert shuffled == tie_free(old)


def test_corpus_reaches_the_cases_it_names(monkeypatch):
    """The generator's shape claims, checked on what the fixture did."""
    saw = dict.fromkeys(
        ("queued", "dropped", "same_instant", "lost",
         "duplicated", "reordered", "corrupted", "window_opens_mid_flight",
         "notify_inside_frame_window", "frame_inside_notify_window",
         "to_spare_port"), 0
    )
    real_send = Link.send

    def counting_send(link, frame, ready_at=None):
        # The fixture's ports transmit at the ready instant itself.
        if link.name.startswith("switch->") and link._line_free_at > link.sim.now:
            saw["queued"] += 1
        return real_send(link, frame, ready_at)

    monkeypatch.setattr(Link, "send", counting_send)
    for schedule in CORPUS:
        outcome = run_old(schedule)
        frames = [op for op in schedule.ops if op[1] != "notify"]
        injects = [op for op in frames if op[1] == "inject"]
        to_notify_port = [
            op[0] for op in injects if schedule.notify_port in op[3].out_ports
        ]
        instants = [op[0] for op in schedule.ops]
        saw["same_instant"] += len(set(instants)) < len(instants)
        saw["dropped"] += outcome["switch"][1] > 0
        saw["to_spare_port"] += any(
            op[3].out_ports == (schedule.spare_port,) for op in frames
        )
        for stats in outcome["impairments"].values():
            saw["lost"] += stats["dropped"] > 0
            saw["duplicated"] += stats["duplicated"] > 0
            saw["reordered"] += stats["reordered"] > 0
            saw["corrupted"] += stats["corrupted"] > 0
        for port, specs in schedule.impaired:
            saw["window_opens_mid_flight"] += any(
                op[0] < spec.start_ns <= op[0] + PIPELINE_NS
                for spec in specs for op in injects if port in op[3].out_ports
            )
        for op in schedule.ops:
            if op[1] == "notify":
                saw["notify_inside_frame_window"] += any(
                    at < op[0] < at + PIPELINE_NS for at in to_notify_port
                )
                saw["frame_inside_notify_window"] += any(
                    op[0] < at < op[0] + PIPELINE_NS for at in to_notify_port
                )
    assert all(saw.values()), saw


# ----------------------------------------------------------------------
# Mutants of the live code
# ----------------------------------------------------------------------
MUTANTS = {
    # The notification rides an event of its own to the egress link, so a
    # frame that entered the switch after it can reach the link first.
    "notification_on_its_own_event": (
        FronthaulMiddlebox,
        "_on_detected",
        "self._switch.port(port).transmit(notification)",
        "out = self._switch.port(port); out.frames_out += 1; "
        "self.sim.schedule(self._switch.pipeline_latency_ns, out.egress.send, notification)",
    ),
    # A busy line forgets when the frame becomes ready.
    "ready_at_ignored_when_line_busy": (
        Link,
        "send",
        "start = ready_at\n",
        "start = ready_at if self._line_free_at <= start else start\n",
    ),
    # A frame the pipeline drops (the stray frames that name no port)
    # goes uncounted: a decision is one egress port or None, so this is
    # where a dropped frame lives.
    "drop_not_counted": (
        Switch,
        "ingress",
        "self.frames_dropped += 1",
        "pass",
    ),
    # The impairment hook runs at ingress, before the frame is at the link.
    "impaired_link_not_deferred": (
        Link,
        "send",
        "if impairment is not None and ready_at >= impairment.active_from_ns:",
        "if False:",
    ),
}


class TestMutantsAreCaught:
    def test_unmutated_code_passes_the_same_loop(self):
        assert self.caught() == 0

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant(self, name, monkeypatch):
        owner, attribute, old, new = MUTANTS[name]
        monkeypatch.setattr(
            owner, attribute, mutated(getattr(owner, attribute), old, new)
        )
        assert self.caught() > 0, f"no schedule tells {name} from the fixture"

    @staticmethod
    def caught() -> int:
        return sum(run_new(schedule) != run_old(schedule) for schedule in CORPUS)
