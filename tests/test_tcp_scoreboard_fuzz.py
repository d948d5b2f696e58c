"""Model-based differential test for the TCP SACK/RACK scoreboard.

:mod:`repro.transport.tcp` keeps its scoreboard in ordered structures (an
ACK costs what it changed); the whole-window-scan sender and receiver it
replaced live on as ``tests/tcp_scan.py``. Here both are driven through
the same generated pipe schedules — burst loss at full window, HARQ-style
late originals, lost retransmissions, reordered / duplicated / lost ACKs,
RTOs — and everything observable must be **equal**: every packet either
end emits, the congestion state and the scoreboard sets after every ACK,
final stats and goodput bins. Schedules are drawn from a reserved
``perf.*`` RngRegistry stream (seed ``CORPUS_SEED``), like
``test_phy_kernel_fuzz.py``; a fate is a function of the transmission
index, the segment and the clock, so two senders that behave alike see
the same pipe.

The last class is a structural guard (the ``sys.settrace`` idiom of
``test_phy_kernel_fuzz.py``): the Python lines one ``on_ack`` / one
``on_segment`` executes do not depend on the flight size.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, List, Tuple

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS, US
from repro.transport import tcp as tcp_module
from repro.transport.packet import FlowDirection
from repro.transport.tcp import MSS_BYTES as MSS, TcpReceiver, TcpSender
from tests.corpora import CORPUS_SEED
from tests.tcp_scan import ScanTcpReceiver, ScanTcpSender
from tests.test_phy_kernel_fuzz import _python_lines_executed

SCHEDULES = 208
#: The sender opens at 1 ms so that no original carries ``ts_echo == 0``
#: (which marks a retransmission, Karn's algorithm).
START_NS = 1 * MS
RUN_CAP_NS = 4_000 * MS

_NO_DRAWS = (1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class Schedule:
    """One generated pipe: shape, fault times and per-transmission draws."""

    index: int
    #: ``RECEIVE_WINDOW_SEGMENTS`` and the initial cwnd: the flight fills
    #: to this many segments before the burst.
    window: int
    one_way_ns: int
    #: The burst: this many consecutive data transmissions from
    #: ``burst_at`` on are dropped — or, a ``late_share`` of them,
    #: delivered 50-120 ms late (a HARQ-recovered original arriving after
    #: RACK gave up on it).
    burst_at: int
    burst_len: int
    late_share: float
    #: Every transmission of the burst's first seq is dropped this long
    #: (the front hole outlives the RTO while SACKs keep arriving).
    curse_ns: int
    #: Both directions dead this long from the burst on.
    blackout_ns: int
    #: Stop once this many data segments were transmitted.
    target: int
    p_loss: float
    p_retx_loss: float
    p_reorder: float
    p_dup: float
    p_ack_loss: float
    p_ack_reorder: float
    p_ack_dup: float
    #: Four uniform draws per data transmission / per ACK, by index.
    data_draws: Tuple[Tuple[float, ...], ...] = field(repr=False)
    ack_draws: Tuple[Tuple[float, ...], ...] = field(repr=False)


def generate_schedules(count: int = SCHEDULES) -> List[Schedule]:
    rng = RngRegistry(CORPUS_SEED).stream("perf.tcp_scoreboard_fuzz")

    def pick(*options):
        return options[int(rng.integers(0, len(options)))]

    schedules = []
    for index in range(count):
        if index < 2:
            window = (64, 2500)[index]  # both ends of the range, always
        elif index % 52 == 0:
            window = int(rng.integers(1000, 2501))
        elif index % 26 == 6:
            window = int(rng.integers(400, 1000))
        else:
            window = int(rng.integers(64, 400))
        burst_at = window + 20 + int(rng.integers(0, window // 2))
        burst_len = int(rng.integers(50, 401))
        small = window <= 200
        # The two fixed-window schedules reach the burst with cwnd intact.
        clean = 0.0 if index < 2 else 1.0
        target = burst_at + burst_len + window + 200
        schedules.append(Schedule(
            index=index,
            window=window,
            one_way_ns=int(rng.integers(3, 16)) * MS,
            burst_at=burst_at,
            burst_len=burst_len,
            late_share=pick(0.0, 0.0, 0.1, 0.3),
            curse_ns=260 * MS if small and index % 7 == 3 else 0,
            blackout_ns=320 * MS if small and index % 7 == 5 else 0,
            target=target,
            p_loss=clean * pick(0.0, 0.003, 0.01, 0.03),
            p_retx_loss=pick(0.0, 0.1, 0.3),
            p_reorder=clean * pick(0.0, 0.02, 0.1),
            p_dup=pick(0.0, 0.01),
            p_ack_loss=pick(0.0, 0.01, 0.05),
            p_ack_reorder=pick(0.0, 0.05, 0.2),
            p_ack_dup=pick(0.0, 0.01),
            data_draws=tuple(map(tuple, rng.random((target + 64, 4)).tolist())),
            ack_draws=tuple(map(tuple, rng.random((2 * target, 4)).tolist())),
        ))
    return schedules


def _sacks_a_lost_segment(blocks, lost) -> bool:
    """Whether an ACK's SACK blocks cover a seq the sender has marked
    lost: the lost-then-SACKed edge, read before the ACK clears it."""
    return any(start <= seq < end for start, end in blocks for seq in lost)


class Pipe:
    """One sender/receiver pair of either implementation on a schedule.

    ``log`` holds every emitted packet as ``(time, seq, length, ack,
    ts_echo, sack_blocks)``, ``states`` the sender's congestion state and
    scoreboard after every ACK (the sets as size + order-free hash: a
    2,500-segment window makes copies of them the dominant cost), and
    ``hits`` counts the edges the corpus must reach.
    """

    def __init__(self, schedule: Schedule, sender_cls: Any, receiver_cls: Any) -> None:
        self.schedule = schedule
        self.sim = Simulator()
        with self.window():
            self.sender = sender_cls(
                self.sim, "fuzz", 1, 1, FlowDirection.DOWNLINK,
                transmit=self._data_out,
            )
        self.receiver = receiver_cls(
            self.sim, "fuzz", 1, 1, FlowDirection.UPLINK,
            transmit_ack=self._ack_out,
        )
        self.log: List[tuple] = []
        self.states: List[tuple] = []
        self.hits: Counter = Counter()
        self.data_sent = 0
        self.acks_sent = 0
        self.cursed_seq = -1
        self.cursed_until = 0
        self.blackout_until = 0
        #: Hooks for the structural guard: called around each delivery.
        self.around_ack = lambda deliver: deliver()
        self.around_segment = lambda deliver: deliver()
        fire_rto = self.sender._on_rto

        def on_rto() -> None:
            sender = self.sender
            if sender._running and sender.flight_size and sender._sacked:
                self.hits["rto_with_scoreboard"] += 1
            fire_rto()

        # _arm_rto looks the callback up on the instance.
        self.sender._on_rto = on_rto

    # -- the wire ----------------------------------------------------------
    def _data_out(self, packet: Any) -> None:
        s, sim, segment = self.schedule, self.sim, packet.payload
        n = self.data_sent
        self.data_sent += 1
        self.log.append((
            sim.now, segment.seq, segment.length, segment.ack,
            segment.ts_echo, segment.sack_blocks,
        ))
        u = s.data_draws[n] if n < len(s.data_draws) else _NO_DRAWS
        retransmission = segment.ts_echo == 0
        if n == s.burst_at:
            self.hits["flight_at_burst"] = len(self.sender._flight)
            self.cursed_seq = segment.seq
            self.cursed_until = sim.now + s.curse_ns
            self.blackout_until = sim.now + s.blackout_ns
        if sim.now < self.blackout_until:
            return
        if segment.seq == self.cursed_seq and sim.now < self.cursed_until:
            self.hits["retransmission_lost"] += retransmission
            return
        delay = s.one_way_ns
        if s.burst_at <= n < s.burst_at + s.burst_len:
            if u[3] >= s.late_share:
                return
            delay += 50 * MS + int(u[1] * 70 * MS)
        elif u[0] < (s.p_retx_loss if retransmission else s.p_loss):
            self.hits["retransmission_lost"] += retransmission
            return
        elif u[1] < s.p_reorder:
            delay += 2 * MS + int(u[2] * 8 * MS)  # A HARQ round or several.
        sim.schedule(delay, self._deliver_segment, segment)
        if u[2] > 1.0 - s.p_dup:
            sim.schedule(delay + 300 * US + int(u[3] * 4 * MS),
                         self._deliver_segment, segment)

    def _ack_out(self, packet: Any) -> None:
        s, sim, ack = self.schedule, self.sim, packet.payload
        m = self.acks_sent
        self.acks_sent += 1
        self.log.append((
            sim.now, ack.seq, ack.length, ack.ack, ack.ts_echo, ack.sack_blocks,
        ))
        held = getattr(self.receiver, "_held", ())
        if len(held) > 4:
            self.hits["more_than_four_holes"] += 1
        u = s.ack_draws[m] if m < len(s.ack_draws) else _NO_DRAWS
        if sim.now < self.blackout_until or u[0] < s.p_ack_loss:
            return
        delay = s.one_way_ns
        if u[1] < s.p_ack_reorder:
            delay += 1 * MS + int(u[2] * 7 * MS)
        sim.schedule(delay, self._deliver_ack, ack)
        if u[3] > 1.0 - s.p_ack_dup:
            sim.schedule(delay + 200 * US + int(u[2] * 3 * MS), self._deliver_ack, ack)

    def _deliver_segment(self, segment: Any) -> None:
        self.around_segment(lambda: self.receiver.on_segment(segment))

    def _deliver_ack(self, ack: Any) -> None:
        sender = self.sender
        if ack.ack < sender.snd_una:
            self.hits["stale_ack"] += 1
        if _sacks_a_lost_segment(ack.sack_blocks, sender._lost):
            self.hits["lost_then_sacked"] += 1
        self.around_ack(lambda: sender.on_ack(ack))
        sacked, lost = sender._sacked, sender._lost
        self.states.append((
            self.sim.now, sender.cwnd, sender.ssthresh, sender.srtt_ns,
            sender.rto_ns, sender.snd_una, sender.snd_nxt,
            sender.in_fast_recovery, len(sacked), len(lost),
            hash(frozenset(sacked)) if sacked else 0,
            hash(frozenset(lost)) if lost else 0,
        ))

    # -- drive -------------------------------------------------------------
    @contextmanager
    def window(self) -> Iterator[None]:
        """The schedule's window as the initial cwnd and the receive
        window, which both implementations read off the module."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tcp_module, "INITIAL_CWND_SEGMENTS", self.schedule.window)
            patch.setattr(tcp_module, "RECEIVE_WINDOW_SEGMENTS", self.schedule.window)
            yield

    def run(self) -> "Pipe":
        with self.window():
            self.sim.run_until(START_NS)
            self.sender.start()
            while (
                self.sender.stats.segments_sent < self.schedule.target
                and self.sim.now < RUN_CAP_NS
            ):
                self.sim.run_for(5 * MS)
            self.sender.stop()
        return self


def _first_difference(ours: list, theirs: list) -> str:
    for index, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return f"record {index}: scoreboard {a!r} != scan {b!r}"
    return f"lengths differ: scoreboard {len(ours)} != scan {len(theirs)}"


def _check_scoreboard_views(sender: TcpSender) -> None:
    """The ordered views agree with the sets they index."""
    flight, sacked, lost = set(sender._flight), sender._sacked, sender._lost
    assert set(sender._unjudged) == flight - sacked - lost
    sent = list(sender._unjudged.values())
    assert sent == sorted(sent)
    assert lost <= set(sender._lost_heap)
    covered = {
        seq for start, end in sender._sack_ranges
        for seq in range(start, end, MSS) if seq >= sender.snd_una
    }
    assert covered == sacked
    assert sender._sack_ranges == sorted(sender._sack_ranges)


def _compare(schedule: Schedule, done: dict) -> Counter:
    """Run both implementations on one schedule (once: ``done`` maps
    schedule index -> result); returns the edges it reached."""
    if schedule.index in done:
        return done[schedule.index]
    new = Pipe(schedule, TcpSender, TcpReceiver)
    if schedule.window <= 96:
        # Cheap enough here to audit the views after every single ACK.
        new.around_ack = lambda deliver: (
            deliver(), _check_scoreboard_views(new.sender)
        )
    new.run()
    old = Pipe(schedule, ScanTcpSender, ScanTcpReceiver).run()
    where = f"schedule {schedule!r}"
    assert new.log == old.log, f"{where}: {_first_difference(new.log, old.log)}"
    assert new.states == old.states, (
        f"{where}: {_first_difference(new.states, old.states)}"
    )
    assert new.sender._sacked == old.sender._sacked, where
    assert new.sender._lost == old.sender._lost, where
    assert set(new.sender._flight) == set(old.sender._flight), where
    assert new.sender.stats == old.sender.stats, where
    assert new.receiver.bins == old.receiver.bins, where
    assert (
        new.receiver.rcv_nxt, new.receiver.bytes_delivered,
        new.receiver.segments_received, set(new.receiver._ooo),
    ) == (
        old.receiver.rcv_nxt, old.receiver.bytes_delivered,
        old.receiver.segments_received, set(old.receiver._ooo),
    ), where
    _check_scoreboard_views(new.sender)
    for edge in ("lost_then_sacked", "stale_ack", "rto_with_scoreboard",
                 "retransmission_lost"):
        assert new.hits[edge] == old.hits[edge], (where, edge)
    new.hits["retransmissions"] = new.sender.stats.retransmissions
    new.hits["rto_events"] = new.sender.stats.rto_events
    done[schedule.index] = new.hits
    return new.hits


@pytest.fixture(scope="module")
def schedules():
    return generate_schedules()


@pytest.fixture(scope="module")
def done():
    """Results of the equality runs, shared with the edge census."""
    return {}


class TestScoreboardMatchesScan:
    #: Eight slices of the one corpus, so a failure names a small set.
    @pytest.mark.parametrize("part", range(8))
    def test_every_schedule_is_packet_and_state_identical(self, schedules, done, part):
        for schedule in schedules[part::8]:
            _compare(schedule, done)

    def test_corpus_reaches_the_edges(self, schedules, done):
        """The properties above are only worth what the corpus reaches:
        windows at both ends of the range with the burst landing on a
        full flight, and each named edge in several schedules."""
        assert len(schedules) >= 200
        assert min(s.window for s in schedules) == 64
        assert max(s.window for s in schedules) == 2500
        assert sum(s.window >= 1000 for s in schedules) >= 4
        assert all(50 <= s.burst_len <= 400 for s in schedules)
        reached = Counter()
        for schedule in schedules:
            hits = _compare(schedule, done)
            for edge, count in hits.items():
                reached[edge] += bool(count)
            # The burst lands on a full window (random loss before it
            # may have halved cwnd, hence not every schedule).
            reached["full_flight"] += hits["flight_at_burst"] >= schedule.window
            reached["full_flight_2000"] += hits["flight_at_burst"] >= 2000
        assert reached["full_flight"] >= 100
        assert reached["full_flight_2000"] >= 1
        assert reached["lost_then_sacked"] >= 5
        assert reached["retransmission_lost"] >= 10
        assert reached["rto_with_scoreboard"] >= 2
        assert reached["rto_events"] >= 4
        assert reached["stale_ack"] >= 10
        assert reached["more_than_four_holes"] >= 10


# ----------------------------------------------------------------------
# Structural guard: cost shape, not wall time.
# ----------------------------------------------------------------------
def _burst_schedule(window: int, burst_len: int) -> Schedule:
    """A clean pipe with one burst on a full flight and nothing else."""
    burst_at = 2 * window
    target = burst_at + burst_len + 2 * window
    return Schedule(
        index=-1, window=window, one_way_ns=10 * MS, burst_at=burst_at,
        burst_len=burst_len, late_share=0.0, curse_ns=0, blackout_ns=0,
        target=target, p_loss=0.0, p_retx_loss=0.0, p_reorder=0.0, p_dup=0.0,
        p_ack_loss=0.0, p_ack_reorder=0.0, p_ack_dup=0.0,
        data_draws=(), ack_draws=(),
    )


def _line_profile(sender_cls, receiver_cls, filename, window, burst_len):
    """Per-call line counts of ``on_ack`` / ``on_segment`` in steady state
    (full flight, before the burst) and in recovery (``_lost`` non-empty
    at the sender, a hole open at the receiver), each call keyed by how
    many segments' state it changed."""
    pipe = Pipe(_burst_schedule(window, burst_len), sender_cls, receiver_cls)
    sender = pipe.sender
    acks = {"steady": [], "recovery": []}
    segments = {"steady": [], "recovery": []}

    def phase():
        if sender._lost:
            return "recovery"
        if len(sender._flight) == window and pipe.data_sent < pipe.schedule.burst_at:
            return "steady"
        return None

    def around_ack(deliver):
        now = phase()
        before = (
            sender.snd_una, len(sender._sacked), len(sender._lost),
            sender.stats.segments_sent,
        )
        lines = _python_lines_executed(filename, deliver)
        changed = (
            (sender.snd_una - before[0]) // MSS
            + abs(len(sender._sacked) - before[1])
            + abs(len(sender._lost) - before[2])
            + sender.stats.segments_sent - before[3]
        )
        if now is not None and now == phase():
            acks[now].append((lines, changed))

    def around_segment(deliver):
        held = len(pipe.receiver._ooo)
        now = "recovery" if held else phase()
        lines = _python_lines_executed(filename, deliver)
        if now is not None:
            segments[now].append((lines, abs(len(pipe.receiver._ooo) - held)))

    pipe.around_ack = around_ack
    pipe.around_segment = around_segment
    pipe.run()
    # SACK/RACK repairs the burst alone: each lost segment resent once.
    assert (sender.stats.retransmissions, sender.stats.rto_events) == (burst_len, 0)
    return acks, segments


class TestCostIsIndependentOfFlight:
    FLIGHTS = (64, 2048)

    @pytest.fixture(scope="class")
    def profiles(self):
        filename = tcp_module.__file__
        # A 300-segment burst at flight 2,048 (300 retransmissions, no
        # RTO); at flight 64 the largest burst that still leaves SACKs
        # flowing.
        return {
            flight: _line_profile(
                TcpSender, TcpReceiver, filename, flight, min(300, flight // 2)
            )
            for flight in self.FLIGHTS
        }

    def test_steady_state_lines_do_not_depend_on_flight(self, profiles):
        """An in-order ACK that releases one new segment, and the
        in-order segment behind it, run the same lines at both flights."""
        per_flight = []
        for flight in self.FLIGHTS:
            acks, segments = profiles[flight]
            assert len(acks["steady"]) > flight // 2
            ack_lines = {lines for lines, changed in acks["steady"] if changed == 2}
            segment_lines = {lines for lines, _ in segments["steady"]}
            assert len(ack_lines) == 1 and len(segment_lines) == 1
            per_flight.append((ack_lines.pop(), segment_lines.pop()))
        assert per_flight[0] == per_flight[1]
        assert per_flight[0][0] <= 110 and per_flight[0][1] <= 50

    def test_recovery_lines_follow_what_changed_not_the_flight(self, profiles):
        """Mid-recovery every ``on_ack`` is bounded by a constant plus a
        constant per segment it newly acked, SACKed, marked lost or sent —
        the same two constants at flight 64 and 2,048 — and ACKs that
        changed equally much cost the same +/- a constant at both."""
        by_change = {}
        for flight in self.FLIGHTS:
            acks, segments = profiles[flight]
            assert len(acks["recovery"]) >= flight // 4
            for lines, changed in acks["recovery"]:
                assert lines <= 60 + 30 * changed, (flight, lines, changed)
                by_change.setdefault(changed, {}).setdefault(flight, []).append(lines)
            for lines, changed in segments["recovery"]:
                assert lines <= 50 + 5 * changed, (flight, lines, changed)
        common = [c for c, seen in by_change.items() if len(seen) == 2]
        assert len(common) >= 2
        for changed in common:
            low, high = (by_change[changed][f] for f in self.FLIGHTS)
            assert abs(max(high) - max(low)) <= 20, (changed, low, high)

    def test_the_scan_fixture_fails_the_same_bound(self):
        """The guard can tell the two designs apart: the fixture's steady
        state ACK already walks the flight."""
        import tests.tcp_scan as scan

        acks, _ = _line_profile(
            ScanTcpSender, ScanTcpReceiver, scan.__file__, 512, 100
        )
        assert min(lines for lines, _ in acks["steady"]) > 512

    def test_no_whole_window_scan_left_in_src(self):
        """``git grep "list(self._flight)\\|sorted(self._ooo)\\|min(self._lost)"
        src/`` is empty."""
        scans = ("list(self._flight)", "sorted(self._ooo)", "min(self._lost)")
        src = Path(__file__).resolve().parents[1] / "src"
        found = [
            f"{path}: {scan}"
            for path in sorted(src.rglob("*.py"))
            for scan in scans if scan in path.read_text()
        ]
        assert found == []
