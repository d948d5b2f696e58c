"""Checkpoint/restore, soak, and scenario-forking tests.

The continuous-operation contract under test (DESIGN.md §13):

* ``restore(checkpoint(t))`` replays **bit-identically** — the restored
  run's canonical trace digest equals the uninterrupted run's, for the
  golden perf scenarios and for checkpoints captured *mid-recovery* in
  every chaos scenario class;
* soak runs survive eviction and crash-resume with the same rolling
  digest;
* forked branches from a warm base are digest-identical to cold runs at
  any ``--jobs``;
* the recorded ``BENCH_soak.json`` baseline gates all of it via
  ``python -m repro soak --check --quick`` (tier-1).
"""

import copyreg
import hashlib
import json
import pickle
import shutil
from collections import Counter

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointMeta,
    SnapshotError,
    iter_object_graph,
    source_fingerprint,
)
from repro.checkpoint.fork import ensure_fork_bases, fork_key, forked_sweep
from repro.checkpoint.snapshot import PACKAGE_DIR
from repro.checkpoint.soak import main as soak_main
from repro.checkpoint.soak import run_soak
from repro.core.failure_detector import FailureDetector
from repro.faults.campaign import (
    arm_plan,
    build_probe_harness,
    drive_to,
    judge_execution,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ProcessFaultSpec
from repro.faults.scenarios import FAULT_AT_NS, RUN_END_NS, scenario_by_name
from repro.faults.soak import SoakConfig
from repro.fleet import FleetConfig, build_fleet, fleet_digest
from repro.fleet.pool import StandbyPool
from repro.parallel import run_shards
from repro.sim.engine import Simulator
from repro.sim.units import MS

#: Mid-recovery capture point: inside every standard scenario's fault
#: window (faults land at 550 ms, recovery completes by 850 ms).
MID_RECOVERY_NS = 600 * MS


# ----------------------------------------------------------------------
# Top-level shard worker (picklable) for the jobs-swept matrix test.
# ----------------------------------------------------------------------
def _mid_recovery_verify(payload):
    """Checkpoint one scenario mid-recovery; finish both timelines.

    Returns the continued and restored runs — the caller asserts their
    records are identical (and the digest matches the recorded chaos
    baseline). The plan is armed before the capture, so the two agree on
    every counter too, link impairments included.
    """
    name, seed = payload
    scenario = scenario_by_name()[name]
    harness = build_probe_harness(
        seed, num_phy_servers=scenario.num_phy_servers
    )
    arm_plan(harness, scenario.plan)
    drive_to(harness, MID_RECOVERY_NS)
    checkpoint = Checkpoint.capture(harness, label=f"mid-recovery {name}")
    drive_to(harness, RUN_END_NS)
    continued = judge_execution(scenario, seed, harness)
    restored = checkpoint.restore()
    drive_to(restored, RUN_END_NS)
    return {
        "continued": continued,
        "restored": judge_execution(scenario, seed, restored),
        "checkpoint_sim_ns": checkpoint.meta.sim_now_ns,
    }


def _census(root):
    """Instances per ``repro`` class reachable from ``root``."""
    return Counter(
        f"{type(obj).__module__}.{type(obj).__qualname__}"
        for obj in iter_object_graph(root)
        if type(obj).__module__.startswith("repro.")
    )


def _instances(root, cls):
    return sum(isinstance(obj, cls) for obj in iter_object_graph(root))


def _chaos_baseline():
    from repro.faults.campaign import recorded_digests

    digests = recorded_digests()
    assert digests, "benchmarks/BENCH_chaos.json missing - record it first"
    return digests


class TestCheckpointPrimitives:
    @pytest.fixture(scope="class")
    def warm(self):
        harness = build_probe_harness(1)
        drive_to(harness, 50 * MS)
        return harness

    def test_capture_verifies_and_stamps_meta(self, warm):
        checkpoint = Checkpoint.capture(warm, label="warm-50ms")
        assert checkpoint.meta.label == "warm-50ms"
        assert checkpoint.meta.sim_now_ns == 50 * MS
        assert checkpoint.meta.events_processed == warm.cell.sim.events_processed
        # The restored graph holds the captured graph's repro objects.
        assert _census(checkpoint.restore()) == _census(warm)

    def test_save_load_round_trip(self, warm, tmp_path):
        checkpoint = Checkpoint.capture(warm, label="roundtrip")
        path = tmp_path / "warm.ckpt"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.meta == checkpoint.meta
        assert loaded.payload == checkpoint.payload
        restored = loaded.restore()
        assert restored.cell.sim.now == warm.cell.sim.now
        assert restored.cell.trace.digest() == warm.cell.trace.digest()

    def test_corrupt_payload_rejected(self, warm):
        checkpoint = Checkpoint.capture(warm, label="tamper")
        tampered = Checkpoint(
            meta=checkpoint.meta,
            payload=checkpoint.payload[:-1] + b"\x00",
        )
        with pytest.raises(SnapshotError, match="sha256|hash|digest"):
            tampered.restore()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.ckpt"
        path.write_bytes(b"definitely not the magic header\n")
        with pytest.raises(SnapshotError):
            Checkpoint.load(path)

    @pytest.mark.parametrize("defect, header", [
        ("no newline ends it", b'{"schema": 1}'),
        ("not JSON", b"schema=1\npayload"),
        ("not UTF-8", b"\xff\xfe\npayload"),
        ("no 'label' field", b'{"schema": 1, "sim_now_ns": 0}\npayload'),
    ])
    def test_malformed_header_is_one_error_and_exit_2(self, tmp_path, capsys, defect, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"repro-ckpt/1\n" + header)
        with pytest.raises(SnapshotError, match=f"malformed header: {defect}"):
            Checkpoint.load(path)
        assert soak_main(["--resume", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro soak: cannot resume: {path}: malformed header: {defect}")

    def test_resume_of_a_non_soak_checkpoint_is_one_error_and_exit_2(
        self, warm, tmp_path, capsys
    ):
        path = tmp_path / "probe.ckpt"
        Checkpoint.capture(warm, label="not a soak").save(path)
        assert soak_main(["--resume", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro soak: cannot resume: {path} is not a soak checkpoint"
        ]

    def test_two_simulators_rejected(self, warm):
        other = build_probe_harness(2)
        with pytest.raises(SnapshotError, match="[Ss]imulator"):
            Checkpoint.capture([warm, other], label="twins")

    def test_graph_walk_reaches_one_simulator(self, warm):
        restored = Checkpoint.capture(warm).restore()
        assert _instances(restored, Simulator) == 1

    def test_restore_rechecks_the_event_count(self, warm):
        checkpoint = Checkpoint.capture(warm)
        meta = checkpoint.meta.as_dict()
        meta["events_processed"] += 1
        shifted = Checkpoint(
            meta=CheckpointMeta.from_dict(meta), payload=checkpoint.payload
        )
        with pytest.raises(SnapshotError, match="events processed"):
            shifted.restore()


class TestSourceMismatch:
    """A checkpoint file written by another source tree fails with one
    specific error wherever it is picked up: replay was proven only for
    the tree that wrote it."""

    @pytest.fixture(scope="class")
    def warm(self):
        harness = build_probe_harness(1)
        drive_to(harness, 5 * MS)
        return harness

    @staticmethod
    def _foreign(warm, path, source_sha256):
        """A file as another tree wrote it (``None``: as a tree older than
        the field wrote it)."""
        checkpoint = Checkpoint.capture(warm)
        header = checkpoint.meta.as_dict()
        if source_sha256 is None:
            del header["source_sha256"]
        else:
            header["source_sha256"] = source_sha256
        path.write_bytes(
            b"repro-ckpt/1\n" + json.dumps(header).encode() + b"\n"
            + checkpoint.payload
        )
        return path

    def test_header_carries_the_source_fingerprint(self, warm):
        fingerprint = source_fingerprint()
        assert len(fingerprint) == 64
        assert Checkpoint.capture(warm).meta.source_sha256 == fingerprint

    def test_file_from_another_tree_rejected(self, warm, tmp_path):
        path = self._foreign(warm, tmp_path / "other.ckpt", "0" * 64)
        with pytest.raises(SnapshotError, match="another source tree.*rebuild"):
            Checkpoint.load(path)

    def test_file_without_the_fingerprint_rejected(self, warm, tmp_path):
        path = self._foreign(warm, tmp_path / "old.ckpt", None)
        with pytest.raises(SnapshotError, match="another source tree.*unrecorded"):
            Checkpoint.load(path)

    def test_stale_fork_base_is_neither_reused_nor_rewritten(self, warm, tmp_path):
        scenario = scenario_by_name()["crash"]
        key = fork_key(scenario, 1)
        base = self._foreign(
            warm, tmp_path / f"base_s{key[0]}_p{key[1]}_t{key[2]}.ckpt", "0" * 64
        )
        before = base.read_bytes()
        with pytest.raises(SnapshotError, match="another source tree"):
            ensure_fork_bases([scenario], (1,), tmp_path)
        assert base.read_bytes() == before

    def test_soak_resume_of_stale_checkpoint_exits_2(self, warm, tmp_path, capsys):
        path = self._foreign(warm, tmp_path / "soak.ckpt", "0" * 64)
        assert soak_main(["--resume", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro soak: cannot resume: {path}: written by another source tree")

    def test_a_renamed_attribute_changes_the_fingerprint(self, tmp_path):
        """The renamed-attribute mutant: a copy of the package is this
        tree until one attribute is renamed in one file."""
        same, renamed = tmp_path / "same", tmp_path / "renamed"
        for copy in (same, renamed):
            shutil.copytree(
                PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
            )
        assert source_fingerprint(same) == source_fingerprint()
        detector = renamed / "core" / "failure_detector.py"
        source = detector.read_text()
        assert "self._lag" in source
        detector.write_text(source.replace("self._lag", "self._tick_lag"))
        assert source_fingerprint(renamed) != source_fingerprint()

    def test_a_moved_module_changes_the_fingerprint(self, tmp_path):
        """Paths count as well as bytes: a module moved unchanged makes
        another tree."""
        moved = tmp_path / "moved"
        shutil.copytree(
            PACKAGE_DIR, moved, ignore=shutil.ignore_patterns("__pycache__")
        )
        (moved / "sim" / "units.py").rename(moved / "sim" / "units_moved.py")
        assert source_fingerprint(moved) != source_fingerprint()

    def test_only_python_sources_count(self, tmp_path):
        """Bytecode caches and stray data files do not make another tree:
        running the code must not invalidate the files it wrote."""
        copy = tmp_path / "copy"
        shutil.copytree(PACKAGE_DIR, copy)
        (copy / "notes.txt").write_text("not a source\n")
        (copy / "sim" / "__pycache__").mkdir(exist_ok=True)
        (copy / "sim" / "__pycache__" / "stray.pyc").write_bytes(b"\0")
        assert source_fingerprint(copy) == source_fingerprint()


class TestCensusMutants:
    """The defects the retired state schema was meant to catch, each built
    in process on a ``crash`` run captured mid-recovery (DESIGN.md §7
    "Retired rules"). Every one that breaks capture, restore or replay is
    caught by a check that stays; the attribute first set outside
    ``__init__`` replays identically and is left alone on purpose."""

    @pytest.fixture(scope="class")
    def base(self):
        harness = build_probe_harness(1)
        arm_plan(harness, scenario_by_name()["crash"].plan)
        drive_to(harness, MID_RECOVERY_NS)
        return Checkpoint.capture(harness, label="census base")

    @pytest.fixture(scope="class")
    def reference(self, base):
        """The unmutated replay's digest: the recorded chaos baseline."""
        digest = self._replay(base.restore())
        assert digest == _chaos_baseline()[("crash", 1)]
        return digest

    @staticmethod
    def _replay(root):
        drive_to(root, RUN_END_NS)
        return judge_execution(scenario_by_name()["crash"], 1, root).digest

    @staticmethod
    def _reduce(cls, monkeypatch, edit):
        """Give ``cls`` a ``__reduce__`` that pickles its ``__dict__``
        after ``edit`` has changed it."""

        def __reduce__(self):
            state = dict(self.__dict__)
            edit(state)
            return (copyreg.__newobj__, (type(self),), state)

        monkeypatch.setattr(cls, "__reduce__", __reduce__)

    def test_a_lambda_callback_fails_at_capture(self, base):
        branch = base.restore()
        branch.cell.sim.at(branch.cell.sim.now + MS, lambda: None)
        with pytest.raises((AttributeError, pickle.PicklingError), match="lambda"):
            Checkpoint.capture(branch)

    def test_an_attribute_first_set_outside_init_replays_identically(
        self, base, reference
    ):
        branch = base.restore()
        branch.cell.middlebox.detector._late_attribute = 1
        restored = Checkpoint.capture(branch).restore()
        assert restored.cell.middlebox.detector._late_attribute == 1
        assert self._replay(restored) == reference

    def test_a_second_simulator_fails_at_capture(self, base):
        branch = base.restore()
        branch.cell.middlebox.detector._shadow_sim = Simulator()
        with pytest.raises(SnapshotError, match="exactly 1 Simulator, found 2"):
            Checkpoint.capture(branch)

    def test_a_sealed_payload_with_two_simulators_fails_at_restore(self, base):
        branch = base.restore()
        branch.cell.middlebox.detector._shadow_sim = Simulator()
        payload = pickle.dumps(branch, protocol=pickle.HIGHEST_PROTOCOL)
        meta = base.meta.as_dict()
        meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        sealed = Checkpoint(meta=CheckpointMeta.from_dict(meta), payload=payload)
        with pytest.raises(SnapshotError, match="exactly 1 Simulator, found 2"):
            sealed.restore()

    def test_a_root_without_a_simulator_fails_at_capture(self):
        with pytest.raises(SnapshotError, match="exactly 1 Simulator, found 0"):
            Checkpoint.capture({"not": "a run"})

    def test_a_reduce_dropping_a_field_fails_the_replay(self, base, monkeypatch):
        branch = base.restore()
        self._reduce(FailureDetector, monkeypatch, lambda state: state.pop("_lag"))
        checkpoint = Checkpoint.capture(branch)
        monkeypatch.undo()
        restored = checkpoint.restore()
        with pytest.raises(AttributeError, match="_lag"):
            drive_to(restored, RUN_END_NS)

    def test_a_reduce_resetting_a_field_diverges_the_replay(
        self, base, reference, monkeypatch
    ):
        branch = base.restore()
        self._reduce(
            FailureDetector, monkeypatch, lambda state: state.update(_ticks_applied=0)
        )
        checkpoint = Checkpoint.capture(branch)
        monkeypatch.undo()
        assert self._replay(checkpoint.restore()) != reference

    def test_a_reduce_zeroing_the_event_count_fails_the_restore_recheck(
        self, base, monkeypatch
    ):
        branch = base.restore()
        self._reduce(
            Simulator, monkeypatch, lambda state: state.update(_events_processed=0)
        )
        checkpoint = Checkpoint.capture(branch)
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match=r"events processed\) \(\d+, 0\) !="):
            checkpoint.restore()


class TestCaptureBeforeSaturationDeadline:
    """The detector evaluates its tick stream lazily, so a checkpoint
    taken between the last heartbeat and the saturation it leads to holds
    elapsed-but-unapplied ticks and a pending deadline event. The restored
    run must detect on the same tick as the uninterrupted one."""

    CAPTURE_NS = FAULT_AT_NS + 200_000

    def test_restored_run_detects_on_the_same_tick(self):
        scenario = scenario_by_name()["crash"]
        harness = build_probe_harness(1)
        arm_plan(harness, scenario.plan)
        drive_to(harness, self.CAPTURE_NS)
        detector = harness.cell.middlebox.detector
        assert harness.cell.trace.count("mbox.failure_detected") == 0
        deadline = detector._deadline
        assert deadline.pending and deadline.time > self.CAPTURE_NS
        period = detector.config.tick_period_ns
        assert detector._ticks_applied < self.CAPTURE_NS // period + 1

        checkpoint = Checkpoint.capture(harness, label="before saturation")
        drive_to(harness, RUN_END_NS)
        restored = checkpoint.restore()
        twin = restored.cell.middlebox.detector
        assert twin._deadline.pending and twin._deadline.time == deadline.time
        drive_to(restored, RUN_END_NS)

        detected = harness.cell.trace.events("mbox.failure_detected")
        assert len(detected) == 1
        assert FAULT_AT_NS < detected[0].time <= FAULT_AT_NS + 459_000
        assert detected[0].time % period == 0
        assert [e.time for e in restored.cell.trace.events("mbox.failure_detected")] == [
            detected[0].time
        ]
        assert restored.cell.trace.digest() == harness.cell.trace.digest()
        assert harness.cell.trace.digest() == _chaos_baseline()[("crash", 1)]
        assert twin.stats == detector.stats


class TestCaptureInsideSwitchPipelineWindow:
    """A forwarded frame costs no event while it crosses the switch: from
    ingress until the pipeline latency has passed it exists only as its
    egress link's pending delivery, whose serialization starts at a ready
    instant still in the future. A checkpoint taken inside that window —
    for an ordinary frame, and for the failure notification between the
    detection and its arrival at Orion — must restore to a run that ends
    on the uninterrupted (chaos-baseline) digest."""

    @staticmethod
    def _harness():
        harness = build_probe_harness(1)
        arm_plan(harness, scenario_by_name()["crash"].plan)
        return harness

    @staticmethod
    def _in_the_window(harness, ingress_ns):
        """Advance to the middle of the window opened at ``ingress_ns``;
        some egress line is already claimed past the window's end."""
        switch = harness.cell.switch
        window_end = ingress_ns + switch.pipeline_latency_ns
        drive_to(harness, ingress_ns + switch.pipeline_latency_ns // 2)
        assert any(
            switch.port(number).egress._line_free_at > window_end
            for number in switch.port_numbers()
        )

    @staticmethod
    def _both_end_on_the_golden_digest(harness, label):
        checkpoint = Checkpoint.capture(harness, label=label)
        drive_to(harness, RUN_END_NS)
        restored = checkpoint.restore()
        drive_to(restored, RUN_END_NS)
        assert restored.cell.trace.digest() == harness.cell.trace.digest()
        assert harness.cell.trace.digest() == _chaos_baseline()[("crash", 1)]
        return restored

    def test_frame_inside_the_window(self):
        harness = self._harness()
        drive_to(harness, FAULT_AT_NS - 10 * MS)
        sim, switch = harness.cell.sim, harness.cell.switch
        forwarded = switch.frames_processed - switch.frames_dropped
        while switch.frames_processed - switch.frames_dropped == forwarded:
            assert sim.step()
        self._in_the_window(harness, sim.now)
        self._both_end_on_the_golden_digest(harness, "frame inside the switch")

    def test_notification_between_detection_and_arrival(self):
        harness = self._harness()
        trace, orion = harness.cell.trace, harness.cell.l2_orion
        drive_to(harness, FAULT_AT_NS)
        while not trace.count("mbox.failure_detected"):
            assert harness.cell.sim.step()
        detected_at = trace.last("mbox.failure_detected").time
        assert detected_at == harness.cell.sim.now
        self._in_the_window(harness, detected_at)
        assert harness.cell.middlebox.stats.notifications_sent == 1
        assert orion.stats.failovers_handled == 0
        restored = self._both_end_on_the_golden_digest(
            harness, "notification inside the switch"
        )
        assert restored.cell.l2_orion.stats.failovers_handled == 1
        assert orion.stats.failovers_handled == 1


@pytest.mark.slow
class TestCaptureMidTcpRecovery:
    """The TCP scoreboard is several ordered views of one flight (time-
    ordered unjudged queue, lost heap with lazily deleted entries, applied
    SACK ranges). A checkpoint taken while all of them are populated —
    the failover's burst marked lost, only the front hole retransmitted —
    must restore to a run that ends on the uninterrupted digest."""

    CAPTURE_S = 0.60  # Fault at 0.46 s; RACK gives up on the burst ~0.59 s.

    def test_restored_bulk_tcp_run_ends_on_the_same_digest(self):
        from repro.perf.scenarios import run_fig10_tcp_dl_cell
        from repro.sim.units import run_until_ns, seconds
        from tests.test_perf_digests import GOLDEN_DIGESTS

        def sender_of(cell):
            return cell.ue(1).dl_sink.deliver.__self__.sender

        captured = {}

        def capture(cell):
            sender = sender_of(cell)
            assert sender.in_fast_recovery
            assert len(sender._sacked) > 100 and len(sender._lost) > 100
            assert len(sender._lost_heap) > len(sender._lost)  # a stale entry
            assert sender._unjudged and len(sender._sack_ranges) > 1
            captured["checkpoint"] = Checkpoint.capture(cell, label="mid TCP recovery")
            captured["scoreboard"] = (
                set(sender._sacked), set(sender._lost), list(sender._lost_heap),
                list(sender._unjudged.items()), list(sender._sack_ranges),
            )

        cell = run_fig10_tcp_dl_cell(pause_at_s=self.CAPTURE_S, on_pause=capture)
        assert cell.trace.digest() == GOLDEN_DIGESTS["fig10_tcp_dl"]
        restored = captured["checkpoint"].restore()
        twin = sender_of(restored)
        assert (
            twin._sacked, twin._lost, twin._lost_heap,
            list(twin._unjudged.items()), twin._sack_ranges,
        ) == captured["scoreboard"]
        run_until_ns(restored, seconds(0.85))
        assert restored.trace.digest() == cell.trace.digest()
        assert sender_of(restored).stats == sender_of(cell).stats
        assert sender_of(cell).stats.retransmissions > 300


@pytest.mark.slow
class TestMidRecoveryCheckpoints:
    """Satellite 3: every chaos scenario class checkpoints mid-recovery
    and replays bit-identically, at --jobs 1 and 2."""

    def test_all_scenario_classes_replay_identically_jobs2(self):
        baseline = _chaos_baseline()
        names = sorted(scenario_by_name())
        outcome = run_shards(
            _mid_recovery_verify,
            [(name, (name, 1)) for name in names],
            jobs=2,
        )
        for name, result in zip(outcome.keys, outcome.values()):
            continued, restored = result["continued"], result["restored"]
            assert result["checkpoint_sim_ns"] == MID_RECOVERY_NS
            assert restored.as_dict() == continued.as_dict(), (
                f"{name}: the restored run's record diverged from the "
                "uninterrupted run's"
            )
            assert continued.passed, f"{name}: recovery invariants failed"
            assert continued.digest == baseline[(name, 1)], (
                f"{name}: run diverged from the recorded chaos baseline"
            )

    def test_serial_pass_matches_pooled_on_subset(self):
        names = ["cmd_drop", "crash_restart"]
        serial = run_shards(
            _mid_recovery_verify, [(n, (n, 1)) for n in names], jobs=1
        )
        pooled = run_shards(
            _mid_recovery_verify, [(n, (n, 1)) for n in names], jobs=2
        )
        assert serial.values() == pooled.values()


@pytest.mark.slow
class TestGoldenRestoreIdentity:
    """The four golden digest scenarios restore to their golden values."""

    @pytest.mark.parametrize(
        "name,runner_name,duration_s",
        [
            ("fig9", "run_fig9_cell", 1.2),
            ("fig10_smoke", "run_fig10_smoke_cell", 1.0),
        ],
    )
    def test_figure_scenarios(self, name, runner_name, duration_s):
        from repro.perf import scenarios as perf_scenarios
        from repro.sim.units import run_until_ns, seconds
        from tests.test_perf_digests import GOLDEN_DIGESTS

        captured = {}
        runner = getattr(perf_scenarios, runner_name)
        cell = runner(
            pause_at_s=0.7,
            on_pause=lambda c: captured.update(
                checkpoint=Checkpoint.capture(c, label=f"{name}@0.7s")
            ),
        )
        golden = GOLDEN_DIGESTS[name]
        assert cell.trace.digest() == golden
        restored = captured["checkpoint"].restore()
        run_until_ns(restored, seconds(duration_s))
        assert restored.trace.digest() == golden

    @pytest.mark.parametrize(
        "golden_name,scenario_name",
        [
            ("chaos_cmd_drop", "cmd_drop"),
            ("chaos_crash_restart", "crash_restart"),
        ],
    )
    def test_chaos_scenarios(self, golden_name, scenario_name):
        from tests.test_perf_digests import GOLDEN_DIGESTS

        result = _mid_recovery_verify((scenario_name, 1))
        assert result["restored"].digest == GOLDEN_DIGESTS[golden_name]


@pytest.mark.slow
class TestForkedSweep:
    def test_forked_branches_match_cold_digests_at_any_jobs(self, tmp_path):
        """A quick 4-scenario forked sweep (one shared warm base) is
        digest-identical to the recorded cold baseline at jobs 1 and 2,
        and the second sweep reuses the bases the first built."""
        from repro.checkpoint.soak import QUICK_FORK_SCENARIOS

        baseline = _chaos_baseline()
        catalog = scenario_by_name()
        scenarios = [catalog[n] for n in QUICK_FORK_SCENARIOS]
        assert len({fork_key(s, 1) for s in scenarios}) == 1

        report1, info1 = forked_sweep(scenarios, (1,), tmp_path, jobs=1)
        report2, info2 = forked_sweep(scenarios, (1,), tmp_path, jobs=2)
        assert info1["bases_built"] == 1 and info1["bases_reused"] == 0
        assert info2["bases_built"] == 0 and info2["bases_reused"] == 1
        for report in (report1, report2):
            for run in report.runs:
                assert run.passed
                assert run.digest == baseline[(run.scenario, run.seed)]
        assert [r.digest for r in report1.runs] == [
            r.digest for r in report2.runs
        ]


class TestSoakResume:
    def test_soak_resume_reproduces_rolling_digest(self, tmp_path):
        """Crash-resume from the earliest retained checkpoint replays
        the uninterrupted run's rolling digest, with eviction active."""
        config = SoakConfig(seed=5, horizon_ns=1500 * MS)
        _, summary, written = run_soak(config, checkpoint_dir=tmp_path)
        assert summary["evicted_events"] > 0
        assert written, "soak wrote no checkpoints"
        boundary, path = written[0]
        _, resumed, _ = run_soak(resume=path)
        assert resumed["resumed_from_ns"] == boundary
        assert resumed["rolling_digest"] == summary["rolling_digest"]
        assert resumed["events_processed"] == summary["events_processed"]
        assert resumed["probe_deliveries"] == summary["probe_deliveries"]

    def test_resume_rejects_config_override(self, tmp_path):
        config = SoakConfig(seed=5, horizon_ns=1500 * MS)
        _, _, written = run_soak(config, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="resume"):
            run_soak(config, resume=written[0][1])

    def test_checkpoint_pruning_keeps_last_n(self, tmp_path):
        config = SoakConfig(seed=5, horizon_ns=2000 * MS)
        _, _, written = run_soak(config, checkpoint_dir=tmp_path, keep=2)
        assert len(written) == 2
        on_disk = sorted(tmp_path.glob("*.ckpt"))
        assert on_disk == sorted(path for _, path in written)


@pytest.mark.slow
class TestSoakCheckGate:
    def test_soak_check_quick_passes(self, capsys):
        """Tier-1 gate: the quick soak profile reruns deterministically
        against the recorded BENCH_soak.json baseline."""
        from repro.checkpoint.soak import main as soak_main

        exit_code = soak_main(["--check", "--quick"])
        output = capsys.readouterr().out
        assert exit_code == 0, f"soak --check --quick failed:\n{output}"
        assert "soak check passed" in output


@pytest.mark.slow
class TestFleetMidRecoveryCheckpoint:
    """A composed fleet — islands, pooled standbys, cohort population —
    checkpoints mid-recovery and replays bit-identically (DESIGN.md §14)."""

    CAPTURE_NS = 60 * MS + 200_000  # after the crash, before the commit
    END_NS = 150 * MS

    def _build(self):
        harness = build_fleet(
            FleetConfig(
                seed=21,
                num_cells=3,
                standby_pool_size=1,
                users_per_cell=200,
                rewarm_ns=30 * MS,
            )
        )
        # Two crashes against one token: the second lands after capture,
        # so the restored run must replay a promotion *and* an exhaustion.
        for cell_index, at_ns in ((0, 60 * MS), (1, 75 * MS)):
            plan = FaultPlan(
                name=f"ckpt-fleet-cell{cell_index}",
                process_faults=(
                    ProcessFaultSpec(phy_id=0, kind="crash", at_ns=at_ns),
                ),
            )
            FaultInjector(harness.cells[cell_index], plan).arm()
        return harness

    def test_fleet_restores_mid_recovery_digest_identically(self):
        harness = self._build()
        harness.run_until(self.CAPTURE_NS)
        checkpoint = Checkpoint.capture(harness, label="fleet mid-recovery")
        assert checkpoint.meta.sim_now_ns == self.CAPTURE_NS

        harness.run_until(self.END_NS)
        continued_digest = fleet_digest(harness)
        assert harness.pool.promotions == 1
        assert harness.pool.exhaustions == 1

        restored = checkpoint.restore()
        assert restored.sim.now == self.CAPTURE_NS
        assert _instances(restored, StandbyPool) == 1
        restored.run_until(self.END_NS)
        assert fleet_digest(restored) == continued_digest
        assert restored.pool.stats_dict() == harness.pool.stats_dict()
        assert restored.population.summary() == harness.population.summary()
        for cell, twin in zip(harness.cells, restored.cells):
            assert twin.trace.digest() == cell.trace.digest()

    def test_fleet_checkpoint_save_load_round_trip(self, tmp_path):
        harness = self._build()
        harness.run_until(self.CAPTURE_NS)
        checkpoint = Checkpoint.capture(harness, label="fleet disk")
        path = tmp_path / "fleet.ckpt"
        checkpoint.save(path)
        harness.run_until(self.END_NS)

        restored = Checkpoint.load(path).restore()
        restored.run_until(self.END_NS)
        assert fleet_digest(restored) == fleet_digest(harness)


class TestSoakStatePicklability:
    def test_soak_state_round_trips_through_pickle(self):
        """The whole runtime graph is closure-free: a fresh soak state
        pickles and unpickles without a registry in the loop."""
        from repro.faults.soak import build_soak_state

        state = build_soak_state(SoakConfig(seed=7, horizon_ns=1500 * MS))
        drive_to(state.harness, 350 * MS)
        clone = pickle.loads(pickle.dumps(state))
        drive_to(state.harness, 700 * MS)
        drive_to(clone.harness, 700 * MS)
        assert clone.harness.cell.trace.rolling_digest() == (
            state.harness.cell.trace.rolling_digest()
        )
        assert clone.monitor.max_gap_ns == state.monitor.max_gap_ns

    def test_restored_soak_state_is_driven_by_the_shared_drive_to(self):
        """A soak is a ``ProbeHarness`` plus config and monitor: restored
        from a checkpoint taken before the probe start, the campaign's
        ``drive_to`` starts the probe on the way, and the restored tap
        folds deliveries into the restored monitor."""
        from repro.faults.scenarios import PROBE_START_NS
        from repro.faults.soak import build_soak_state

        config = SoakConfig(seed=7, horizon_ns=1500 * MS)
        straight = build_soak_state(config)
        drive_to(straight.harness, 700 * MS)

        paused = build_soak_state(config)
        drive_to(paused.harness, PROBE_START_NS - 100 * MS)
        assert not paused.harness.probe_started
        restored = Checkpoint.capture(paused, label="soak pre-probe").restore()
        drive_to(restored.harness, 700 * MS)
        assert restored.harness.probe_started
        assert restored.monitor.deliveries == straight.monitor.deliveries > 0
        assert restored.monitor.max_gap_ns == straight.monitor.max_gap_ns
        assert restored.harness.cell.trace.rolling_digest() == (
            straight.harness.cell.trace.rolling_digest()
        )
