"""Checkpoint/restore, soak, and scenario-forking tests.

The continuous-operation contract under test (DESIGN.md §13):

* ``restore(checkpoint(t))`` replays **bit-identically** — the restored
  run's canonical trace digest equals the uninterrupted run's, for the
  checkpoints captured *mid-recovery* in every chaos scenario class (the
  golden figure cells restore in ``tests/test_perf_digests.py``);
* soak runs survive eviction and crash-resume with the same rolling
  digest;
* a chaos run branched from a warm base (``repro chaos``) produces the
  same whole record as the cold run it replaced (``tests/chaos_cold.py``);
* the recorded ``BENCH_soak.json`` baseline gates all of it via
  ``python -m repro soak --check --quick`` (tier-1).
"""

import copyreg
import gc
import hashlib
import json
import pickle
import shutil
import sys
from collections import Counter

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointMeta,
    SnapshotError,
    iter_object_graph,
    source_fingerprint,
)
from repro.checkpoint.snapshot import PACKAGE_DIR
from repro.checkpoint.soak import main as soak_main
from repro.checkpoint.soak import run_soak
from repro.core.failure_detector import FailureDetector
from repro.faults.campaign import (
    arm_plan,
    build_probe_harness,
    drive_to,
    fork_key,
    judge_execution,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ProcessFaultSpec
from repro.faults.scenarios import (
    FAULT_AT_NS,
    RUN_END_NS,
    scenario_by_name,
)
from repro.faults.soak import SoakConfig
from repro.fleet import FleetConfig, build_fleet, fleet_digest
from repro.fleet.pool import StandbyPool
from repro.parallel import run_shards
from repro.sim.engine import Simulator
from repro.sim.units import MS
from tests.chaos_cold import recorded_digests, run_cold_shard
from tests.conftest import MID_RECOVERY_NS


#: ``Py_TPFLAGS_MANAGED_DICT``: the class keeps its instances'
#: attributes inline until something reads ``__dict__``.
MANAGED_DICT = 1 << 4


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

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="no managed dicts")
    def test_restored_attributes_stay_inline(self, warm):
        """No restored instance of a class whose attributes the
        interpreter keeps inline holds a built ``__dict__``: neither the
        capture's pickling nor the restore's graph walk may build one, or
        every later attribute access of the branch slows (a restored cell
        ran ~30 % slower than a cold one). The referents are taken
        before ``__dict__`` is read, since reading it builds the dict.
        Mutants: a plain ``pickle.dumps`` in ``Checkpoint.capture``, and
        ``iter_object_graph`` reading ``getattr(obj, "__dict__")`` — each
        alone leaves every such instance with a built dict."""
        restored = Checkpoint.capture(warm).restore()
        managed = [
            obj
            for obj in iter_object_graph(restored)
            if type(obj).__flags__ & MANAGED_DICT and not isinstance(obj, type)
        ]
        assert len(managed) > 100

        def built(obj):
            referents = gc.get_referents(obj)
            return any(referent is obj.__dict__ for referent in referents)

        assert [type(obj).__qualname__ for obj in managed if built(obj)] == []

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
class TestMidRecoveryCheckpoints:
    """Every chaos scenario class, branched from its warm base, checkpoints
    mid-recovery and replays bit-identically (the session's seed-1 pass,
    at --jobs 2)."""

    @pytest.mark.parametrize("name", sorted(scenario_by_name()))
    def test_scenario_class_replays_identically_jobs2(self, name, seed1_chaos):
        result = seed1_chaos[name]
        continued, restored = result["continued"], result["restored"]
        assert result["checkpoint_sim_ns"] == MID_RECOVERY_NS
        assert restored.as_dict() == continued.as_dict(), (
            f"{name}: the restored run's record diverged from the "
            "uninterrupted run's"
        )
        assert continued.passed, f"{name}: recovery invariants failed"
        assert continued.digest == _chaos_baseline()[(name, 1)], (
            f"{name}: run diverged from the recorded chaos baseline"
        )


#: The differential test's branches: ingress and egress impairments
#: (``fh_loss``), an egress impairment that duplicates (``orion_dup``),
#: ``cmd_drop``, an earlier fork point (``clock_drift``) and a one-PHY base
#: (``no_secondary``).
DIFFERENTIAL_SCENARIOS = ("fh_loss", "orion_dup", "cmd_drop", "clock_drift", "no_secondary")


@pytest.mark.slow
class TestForkedEqualsCold:
    def test_branched_record_equals_the_cold_record(self, seed1_chaos):
        """``repro chaos`` branches each run from a warm base (the
        session's seed-1 pass branches the same way); the cold run armed
        at t = 0 (``tests/chaos_cold.py``) is its model. The two agree on
        the whole record — every counter included, the link impairments'
        ``frames_seen`` and the engine's event count too."""
        catalog = scenario_by_name()
        assert len({fork_key(catalog[name], 1) for name in DIFFERENTIAL_SCENARIOS}) == 3
        cold = run_shards(
            run_cold_shard,
            [(name, (name, 1)) for name in DIFFERENTIAL_SCENARIOS],
            jobs=2,
        )
        for name, model in zip(cold.keys, cold.values()):
            run = seed1_chaos[name]["continued"]
            assert run.as_dict() == model.as_dict(), (
                f"{name}: the branch's record differs from the cold run's"
            )
            assert run.passed
        impaired = [
            counter
            for counter in seed1_chaos["fh_loss"]["continued"].counters
            if counter.endswith(".frames_seen")
        ]
        assert len(impaired) == 2, impaired


class TestSoakResume:
    @pytest.fixture(scope="class")
    def soaked(self, tmp_path_factory):
        """One seed-5, 1.5 s soak with eviction and checkpoints on disk."""
        config = SoakConfig(seed=5, horizon_ns=1500 * MS)
        _, summary, written = run_soak(
            config, checkpoint_dir=tmp_path_factory.mktemp("soak")
        )
        return config, summary, written

    def test_soak_resume_reproduces_rolling_digest(self, soaked):
        """Crash-resume from the earliest retained checkpoint replays
        the uninterrupted run's rolling digest, with eviction active."""
        _, summary, written = soaked
        assert summary["evicted_events"] > 0
        assert written, "soak wrote no checkpoints"
        boundary, path = written[0]
        _, resumed, _ = run_soak(resume=path)
        assert resumed["resumed_from_ns"] == boundary
        assert resumed["rolling_digest"] == summary["rolling_digest"]
        assert resumed["events_processed"] == summary["events_processed"]
        assert resumed["probe_deliveries"] == summary["probe_deliveries"]

    def test_resume_rejects_config_override(self, soaked):
        config, _, written = soaked
        with pytest.raises(ValueError, match="resume"):
            run_soak(config, resume=written[0][1])

    def test_checkpoint_pruning_keeps_last_n(self, tmp_path):
        config = SoakConfig(seed=5, horizon_ns=2000 * MS)
        _, _, written = run_soak(config, checkpoint_dir=tmp_path, keep=2)
        assert len(written) == 2
        on_disk = sorted(tmp_path.glob("*.ckpt"))
        assert on_disk == sorted(path for _, path in written)


@pytest.mark.slow
@pytest.mark.usefixtures("one_soak_profile_execution")
class TestSoakCheckGate:
    def test_soak_check_quick_passes(self, capsys):
        """Tier-1 gate: the quick soak profile reruns deterministically
        against the recorded BENCH_soak.json baseline (one execution per
        session, shared with ``tests/test_harness_contract.py``)."""
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
