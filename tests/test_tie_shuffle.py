"""Tie-order race detector: ``Simulator(tie_shuffle_seed=...)``.

Engine-level behaviour, plus the headline acceptance check: the Fig 8
failure scenario produces identical canonical traces whether
same-timestamp events run in FIFO order or in seeded-shuffled order —
i.e. no component depends on how the engine serializes concurrent
events.
"""

import numpy as np
import pytest

from repro.apps.video import VideoReceiver, VideoSender
from repro.cell.config import CellConfig
from repro.cell.deployment import build_baseline_cell, build_slingshot_cell
from repro.sim import engine as engine_module
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.sim.units import s_to_ns


class TestEngineTieShuffle:
    def test_default_is_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(6):
            sim.schedule(100, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_shuffle_permutes_ties(self):
        sim = Simulator(tie_shuffle_seed=1)
        order = []
        for tag in range(32):
            sim.schedule(100, order.append, tag)
        sim.run()
        assert sorted(order) == list(range(32))
        assert order != list(range(32))

    def test_shuffle_is_deterministic_per_seed(self):
        def run(seed):
            sim = Simulator(tie_shuffle_seed=seed)
            order = []
            for tag in range(16):
                sim.schedule(100, order.append, tag)
            sim.run()
            return order

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_time_order_always_respected(self):
        sim = Simulator(tie_shuffle_seed=3)
        order = []
        sim.schedule(200, order.append, "late")
        sim.schedule(100, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_shuffle_permutation_matches_scalar_key_draws(self):
        # The engine batches its tie-key draws; the permutation must be
        # exactly what one scalar ``integers(0, 2**32)`` draw per
        # scheduled event produces (the pre-batching behaviour).
        count, seed = 48, 11
        sim = Simulator(tie_shuffle_seed=seed)
        order = []
        for tag in range(count):
            sim.schedule(100, order.append, tag)
        sim.run()

        reference = np.random.Generator(np.random.PCG64(seed))
        keys = [int(reference.integers(0, 1 << 32)) for _ in range(count)]
        expected = sorted(range(count), key=lambda tag: (keys[tag], tag))
        assert order == expected

    def test_shuffle_order_survives_compaction(self):
        # Cancelling enough ties to trigger compaction must not change
        # the relative firing order of the survivors.
        def survivor_order(threshold):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine_module, "COMPACTION_THRESHOLD", threshold)
                sim = Simulator(tie_shuffle_seed=23)
                order = []
                handles = [sim.schedule(100, order.append, tag) for tag in range(48)]
                for tag in range(0, 48, 3):
                    sim.cancel(handles[tag])
                sim.run()
                return order

        aggressive = survivor_order(threshold=2)
        never = survivor_order(threshold=10**9)
        assert aggressive == never
        assert sorted(aggressive) == [t for t in range(48) if t % 3]


class TestCanonicalTrace:
    def test_digest_invariant_to_concurrent_order(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(10, "x", k=1)
        a.record(10, "y", k=2)
        b.record(10, "y", k=2)
        b.record(10, "x", k=1)
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_content(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.record(10, "x", k=1)
        b.record(10, "x", k=2)
        assert a.digest() != b.digest()


def _fig8_failure_digest(slingshot: bool, tie_shuffle_seed) -> str:
    """Fig 8 failure scenario: video to UE 1, SIGKILL the primary PHY."""
    config = CellConfig(seed=0, tie_shuffle_seed=tie_shuffle_seed)
    cell = build_slingshot_cell(config) if slingshot else build_baseline_cell(config)
    ue = cell.ue(1)
    sender = VideoSender(
        cell.sim,
        cell.server,
        ue_id=ue.ue_id,
        flow_id="video",
        bearer_id=1,
        bitrate_bps=500_000.0,
        rng=cell.rng.stream("video"),
    )
    VideoReceiver(cell.sim, ue, flow_id="video")
    cell.run_for(s_to_ns(0.2))
    sender.start()
    cell.kill_phy_at(0, s_to_ns(0.8))
    cell.run_until(s_to_ns(2.0))
    assert len(cell.trace) > 0
    return cell.trace.digest()


@pytest.mark.slow
@pytest.mark.parametrize("slingshot", [True, False], ids=["slingshot", "baseline"])
def test_fig8_trace_identical_under_tie_shuffle(slingshot):
    reference = _fig8_failure_digest(slingshot, tie_shuffle_seed=None)
    assert _fig8_failure_digest(slingshot, tie_shuffle_seed=7) == reference
    assert _fig8_failure_digest(slingshot, tie_shuffle_seed=99) == reference
