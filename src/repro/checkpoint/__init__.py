"""Digest-verified checkpoint/restore for whole simulator graphs.

The checkpoint subsystem snapshots a *root object* — a
:class:`~repro.faults.campaign.ProbeHarness`, a
:class:`~repro.faults.soak.SoakState`, any picklable graph holding one
:class:`~repro.sim.engine.Simulator` — and restores it into a new
process such that continuing the restored run replays **bit-identically**
(canonical trace digest) to the uninterrupted original. Replay is the
proof (``tests/test_checkpoint.py``); two modules carry it:

* :mod:`repro.checkpoint.snapshot` — capture/restore: ``pickle``, one
  Simulator, a SHA-256 seal, the clock / event-count re-check, and a
  fingerprint of the source tree that refuses another tree's file;
* :mod:`repro.checkpoint.soak` — the continuous-operation harness
  (``python -m repro soak``): long-horizon runs with background chaos,
  bounded-memory rolling trace digests and crash-resume.

The chaos campaign (:mod:`repro.faults.campaign`) is the other user: it
branches every ``(scenario, seed)`` from an in-memory warm base.
"""

from repro.checkpoint.snapshot import (
    Checkpoint,
    CheckpointMeta,
    SnapshotError,
    iter_object_graph,
    source_fingerprint,
)

__all__ = [
    "Checkpoint",
    "CheckpointMeta",
    "SnapshotError",
    "iter_object_graph",
    "source_fingerprint",
]
