"""Checkpoint capture/restore with manifest-verified object graphs.

A checkpoint is the pickled object graph of one *root* (a harness or
soak state holding exactly one :class:`~repro.sim.engine.Simulator`)
plus a small metadata header. Pickling snapshots everything the next
event needs — the event heap (bound-method callbacks included), every
RNG generator's position, component state, in-flight fault windows —
because the runtime graph is kept closure-free by construction (see
:mod:`repro.apps.dispatch`).

Trust, but verify: before serializing and again after restoring, the
:class:`SnapshotRegistry` walks the graph and checks every instance of
a manifest-listed runtime class still carries all of its checkpointable
attributes. The manifest itself is generated from the static state
inventory and pinned by lint rule CKPT003, so the chain is

    source AST  ==CKPT003==  manifest literal  ==SnapshotRegistry==  live graph

and a class growing mutable state without the checkpoint layer knowing
fails loudly — at lint time if the manifest is stale, at capture time
if an instance diverges from the manifest.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import types
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.checkpoint.manifest import STATE_MANIFEST

#: Bumped whenever the on-disk layout changes; load() refuses mismatches.
SCHEMA_VERSION = 1

_MAGIC = b"repro-ckpt/1\n"

#: Leaf values the graph walk never descends into.
_ATOMIC = (type(None), bool, int, float, complex, str, bytes, bytearray)

_SIMULATOR_QUALNAME = "repro.sim.engine.Simulator"


class SnapshotError(RuntimeError):
    """A checkpoint failed verification (graph drift or corruption)."""


def manifest_fingerprint(manifest: Dict[str, Tuple[str, ...]]) -> str:
    """SHA-256 of a state manifest, stamped into every checkpoint header:
    a payload pickled under another manifest holds objects of the wrong
    shape for this tree, however valid its own hash is."""
    canonical = json.dumps(manifest, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _qualname(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def iter_object_graph(root: Any) -> Iterator[Any]:
    """Yield every object reachable from ``root`` exactly once.

    Follows the same edges pickle serializes: instance ``__dict__`` and
    ``__slots__`` attributes, container elements (list/tuple/dict/set/
    deque), and bound-method ``__self__`` back-references (the event
    heap stores callbacks as bound methods). Functions, types, and
    modules are boundaries — pickle stores them by reference.
    """
    seen: Dict[int, Any] = {}
    stack: List[Any] = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMIC):
            continue
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj  # keep a strong ref so ids stay unique
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
            continue
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
            continue
        if isinstance(
            obj,
            (types.FunctionType, types.BuiltinFunctionType, type, types.ModuleType),
        ):
            continue
        instance_dict = getattr(obj, "__dict__", None)
        if isinstance(instance_dict, dict):
            stack.extend(instance_dict.values())
        for klass in type(obj).__mro__:
            slots = getattr(klass, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                if slot in ("__dict__", "__weakref__"):
                    continue
                try:
                    stack.append(getattr(obj, slot))
                except AttributeError:
                    pass  # slot declared but never assigned


class SnapshotRegistry:
    """Graph-walking verifier binding checkpoints to the state manifest."""

    def __init__(self, manifest: Optional[Dict[str, Tuple[str, ...]]] = None) -> None:
        self.manifest = STATE_MANIFEST if manifest is None else manifest

    def scan(self, root: Any) -> Tuple[Dict[str, int], List[Any], List[str]]:
        """One walk: manifest-class instance counts, simulators, problems."""
        counts: Dict[str, int] = {}
        simulators: List[Any] = []
        problems: List[str] = []
        for obj in iter_object_graph(root):
            qualname = _qualname(obj)
            if qualname == _SIMULATOR_QUALNAME:
                simulators.append(obj)
            attrs = self.manifest.get(qualname)
            if attrs is None:
                continue
            counts[qualname] = counts.get(qualname, 0) + 1
            for attr in attrs:
                if not hasattr(obj, attr):
                    problems.append(
                        f"{qualname} instance is missing checkpointable "
                        f"attribute {attr!r} (manifest drift — regenerate "
                        "repro/checkpoint/manifest.py)"
                    )
        return counts, simulators, problems

    def verify(self, root: Any) -> Tuple[Dict[str, int], Any]:
        """Verify a graph; returns (class counts, the unique simulator).

        Raises :class:`SnapshotError` when an instance is missing a
        manifest attribute or the graph does not hold exactly one
        simulator (a checkpoint must capture one engine — zero means
        the root is not a run, two means entangled runs).
        """
        counts, simulators, problems = self.scan(root)
        if len(simulators) != 1:
            problems.append(
                f"checkpoint root must reach exactly 1 Simulator, "
                f"found {len(simulators)}"
            )
        if problems:
            raise SnapshotError(
                "snapshot verification failed:\n  " + "\n  ".join(problems)
            )
        return counts, simulators[0]


@dataclass(frozen=True)
class CheckpointMeta:
    """Header describing one checkpoint payload."""

    schema: int
    label: str
    sim_now_ns: int
    events_processed: int
    payload_sha256: str
    #: Manifest-class instance counts at capture time; restore verifies
    #: the deserialized graph reproduces them exactly.
    classes: Dict[str, int]
    #: :func:`manifest_fingerprint` of the manifest the graph was
    #: verified against ("" in files older than the field).
    manifest_sha256: str = ""

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "label": self.label,
            "sim_now_ns": self.sim_now_ns,
            "events_processed": self.events_processed,
            "payload_sha256": self.payload_sha256,
            "classes": self.classes,
            "manifest_sha256": self.manifest_sha256,
        }

    @staticmethod
    def from_dict(data: dict) -> "CheckpointMeta":
        return CheckpointMeta(
            schema=data["schema"],
            label=data["label"],
            sim_now_ns=data["sim_now_ns"],
            events_processed=data["events_processed"],
            payload_sha256=data["payload_sha256"],
            classes=dict(data["classes"]),
            manifest_sha256=data.get("manifest_sha256", ""),
        )


@dataclass(frozen=True)
class Checkpoint:
    """A captured run: verified pickled graph + metadata header."""

    meta: CheckpointMeta
    payload: bytes

    @classmethod
    def capture(
        cls,
        root: Any,
        label: str = "",
        registry: Optional[SnapshotRegistry] = None,
    ) -> "Checkpoint":
        """Snapshot ``root`` after verifying it against the manifest."""
        reg = registry if registry is not None else SnapshotRegistry()
        counts, simulator = reg.verify(root)
        payload = pickle.dumps(root, protocol=pickle.HIGHEST_PROTOCOL)
        meta = CheckpointMeta(
            schema=SCHEMA_VERSION,
            label=label,
            sim_now_ns=simulator.now,
            events_processed=simulator.events_processed,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            classes=counts,
            manifest_sha256=manifest_fingerprint(reg.manifest),
        )
        return cls(meta=meta, payload=payload)

    def restore(self, registry: Optional[SnapshotRegistry] = None) -> Any:
        """Deserialize and re-verify; returns the restored root.

        The restored graph must pass the same manifest walk as capture
        did *and* reproduce the captured class counts and simulator
        clock — asymmetric pickling (a ``__reduce__`` quietly dropping
        state) shows up here, not three subsystems later.
        """
        digest = hashlib.sha256(self.payload).hexdigest()
        if digest != self.meta.payload_sha256:
            raise SnapshotError(
                f"payload corrupted: sha256 {digest[:12]}... != "
                f"recorded {self.meta.payload_sha256[:12]}..."
            )
        root = pickle.loads(self.payload)
        reg = registry if registry is not None else SnapshotRegistry()
        counts, simulator = reg.verify(root)
        problems = []
        if counts != self.meta.classes:
            problems.append(
                f"restored class counts {counts!r} != captured "
                f"{self.meta.classes!r}"
            )
        if simulator.now != self.meta.sim_now_ns:
            problems.append(
                f"restored sim clock {simulator.now} != captured "
                f"{self.meta.sim_now_ns}"
            )
        if problems:
            raise SnapshotError(
                "restore verification failed:\n  " + "\n  ".join(problems)
            )
        return root

    def save(self, path: Path) -> None:
        """Write ``MAGIC + meta json line + payload`` to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(self.meta.as_dict(), sort_keys=True).encode("utf-8")
        path.write_bytes(_MAGIC + header + b"\n" + self.payload)

    @staticmethod
    def load(path: Path) -> "Checkpoint":
        data = Path(path).read_bytes()
        if not data.startswith(_MAGIC):
            raise SnapshotError(f"{path}: not a repro checkpoint file")
        rest = data[len(_MAGIC):]
        newline = rest.index(b"\n")
        meta = CheckpointMeta.from_dict(json.loads(rest[:newline].decode("utf-8")))
        if meta.schema != SCHEMA_VERSION:
            raise SnapshotError(
                f"{path}: checkpoint schema {meta.schema} != "
                f"supported {SCHEMA_VERSION}"
            )
        current = manifest_fingerprint(STATE_MANIFEST)
        if meta.manifest_sha256 != current:
            raise SnapshotError(
                f"{path}: manifest mismatch, rebuild — written under state "
                f"manifest {meta.manifest_sha256[:12] or '(unrecorded)'}, "
                f"this tree's is {current[:12]}"
            )
        return Checkpoint(meta=meta, payload=rest[newline + 1:])
