"""Checkpoint capture/restore of whole object graphs, proven by replay.

A checkpoint is the pickled object graph of one *root* (a harness or
soak state holding exactly one :class:`~repro.sim.engine.Simulator`)
plus a small metadata header. Pickling snapshots everything the next
event needs — the event heap (bound-method callbacks included), every
RNG generator's position, component state, in-flight fault windows —
because the runtime graph is kept closure-free by construction (see
:mod:`repro.apps.dispatch`).

What proves a checkpoint is bit-identical replay: the restored run ends
on the uninterrupted run's digest (``tests/test_checkpoint.py``, the
forked sweeps). The checks here only make the cases replay cannot
reach fail early and by name, in this order:

    pickle  ->  one Simulator  ->  SHA-256 seal  ->  clock / event re-check
            ->  source fingerprint (``Checkpoint.load``)

``pickle`` refuses an unpicklable callback; the walk refuses a root
that reaches zero engines or two; the seal refuses a corrupted payload;
the restore re-check refuses a ``__reduce__`` that loses the clock or
the event count; and the header's :func:`source_fingerprint` refuses a
file written by any other source tree, since replay was proven only for
the tree that wrote it.
"""

from __future__ import annotations

import copyreg
import functools
import gc
import hashlib
import io
import json
import pickle
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List

from repro.sim.engine import Simulator

#: Bumped whenever the on-disk layout changes; load() refuses mismatches.
SCHEMA_VERSION = 1

_MAGIC = b"repro-ckpt/1\n"

#: Leaf values the graph walk never descends into.
_ATOMIC = (type(None), bool, int, float, complex, str, bytes, bytearray)

#: ``object.__getstate__`` (Python 3.11+), or None before it existed.
_DEFAULT_GETSTATE = getattr(object, "__getstate__", None)

#: Objects the graph walk yields but never descends into.
_BOUNDARIES = (types.FunctionType, types.BuiltinFunctionType, type, types.ModuleType)

#: The ``repro`` package directory whose sources a checkpoint is bound to.
PACKAGE_DIR = Path(__file__).resolve().parents[1]


class SnapshotError(RuntimeError):
    """A checkpoint failed verification (wrong graph, corruption, or
    another source tree)."""


@functools.lru_cache(maxsize=None)
def source_fingerprint(package_dir: Path = PACKAGE_DIR) -> str:
    """SHA-256 over every ``.py`` file under ``package_dir``: each
    relative path and its bytes, in sorted path order. Computed once per
    process and directory."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(path.relative_to(package_dir).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def iter_object_graph(root: Any) -> Iterator[Any]:
    """Yield every object reachable from ``root`` exactly once.

    Follows the edges the collector sees (:func:`gc.get_referents`,
    which reads attributes without building a ``__dict__``) and
    bound-method ``__self__`` back-references (the event heap stores
    callbacks as bound methods). Functions, types, and modules are
    boundaries — pickle stores them by reference.
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
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif not isinstance(obj, _BOUNDARIES):
            stack.extend(gc.get_referents(obj))


def _the_simulator(root: Any) -> Simulator:
    """The one :class:`Simulator` reachable from ``root``.

    Raises :class:`SnapshotError` unless there is exactly one: zero
    means the root is not a run, two means entangled runs.
    """
    simulators = [obj for obj in iter_object_graph(root) if isinstance(obj, Simulator)]
    if len(simulators) != 1:
        raise SnapshotError(
            f"checkpoint root must reach exactly 1 Simulator, found {len(simulators)}"
        )
    return simulators[0]


def _set_attributes(obj: Any, state: Dict[str, Any]) -> None:
    """Restore attributes one assignment at a time, as ``__init__`` made
    them, so the interpreter keeps them inline: the default restore
    builds a ``__dict__``, and a restored graph ran ~30 % slower."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)


class _Pickler(pickle.Pickler):
    """``pickle`` with :func:`_set_attributes` as the state setter of every
    instance whose class pickles the default way."""

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        if (
            isinstance(obj, (type, types.FunctionType))
            or cls in copyreg.dispatch_table
            or cls.__reduce_ex__ is not object.__reduce_ex__
            or cls.__reduce__ is not object.__reduce__
            or getattr(cls, "__getstate__", None) is not _DEFAULT_GETSTATE
            or hasattr(cls, "__setstate__")
        ):
            return NotImplemented
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        if type(reduced[2]) is not dict:  # no attributes, or __slots__ too
            return NotImplemented
        return reduced + (_set_attributes,)


@dataclass(frozen=True)
class CheckpointMeta:
    """Header describing one checkpoint payload."""

    schema: int
    label: str
    sim_now_ns: int
    events_processed: int
    payload_sha256: str
    #: :func:`source_fingerprint` of the tree that wrote the payload
    #: ("" in files older than the field).
    source_sha256: str = ""

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "label": self.label,
            "sim_now_ns": self.sim_now_ns,
            "events_processed": self.events_processed,
            "payload_sha256": self.payload_sha256,
            "source_sha256": self.source_sha256,
        }

    @staticmethod
    def from_dict(data: dict) -> "CheckpointMeta":
        return CheckpointMeta(
            schema=data["schema"],
            label=data["label"],
            sim_now_ns=data["sim_now_ns"],
            events_processed=data["events_processed"],
            payload_sha256=data["payload_sha256"],
            source_sha256=data.get("source_sha256", ""),
        )


@dataclass(frozen=True)
class Checkpoint:
    """A captured run: sealed pickled graph + metadata header."""

    meta: CheckpointMeta
    payload: bytes

    @classmethod
    def capture(cls, root: Any, label: str = "") -> "Checkpoint":
        """Snapshot ``root``, which must reach exactly one Simulator."""
        simulator = _the_simulator(root)
        buffer = io.BytesIO()
        _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(root)
        payload = buffer.getvalue()
        meta = CheckpointMeta(
            schema=SCHEMA_VERSION,
            label=label,
            sim_now_ns=simulator.now,
            events_processed=simulator.events_processed,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            source_sha256=source_fingerprint(),
        )
        return cls(meta=meta, payload=payload)

    def restore(self) -> Any:
        """Check the seal, deserialize, and re-check; returns the root.

        The restored graph must reach one Simulator whose clock and
        event count are the captured ones — a ``__reduce__`` quietly
        dropping either shows up here, not three subsystems later.
        """
        digest = hashlib.sha256(self.payload).hexdigest()
        if digest != self.meta.payload_sha256:
            raise SnapshotError(
                f"payload corrupted: sha256 {digest[:12]}... != "
                f"recorded {self.meta.payload_sha256[:12]}..."
            )
        root = pickle.loads(self.payload)
        simulator = _the_simulator(root)
        restored = (simulator.now, simulator.events_processed)
        captured = (self.meta.sim_now_ns, self.meta.events_processed)
        if restored != captured:
            raise SnapshotError(
                f"restore verification failed: (sim clock, events processed) "
                f"{restored} != captured {captured}"
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
        header, newline, payload = data[len(_MAGIC):].partition(b"\n")
        if not newline:
            raise SnapshotError(f"{path}: malformed header: no newline ends it")
        try:
            meta = CheckpointMeta.from_dict(json.loads(header.decode("utf-8")))
        except UnicodeDecodeError:
            raise SnapshotError(f"{path}: malformed header: not UTF-8") from None
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: malformed header: not JSON ({exc})") from None
        except KeyError as exc:
            raise SnapshotError(f"{path}: malformed header: no {exc} field") from None
        except (TypeError, ValueError) as exc:  # a field of the wrong type
            raise SnapshotError(f"{path}: malformed header: {exc}") from None
        if meta.schema != SCHEMA_VERSION:
            raise SnapshotError(
                f"{path}: checkpoint schema {meta.schema} != "
                f"supported {SCHEMA_VERSION}"
            )
        current = source_fingerprint()
        if meta.source_sha256 != current:
            raise SnapshotError(
                f"{path}: written by another source tree "
                f"({meta.source_sha256[:12] or 'unrecorded'}, this tree is "
                f"{current[:12]}); rebuild it"
            )
        return Checkpoint(meta=meta, payload=payload)
