"""Profile trace recording and offline replay.

A real profiling deployment separates *collection* (cheap, online) from
*analysis* (arbitrary, offline).  This module serializes everything the
online profiler gathers — OAL batches, the class registry and object
metadata needed to re-evaluate sampling decisions — into a compact JSON
document, and replays it offline:

* recompute the TCM at **any** sampling rate without re-running the
  simulation (the same determinism the accuracy sweep exploits),
* re-run the adaptive controller against recorded windows,
* diff two traces (did the sharing pattern drift between runs?).

Format: a single JSON object, gzip-compressed when the path ends in
``.gz``.  Versioned for forward compatibility.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.oal import OALBatch
from repro.core.sampling import SamplingPolicy
from repro.core.tcm import build_tcm, resampled_tcm
from repro.heap.heap import GlobalObjectSpace

FORMAT_VERSION = 1

#: the class of the replay table's ids the log never names.
UNLOGGED = "<unlogged>"


@dataclass
class ProfileTrace:
    """A recorded profiling session, sufficient for offline re-analysis."""

    n_threads: int
    page_size: int
    #: class metadata: class_id -> (name, instance_size, is_array, element_size)
    classes: dict[int, tuple[str, int, bool, int]]
    #: per-object metadata: obj_id -> (class_id, seq, length)
    objects: dict[int, tuple[int, int, int]]
    #: recorded OAL batches (full-sampling logs).
    batches: list[OALBatch]

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        gos: GlobalObjectSpace,
        batches: Iterable[OALBatch],
        n_threads: int,
        *,
        page_size: int = 4096,
    ) -> "ProfileTrace":
        """Build a trace from a run's OAL batches, keeping metadata only
        for objects that actually appear in the log."""
        batches = list(batches)
        needed: set[int] = set()
        for batch in batches:
            needed.update(batch.obj_ids)
        class_col, seq, length = gos.cls, gos.seq, gos.length
        objects = {i: (class_col[i], seq[i], length[i]) for i in sorted(needed)}
        class_ids = {cid for cid, _seq, _length in objects.values()}
        classes = {}
        for cid in sorted(class_ids):
            jc = gos.registry.by_id(cid)
            classes[cid] = (jc.name, jc.instance_size, jc.is_array, jc.element_size)
        return cls(
            n_threads=n_threads,
            page_size=page_size,
            classes=classes,
            objects=objects,
            batches=batches,
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        return {
            "format_version": FORMAT_VERSION,
            "n_threads": self.n_threads,
            "page_size": self.page_size,
            "classes": {
                str(cid): list(meta) for cid, meta in self.classes.items()
            },
            "objects": {
                str(oid): list(meta) for oid, meta in self.objects.items()
            },
            "batches": [
                {
                    "thread": b.thread_id,
                    "interval": b.interval_id,
                    "start_pc": b.start_pc,
                    "end_pc": b.end_pc,
                    "entries": [[e.obj_id, e.scaled_bytes, e.class_id] for e in b.entries],
                }
                for b in self.batches
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileTrace":
        """Inverse of :meth:`to_dict`.  Validates the format version and
        the object metadata a replay decides from — every logged object
        is described, of a described class, with a seq that is not
        negative and a length the GOS would have allocated (at least 1
        for an array, none for a scalar) — raising :class:`ValueError`."""
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(this build reads {FORMAT_VERSION})"
            )
        classes = {int(k): tuple(v) for k, v in data["classes"].items()}
        objects = {int(k): tuple(v) for k, v in data["objects"].items()}
        for obj_id, (class_id, seq, length) in objects.items():
            meta = classes.get(class_id)
            if meta is None:
                raise ValueError(f"object {obj_id}: class {class_id} is not in classes")
            if seq < 0:
                raise ValueError(f"object {obj_id}: negative seq {seq}")
            if meta[2] and length < 1:
                raise ValueError(f"object {obj_id}: array needs length >= 1, got {length}")
            if not meta[2] and length:
                raise ValueError(f"object {obj_id}: scalar cannot take a length, got {length}")
        batches = []
        for raw in data["batches"]:
            batch = OALBatch(
                thread_id=raw["thread"],
                interval_id=raw["interval"],
                start_pc=raw.get("start_pc", 0),
                end_pc=raw.get("end_pc", 0),
            )
            for obj_id, scaled, class_id in raw["entries"]:
                if obj_id not in objects:
                    raise ValueError(f"batch entry: object {obj_id} is not in objects")
                batch.add(obj_id, scaled, class_id)
            batches.append(batch)
        return cls(
            n_threads=data["n_threads"],
            page_size=data["page_size"],
            classes=classes,
            objects=objects,
            batches=batches,
        )

    def save(self, path: str | Path) -> None:
        """Write the trace (gzip-compressed for ``.gz`` paths)."""
        path = Path(path)
        payload = json.dumps(self.to_dict(), separators=(",", ":"))
        if path.suffix == ".gz":
            path.write_bytes(gzip.compress(payload.encode()))
        else:
            path.write_text(payload)

    @classmethod
    def load(cls, path: str | Path) -> "ProfileTrace":
        """Read a trace written by :meth:`save`.  A truncated or corrupt
        gzip stream, text that is not JSON, a missing field and an
        unsupported format version each raise :class:`ValueError`
        naming the path and the problem."""
        path = Path(path)
        try:
            if path.suffix == ".gz":
                payload = gzip.decompress(path.read_bytes()).decode()
            else:
                payload = path.read_text()
        except (EOFError, gzip.BadGzipFile, zlib.error, UnicodeDecodeError) as exc:
            raise ValueError(f"trace {path}: unreadable ({exc})") from exc
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace {path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"trace {path}: expected a JSON object, got {type(data).__name__}")
        try:
            return cls.from_dict(data)
        except KeyError as exc:
            raise ValueError(f"trace {path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace {path}: {exc}") from exc

    # ------------------------------------------------------------------
    # offline analysis
    # ------------------------------------------------------------------

    @cached_property
    def space(self) -> GlobalObjectSpace:
        """The recorded object table as a GOS, built once with one
        ``allocate_many`` over ids 0 up to the largest recorded id, so
        every recorded object keeps its id (the stateless backends hash
        it): each recorded object with its class (defined in recorded
        class-id order) and length, every id the log never names as one
        object of the filler class :data:`UNLOGGED`, which no replay
        decides.  The recorded seqs then replace the issued ones in the
        ``seq`` column."""
        gos = GlobalObjectSpace()
        define = gos.registry.define
        class_of = {
            cid: define(name, inst, is_array=is_array, element_size=elem).class_id
            for cid, (name, inst, is_array, elem) in sorted(self.classes.items())
        }
        filler = define(UNLOGGED, 1)
        ids = sorted(self.objects)
        cids, seqs, lengths = zip(*map(self.objects.__getitem__, ids)) if ids else ((), (), ())
        n = ids[-1] + 1 if ids else 0
        classes = np.full(n, filler.class_id, dtype=np.int64)
        classes[ids] = list(map(class_of.__getitem__, cids))
        length = np.zeros(n, dtype=np.int64)
        length[ids] = lengths
        gos.allocate_many(classes, 0, lengths=length)
        gos.seq_np[ids] = seqs
        return gos

    def tcm_at_rate(self, rate: float | str, *, backend=None) -> np.ndarray:
        """The TCM a run at ``rate`` would have produced, replayed from
        the recorded full-sampling log over :attr:`space`.  ``backend``
        substitutes a non-default sampling backend; decisions are pure
        functions of the recorded object identities, so the replay stays
        exact."""
        gos = self.space
        policy = SamplingPolicy(page_size=self.page_size, backend=backend)
        for jclass in gos.registry:
            if jclass.name != UNLOGGED:
                policy.set_rate(jclass, rate)
        return resampled_tcm(self.batches, policy, gos, self.n_threads)

    def full_tcm(self) -> np.ndarray:
        """The TCM from the recorded (full-sampling) log as-is."""
        def entries():
            for batch in self.batches:
                for e in batch.entries:
                    yield batch.thread_id, e.obj_id, e.scaled_bytes

        return build_tcm(entries(), self.n_threads)

    def drift_from(self, other: "ProfileTrace", metric: str = "abs") -> float:
        """Distance between two traces' full maps (pattern drift check)."""
        from repro.core.accuracy import absolute_error, euclidean_error

        a, b = self.full_tcm(), other.full_tcm()
        if a.shape != b.shape:
            raise ValueError(
                f"thread counts differ: {a.shape[0]} vs {b.shape[0]}"
            )
        return absolute_error(a, b) if metric == "abs" else euclidean_error(a, b)


def record_trace(workload_factory, n_nodes: int, *, costs=None) -> ProfileTrace:
    """One-call capture: run a workload at full sampling and return its
    trace (the offline-analysis entry point)."""
    from repro.analysis import experiments as E

    batches, gos, n_threads, _run = E.collect_full_batches(
        workload_factory, n_nodes, costs=costs
    )
    return ProfileTrace.capture(gos, batches, n_threads)
