"""Static sharing/escape analysis: classify every object (and every
allocation site) from the workload CFG, before the first op executes.

Classification lattice (ordered by how expensive the pattern is for a
home-based LRC protocol — the order site summaries take the worst of):

==================  =====================================================
unaccessed          no thread touches the object
node-private        all accessors live on one node (never escapes its
                    node: no faults, no diffs — the protocol fast path)
read-mostly-shared  cross-node accessors but no writer after it is
                    shared (one cold fault per node, then silence)
single-writer       exactly one writing thread, remote readers (diffs
                    flow one way; a candidate for home migration to the
                    writer's node)
ping-pong           two or more writers (alternating invalidations —
                    DJXPerf's canonical inefficiency pattern and the
                    placement optimizer's prime target)
==================  =====================================================

The outputs are the per-object and per-site classifications and the
predicted TCM (same shared-bytes structure the dynamic correlation
profiler estimates — comparable via ``repro.obs compare``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CLASS_ORDER",
    "ObjectSharing",
    "SiteSummary",
    "SharingAnalysis",
    "analyze_sharing",
]

#: classifications, cheapest protocol behavior first (worst-of ordering).
CLASS_ORDER = (
    "unaccessed",
    "node-private",
    "read-mostly-shared",
    "single-writer",
    "ping-pong",
)
_RANK = {name: i for i, name in enumerate(CLASS_ORDER)}


@dataclass(slots=True)
class ObjectSharing:
    """Per-object static access facts and the derived classification."""

    obj_id: int
    class_name: str
    site: str
    home_node: int
    size_bytes: int
    readers: set[int] = field(default_factory=set)
    writers: set[int] = field(default_factory=set)
    read_count: int = 0
    write_count: int = 0
    classification: str = "unaccessed"

    @property
    def accessors(self) -> set[int]:
        """Threads touching the object at all."""
        return self.readers | self.writers

    def nodes(self, node_of_thread: dict[int, int]) -> set[int]:
        """Nodes whose threads touch the object."""
        return {node_of_thread[t] for t in self.accessors}

    def escapes(self, node_of_thread: dict[int, int]) -> bool:
        """True when any accessor runs off the object's home node."""
        return any(node_of_thread[t] != self.home_node for t in self.accessors)


@dataclass(slots=True)
class SiteSummary:
    """Aggregate over all objects of one allocation site."""

    site: str
    n_objects: int
    #: objects per classification.
    counts: dict[str, int]
    #: worst classification across the site's objects.
    classification: str
    #: total payload bytes of the site's cross-thread-shared objects.
    shared_bytes: int
    class_names: tuple[str, ...]


class SharingAnalysis:
    """The sharing analysis result: per-object + per-site views."""

    def __init__(self, ir, objects: dict[int, ObjectSharing]) -> None:
        self.ir = ir
        self.objects = objects
        self.sites = self._summarize_sites()

    def _summarize_sites(self) -> dict[str, SiteSummary]:
        by_site: dict[str, list[ObjectSharing]] = {}
        for obj in self.objects.values():
            by_site.setdefault(obj.site, []).append(obj)
        out: dict[str, SiteSummary] = {}
        for site in sorted(by_site):
            objs = by_site[site]
            counts: dict[str, int] = {}
            shared_bytes = 0
            worst = "unaccessed"
            for obj in objs:
                counts[obj.classification] = counts.get(obj.classification, 0) + 1
                if _RANK[obj.classification] > _RANK[worst]:
                    worst = obj.classification
                if len(obj.accessors) >= 2:
                    shared_bytes += obj.size_bytes
            out[site] = SiteSummary(
                site=site,
                n_objects=len(objs),
                counts=counts,
                classification=worst,
                shared_bytes=shared_bytes,
                class_names=tuple(sorted({o.class_name for o in objs})),
            )
        return out

    def predicted_tcm(self):
        """Predicted thread correlation matrix: shared payload bytes per
        thread pair (every co-accessed object contributes its size to
        each accessor pair — the same ground-truth structure
        ``GroupSharingWorkload.true_tcm`` computes and the dynamic
        correlation profiler estimates)."""
        import numpy as np

        n = self.ir.n_threads
        tcm = np.zeros((n, n))
        for obj in self.objects.values():
            acc = sorted(obj.accessors)
            if len(acc) < 2:
                continue
            for i in acc:
                for j in acc:
                    if i != j:
                        tcm[i, j] += obj.size_bytes
        return tcm

    def counts(self) -> dict[str, int]:
        """Objects per classification across the whole workload."""
        out: dict[str, int] = {name: 0 for name in CLASS_ORDER}
        for obj in self.objects.values():
            out[obj.classification] += 1
        return out


def _classify(obj: ObjectSharing, node_of_thread: dict[int, int]) -> str:
    accessors = obj.accessors
    if not accessors:
        return "unaccessed"
    if len(obj.nodes(node_of_thread)) == 1:
        return "node-private"
    if not obj.writers:
        return "read-mostly-shared"
    if len(obj.writers) == 1:
        return "single-writer"
    return "ping-pong"


def analyze_sharing(ir, cfg) -> SharingAnalysis:
    """Run the sharing analysis over a built CFG.

    Walks every segment's access summary once, accumulates per-object
    reader/writer sets, and classifies each object per the module
    lattice (classification depends on the *placement*, so the same
    workload built with a different thread->node map can legitimately
    classify differently — exactly what the placement optimizer wants
    to exploit).
    """
    objects: dict[int, ObjectSharing] = {}
    for obj_id in sorted(ir.objects):
        info = ir.objects[obj_id]
        objects[obj_id] = ObjectSharing(
            obj_id=obj_id,
            class_name=info.class_name,
            site=info.site,
            home_node=info.home_node,
            size_bytes=info.size_bytes,
        )
    for seg in cfg.segments():
        for obj_id, count in seg.reads.items():
            obj = objects.get(obj_id)
            if obj is not None:
                obj.readers.add(seg.thread_id)
                obj.read_count += count
        for obj_id, count in seg.writes.items():
            obj = objects.get(obj_id)
            if obj is not None:
                obj.writers.add(seg.thread_id)
                obj.write_count += count
    for obj in objects.values():
        obj.classification = _classify(obj, ir.node_of_thread)
    return SharingAnalysis(ir, objects)
