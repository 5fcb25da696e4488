"""Global object space (GOS) registry and per-node local heaps.

The :class:`GlobalObjectSpace` is the allocation authority: it assigns
object ids, per-class sequence numbers and home nodes (home = creating
node, as in JESSICA2).  :class:`LocalHeap` holds each node's *copies* —
home copies for objects homed there, cache copies for remotely homed
objects that local threads have faulted in.  The coherence state machine
on those copies lives in :mod:`repro.dsm.states`.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from repro.heap.jclass import ClassRegistry, JClass
from repro.heap.objects import HeapObject

#: the largest batch :meth:`GlobalObjectSpace.allocate_many` writes
#: with Python ints (timeit, scalar class with a site: one object 30 -> 7.5 µs,
#: 16 objects 35 -> 21 µs, 32 about even, 64 on the numpy route).
PLAIN_BATCH = 32

#: allocation frames skipped when resolving a site label's origin: the
#: GOS itself and the DJVM facade that forwards to it.
_ALLOC_WRAPPERS = ("repro/heap/heap.py", "repro/runtime/djvm.py")


def _caller_origin() -> str:
    """``file:line`` of the workload frame that requested an allocation.

    Walks past the allocation wrappers and renders the path from the
    package root down (host-prefix-free, so origins are stable across
    checkouts).  Host-side introspection only — never touches simulated
    state."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(_ALLOC_WRAPPERS):
            short = filename.rsplit("/src/", 1)[-1]
            return f"{short}:{frame.f_lineno}"
        frame = frame.f_back
    return ""


class GlobalObjectSpace:
    """Cluster-wide object registry (ids, homes, sequence numbers), held
    as columns by object id, as the paper's fixed-width header fields.

    ``cls`` (class id), ``seq``, ``home``, ``length``, ``payload`` (an
    array's element bytes, a scalar's instance bytes: the object's
    logged size at sampling gap 1) and ``site`` (an index into
    :attr:`sites`) are ``array('q')`` columns, each with a numpy view
    ``<name>_np`` of the same memory; reads through the ``array`` give
    plain ints, gathers through the views run at C speed.  Reference
    edges are CSR: object ``i``'s targets are ``ref_ids[ref_end[i - 1]
    : ref_end[i]]`` (from 0 for object 0), then any edge added after
    allocation (:meth:`add_ref`).  The columns are as long as
    :attr:`capacity` and replaced, not resized, when the space grows
    (:meth:`add_columns`): read them off the space, never across an
    allocation.  :class:`~repro.heap.objects.HeapObject` is a view of
    one row, made only where a caller asks for one.
    """

    #: the per-object ``array('q')`` columns (each with a ``<name>_np`` view).
    COLUMNS = ("cls", "seq", "home", "length", "payload", "site", "ref_end")

    def __init__(self, registry: ClassRegistry | None = None) -> None:
        self.registry = registry if registry is not None else ClassRegistry()
        #: objects allocated (ids run 0 .. n - 1).
        self.n = 0
        #: site labels by site id; id 0 is "no label".
        self.sites: list[str | None] = [None]
        self._site_id: dict[str, int] = {}
        #: site label -> ``file:line`` of the first allocation carrying
        #: it (the object-centric report's source attribution).
        self.site_origins: dict[str, str] = {}
        #: every object's allocation-time reference targets, in id order.
        self.ref_ids = array("q")
        #: edges added after allocation, by object id.
        self._added_refs: dict[int, list[int]] = {}
        #: the length of every per-object column kept over the space,
        #: grown ahead of allocation (see :meth:`add_columns`).
        self.capacity = 0
        self._column_owners: list = []
        self.add_columns(self)

    def add_columns(self, owner) -> None:
        """Keep ``owner``'s per-object columns as long as the space's
        capacity: ``owner.resize(capacity)`` is called now and whenever
        an allocation outgrows it (by a quarter and then some, so
        resizes are rare and a column's slack stays small)."""
        self._column_owners.append(owner)
        owner.resize(self.capacity)

    def _grow(self, needed: int) -> None:
        self.capacity = max(needed, self.capacity + self.capacity // 4 + 1024)
        for owner in self._column_owners:
            owner.resize(self.capacity)

    def resize(self, capacity: int) -> None:
        """Lengthen the object table's columns to ``capacity``."""
        for name in self.COLUMNS:
            column = array("q", getattr(self, name, ()))
            column.frombytes(bytes(8 * (capacity - len(column))))
            setattr(self, name, column)
            setattr(self, name + "_np", np.frombuffer(column, dtype=np.int64))

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate(
        self,
        jclass: JClass | str,
        home_node: int,
        *,
        length: int = 0,
        refs: Iterable[int] = (),
        site: str | None = None,
    ) -> HeapObject:
        """Allocate one shared object homed at ``home_node``: the
        one-object case of :meth:`allocate_many`.

        Arrays consume ``length`` consecutive per-class sequence numbers
        (one per element); scalar objects consume one.  ``site`` is an
        optional allocation-site label for per-site static/profiling
        reports (defaults to the class name downstream).
        """
        ids = self.allocate_many(
            (jclass,), (home_node,), lengths=(length,), refs=(refs,), sites=site
        )
        return HeapObject(self, ids.start)

    def allocate_many(self, classes, homes, *, lengths=None, refs=None, sites=None) -> range:
        """Allocate ``len(classes)`` objects in order; returns their ids
        (consecutive).  Every argument is per object, in allocation
        order:

        * ``classes`` — :class:`JClass` objects or names, or an integer
          array of this registry's class ids;
        * ``homes`` — home nodes (or one node for all);
        * ``lengths`` — array lengths, 0 for a scalar (None: all 0);
        * ``refs`` — one iterable of target ids per object, or
          ``(targets, counts)``, a pair of integer numpy arrays: every
          object's targets in one flat array and each object's count
          (None: no edges);
        * ``sites`` — labels (or one label, or None, for all).

        Each class's sequence numbers are issued by one ``issue_seq``
        per call, in allocation order, and every column owner grows at
        most once.  A bad object — an unknown class name, an array
        shorter than 1, a scalar with a length — raises the error it
        would raise alone (unknown names are checked first), before
        anything is written.

        A batch of at most :data:`PLAIN_BATCH` objects given as plain
        Python values (a list or tuple of classes, ints, lists) is
        validated and written with Python ints through the ``array``
        columns (:meth:`_allocate_plain`): numpy's per-call cost would
        dominate it.  Both routes share the error messages, the site
        registration and the seq issuing; only the column writes differ.
        """
        if isinstance(classes, (list, tuple)) and len(classes) <= PLAIN_BATCH:
            plain = _plain_args(len(classes), homes, lengths, refs)
            if plain is not None:
                return self._allocate_plain(classes, *plain, sites)
        registry = self.registry
        cids = self._class_ids(classes)
        n = len(cids)
        lengths = np.zeros(n, np.int64) if lengths is None else _column(lengths, n)
        table = registry.table()
        is_array = table.is_array[cids]
        bad = np.flatnonzero(np.where(is_array, lengths < 1, lengths != 0))
        if bad.size:
            k = int(bad[0])
            raise _length_error(registry.by_id(int(cids[k])), int(lengths[k]))
        homes = _column(homes, n)
        if refs is None:
            targets, counts = np.zeros(0, np.int64), np.zeros(n, np.int64)
        elif isinstance(refs, tuple) and len(refs) == 2 and isinstance(refs[0], np.ndarray):
            targets, counts = np.asarray(refs[0], np.int64), _column(refs[1], n)
        else:
            lists = [list(r) for r in refs]
            targets = np.array(list(chain.from_iterable(lists)), dtype=np.int64)
            counts = np.array(list(map(len, lists)), dtype=np.int64)
        labels = _labels(sites, n)
        _check_agree(n, labels, counts, int(counts.sum()), len(targets))

        # Valid: write.
        site_ids = self._site_ids(labels)
        n_seqs = np.where(is_array, lengths, 1)
        seqs = np.empty(n, np.int64)
        at_class = {cid: cids == cid for cid in set(cids.tolist())}
        first = self._issue_seqs({cid: int(n_seqs[at].sum()) for cid, at in at_class.items()})
        for cid, at in at_class.items():
            count = n_seqs[at]
            seqs[at] = np.cumsum(count) - count + first[cid]
        lo = self.n
        hi = lo + n
        if hi > self.capacity:
            self._grow(hi)
        ref_base = len(self.ref_ids)
        self.ref_ids.frombytes(targets.tobytes())
        self.cls_np[lo:hi] = cids
        self.seq_np[lo:hi] = seqs
        self.home_np[lo:hi] = homes
        self.length_np[lo:hi] = lengths
        self.payload_np[lo:hi] = np.where(
            is_array, lengths * table.element_size[cids], table.instance_size[cids]
        )
        self.site_np[lo:hi] = site_ids
        self.ref_end_np[lo:hi] = np.cumsum(counts) + ref_base
        self.n = hi
        return range(lo, hi)

    def _allocate_plain(self, classes, homes, lengths, targets, counts, sites) -> range:
        """:meth:`allocate_many` of a short batch whose per-object
        arguments :func:`_plain_args` turned into lists of ints: the
        same checks and issuing, written row by row with Python ints."""
        n = len(classes)
        cids = self._class_id_list(classes)
        jclasses = list(map(self.registry.by_id, cids))
        for jclass, length in zip(jclasses, lengths):
            if (length < 1) if jclass.is_array else (length != 0):
                raise _length_error(jclass, length)
        labels = _labels(sites, n)
        _check_agree(n, labels, counts, sum(counts), len(targets))

        site_ids = self._site_ids(labels)
        n_seqs = [length if jclass.is_array else 1 for jclass, length in zip(jclasses, lengths)]
        totals = dict.fromkeys(cids, 0)
        for cid, count in zip(cids, n_seqs):
            totals[cid] += count
        next_seq = self._issue_seqs(totals)
        lo = self.n
        hi = lo + n
        if hi > self.capacity:
            self._grow(hi)
        ref_end = len(self.ref_ids)
        self.ref_ids.extend(targets)
        cls, seq, home, length_col = self.cls, self.seq, self.home, self.length
        payload, site, ref_end_col = self.payload, self.site, self.ref_end
        for i, cid, jclass, count in zip(range(lo, hi), cids, jclasses, n_seqs):
            k = i - lo
            cls[i] = cid
            seq[i] = next_seq[cid]
            next_seq[cid] += count
            home[i] = homes[k]
            length_col[i] = lengths[k]
            payload[i] = lengths[k] * jclass.element_size if jclass.is_array else jclass.instance_size
            site[i] = site_ids[k]
            ref_end += counts[k]
            ref_end_col[i] = ref_end
        self.n = hi
        return range(lo, hi)

    def _site_ids(self, labels: list) -> list[int]:
        """Each label's site id (0 for None); a label first seen here is
        registered with the requesting workload line as its origin."""
        site_id = self._site_id
        new = [s for s in dict.fromkeys(labels) if s is not None and s not in site_id]
        if new:
            origin = _caller_origin()
            for label in new:
                site_id[label] = len(self.sites)
                self.sites.append(label)
                self.site_origins[label] = origin
        return [0 if s is None else site_id[s] for s in labels]

    def _issue_seqs(self, totals: dict[int, int]) -> dict[int, int]:
        """The first sequence number of each class's run in a batch,
        issued by one ``issue_seq(total)`` per class, in class-id order."""
        by_id = self.registry.by_id
        return {cid: by_id(cid).issue_seq(totals[cid]) for cid in sorted(totals)}

    def _class_ids(self, classes) -> np.ndarray:
        """``classes`` as an int64 array of this registry's class ids."""
        registry = self.registry
        if isinstance(classes, np.ndarray) and classes.dtype.kind in "iu":
            cids = classes.astype(np.int64)
            if cids.size and not 0 <= int(cids.min()) <= int(cids.max()) < len(registry):
                raise ValueError("allocate_many: class id out of range")
            return cids
        return np.array(self._class_id_list(classes), dtype=np.int64)

    def _class_id_list(self, classes) -> list[int]:
        """``classes`` (:class:`JClass` objects or names) as this
        registry's class ids."""
        registry = self.registry
        out = []
        for jclass in classes:
            if isinstance(jclass, str):
                jclass = registry.get(jclass)
            elif registry.by_id(jclass.class_id) is not jclass:
                raise ValueError(f"class {jclass.name} is not in this space's registry")
            out.append(jclass.class_id)
        return out

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------

    def get(self, obj_id: int) -> HeapObject:
        """The object with id ``obj_id`` (a view of its row); raises
        IndexError for an id never allocated."""
        if not 0 <= obj_id < self.n:
            raise IndexError(f"object id {obj_id} out of range ({self.n} objects)")
        return HeapObject(self, obj_id)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[HeapObject]:
        return (HeapObject(self, i) for i in range(self.n))

    def size_bytes(self, obj_id: int) -> int:
        """Object ``obj_id``'s total size: its payload plus, for an
        array, the class's header bytes."""
        jclass = self.registry.by_id(self.cls[obj_id])
        return self.payload[obj_id] + (jclass.instance_size if jclass.is_array else 0)

    def refs_of(self, obj_id: int) -> list[int]:
        """Object ``obj_id``'s reference targets, in the order added."""
        ref_end = self.ref_end
        out = self.ref_ids[ref_end[obj_id - 1] if obj_id else 0 : ref_end[obj_id]].tolist()
        added = self._added_refs.get(obj_id)
        return out + added if added else out

    def add_ref(self, obj_id: int, target_id: int) -> None:
        """Add a reference edge from ``obj_id`` after its allocation."""
        self._added_refs.setdefault(obj_id, []).append(target_id)

    def ids_of_class(self, jclass: JClass | str) -> list[int]:
        """The ids of one class's objects, ascending."""
        if isinstance(jclass, str):
            jclass = self.registry.get(jclass)
        return np.flatnonzero(self.cls_np[: self.n] == jclass.class_id).tolist()

    def objects_of_class(self, jclass: JClass | str) -> list[HeapObject]:
        """All objects of one class, in allocation order."""
        return [HeapObject(self, i) for i in self.ids_of_class(jclass)]

    def total_bytes(self) -> int:
        """Total bytes (payload plus array headers) in the global object space."""
        header = self.registry.table().header
        n = self.n
        return int(self.payload_np[:n].sum()) + int(header[self.cls_np[:n]].sum())


def _plain_args(n: int, homes, lengths, refs):
    """A short batch's homes, lengths, ref targets and ref counts as
    lists of Python ints, or None when an argument is not plain — one
    int or a list/tuple of ``n`` per object, ref targets as lists/tuples
    of ints — so the numpy route handles it."""
    per = (list, tuple)
    if not (
        (lengths is None or type(lengths) is int or (isinstance(lengths, per) and len(lengths) == n))
        and (type(homes) is int or (isinstance(homes, per) and len(homes) == n))
        and (refs is None or (isinstance(refs, per) and all(isinstance(r, per) for r in refs)))
    ):
        return None
    lengths = [0] * n if lengths is None else [lengths] * n if type(lengths) is int else list(lengths)
    homes = [homes] * n if type(homes) is int else list(homes)
    targets = [] if refs is None else [t for r in refs for t in r]
    if not all(type(v) is int for v in chain(lengths, homes, targets)):
        return None
    counts = [0] * n if refs is None else list(map(len, refs))
    return homes, lengths, targets, counts


def _labels(sites, n: int) -> list:
    """``sites`` (one label or None for all, or one per object) as a list."""
    return [sites] * n if isinstance(sites, str) or sites is None else list(sites)


def _length_error(jclass: JClass, length: int) -> ValueError:
    """The error of an array shorter than 1 or a scalar with a length."""
    if jclass.is_array:
        return ValueError(f"array of class {jclass.name} needs length >= 1, got {length}")
    return ValueError(f"scalar class {jclass.name} cannot take a length")


def _check_agree(n: int, labels: list, counts, n_counted: int, n_targets: int) -> None:
    """Raise unless there is one label and one ref count per object and
    the counts add up to the targets given."""
    if len(labels) != n or len(counts) != n or n_counted != n_targets:
        raise ValueError(f"allocate_many: per-object arguments disagree with {n} classes")


def _column(values, n: int) -> np.ndarray:
    """``values`` (one int or ``n`` of them) as an int64 array of ``n``."""
    out = np.asarray(values, dtype=np.int64)
    if out.ndim == 0:
        return np.full(n, out, dtype=np.int64)
    if out.shape != (n,):
        raise ValueError(f"allocate_many: expected {n} values, got shape {out.shape}")
    return out


class LocalHeap:
    """One node's copies of the global object space, as columns indexed
    by object id, as JESSICA2's local heaps hold home and cache copies
    alike.

    ``state`` (a ``bytearray``) holds each object's state byte and
    ``fetched`` (an ``array('q')``) the home version its cached data
    corresponds to; ``state_np`` and ``fetched_np`` are numpy views of
    the same memory.  So there is one representation with two read
    paths: the protocol's per-op path indexes the ``bytearray`` or
    ``array`` and gets a plain ``int``, its batch paths gather and
    compare through the views at C speed.  What the bytes mean is the
    DSM layer's (:mod:`repro.dsm.states`).  Twin state is
    sparse: ``twins`` maps each cache copy written this interval to
    ``[dirty bytes, writer thread ids]``.

    The columns are as long as the space's capacity
    (:meth:`GlobalObjectSpace.add_columns`) and replaced, not resized,
    when it grows: read them off the heap, never across an allocation.
    Copies are never dropped.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.state = bytearray()
        self.fetched = array("q")
        #: cache copy id -> ``[dirty bytes, writer thread ids]``, for the
        #: copies written this interval (the entry is the twin).
        self.twins: dict[int, list] = {}
        self.resize(0)

    def resize(self, capacity: int) -> None:
        """Lengthen every column to ``capacity`` (new ids absent)."""
        grow = capacity - len(self.state)
        self.state = self.state + bytes(grow)
        self.fetched = array("q", self.fetched)
        self.fetched.frombytes(bytes(8 * grow))
        self.state_np = np.frombuffer(self.state, dtype=np.uint8)
        self.fetched_np = np.frombuffer(self.fetched, dtype=np.int64)

    def __contains__(self, obj_id: int) -> bool:
        return self.state[obj_id] != 0

    def __len__(self) -> int:
        """Copies held: ids whose state byte is not absent (0)."""
        return int(np.count_nonzero(self.state_np))

