"""Bulk allocation is one-at-a-time allocation: any interleaving of
``allocate`` and ``allocate_many`` (plus later ``add_ref``) leaves the
same object table, and bad input raises the one-object error and leaves
the space as it was."""

from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.heap.heap as heap_module
from repro.heap.heap import GlobalObjectSpace

#: (name, is_array, size): scalars take an instance size, arrays an element size.
CLASSES = [("Obj", False, 64), ("Small", False, 8), ("double[]", True, 8), ("int[]", True, 4)]
SITES = [None, "s.a", "s.b", "s.c"]


def make_gos() -> GlobalObjectSpace:
    gos = GlobalObjectSpace()
    for name, is_array, size in CLASSES:
        if is_array:
            gos.registry.define(name, is_array=True, element_size=size)
        else:
            gos.registry.define(name, size)
    return gos


def snapshot(gos: GlobalObjectSpace) -> dict:
    """Everything observable about the space's object table."""
    objs = list(gos)
    return {
        "rows": [
            (o.obj_id, o.jclass.name, o.seq, o.home_node, o.length, o.refs, o.site, o.size_bytes)
            for o in objs
        ],
        "next_seq": [c.next_seq for c in gos.registry],
        "by_class": {c.name: gos.ids_of_class(c) for c in gos.registry},
        "objects_of_class": {
            c.name: [o.obj_id for o in gos.objects_of_class(c.name)] for c in gos.registry
        },
        "total_bytes": gos.total_bytes(),
        "len": len(gos),
        # The origin's file (each space's first allocation of a label ran
        # on a different line of this file).
        "origins": {k: v.rsplit(":", 1)[0] for k, v in gos.site_origins.items()},
    }


@st.composite
def specs(draw):
    """One object: (class index, home, length, refs, site)."""
    k = draw(st.integers(0, len(CLASSES) - 1))
    length = draw(st.integers(1, 40)) if CLASSES[k][1] else 0
    refs = draw(st.lists(st.integers(0, 50), max_size=4))
    return k, draw(st.integers(0, 3)), length, refs, draw(st.sampled_from(SITES))


STEPS = st.one_of(
    st.tuples(st.just("one"), specs()),
    st.tuples(
        st.just("many"),
        st.lists(specs(), max_size=8),
        st.sampled_from(["names", "classes", "ids"]),
        st.booleans(),  # refs as (targets, counts)
        st.booleans(),  # one site for the batch
    ),
    st.tuples(st.just("add_ref"), st.integers(0, 10_000), st.integers(0, 50)),
)


def allocate_one(gos, spec):
    k, home, length, refs, site = spec
    return gos.allocate(CLASSES[k][0], home, length=length, refs=refs, site=site)


def allocate_batch(gos, batch, class_form, csr, one_site):
    if class_form == "names":
        classes = [CLASSES[k][0] for k, *_ in batch]
    elif class_form == "classes":
        classes = [gos.registry.get(CLASSES[k][0]) for k, *_ in batch]
    else:
        classes = np.array([k for k, *_ in batch], dtype=np.int64)
    refs = [spec[3] for spec in batch]
    if csr:
        refs = (
            np.array([t for r in refs for t in r], dtype=np.int64),
            np.array([len(r) for r in refs], dtype=np.int64),
        )
    sites = batch[0][4] if one_site and batch else [spec[4] for spec in batch]
    if one_site:
        batch = [(*spec[:4], sites) for spec in batch]
    ids = gos.allocate_many(
        classes,
        [spec[1] for spec in batch],
        lengths=[spec[2] for spec in batch],
        refs=refs,
        sites=sites,
    )
    return ids, batch


@settings(max_examples=120, deadline=None)
@given(st.lists(STEPS, max_size=12))
def test_bulk_allocation_equals_one_at_a_time(steps):
    bulk, single = make_gos(), make_gos()
    for step in steps:
        if step[0] == "one":
            assert allocate_one(bulk, step[1]).obj_id == allocate_one(single, step[1]).obj_id
        elif step[0] == "many":
            ids, batch = allocate_batch(bulk, *step[1:])
            assert list(ids) == [allocate_one(single, spec).obj_id for spec in batch]
        elif len(bulk):
            obj_id = step[1] % len(bulk)
            bulk.get(obj_id).add_ref(step[2])
            single.get(obj_id).add_ref(step[2])
    assert snapshot(bulk) == snapshot(single)
    for label, origin in bulk.site_origins.items():
        path, line = origin.rsplit(":", 1)
        assert path.endswith("tests/heap/test_allocate_many.py") and int(line) > 0


#: bad objects: an array shorter than 1, a scalar with a length, an unknown class.
BAD = st.sampled_from(
    [
        ("double[]", 0, ValueError, r"array of class double\[\] needs length >= 1, got 0"),
        ("int[]", -3, ValueError, r"array of class int\[\] needs length >= 1, got -3"),
        ("Obj", 2, ValueError, "scalar class Obj cannot take a length"),
        ("Nope", 0, KeyError, "class 'Nope' is not defined"),
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(specs(), max_size=4), st.lists(specs(), max_size=5), st.data())
def test_bad_input_raises_the_one_object_error_and_changes_nothing(before, batch, data):
    name, length, error, message = data.draw(BAD)
    at = data.draw(st.integers(0, len(batch)))
    gos = make_gos()
    for spec in before:
        allocate_one(gos, spec)
    unchanged = snapshot(gos)
    with pytest.raises(error, match=message):
        gos.allocate(name, 0, length=length, site="s.new")
    assert snapshot(gos) == unchanged
    classes = [CLASSES[k][0] for k, *_ in batch]
    classes.insert(at, name)
    lengths = [spec[2] for spec in batch]
    lengths.insert(at, length)
    with pytest.raises(error, match=message):
        gos.allocate_many(classes, 0, lengths=lengths, sites="s.new")
    assert snapshot(gos) == unchanged
    assert "s.new" not in gos.site_origins


def test_bulk_build_creates_no_heap_object(monkeypatch):
    """A bulk build makes no ``HeapObject``: rows are columns until a
    caller asks for a view."""
    import repro.heap.objects as objects
    from repro.runtime.djvm import DJVM
    from repro.workloads import BarnesHutWorkload, SORWorkload, WaterSpatialWorkload

    made = []
    original = objects.HeapObject.__init__

    def counting(self, space, obj_id):
        made.append(obj_id)
        original(self, space, obj_id)

    monkeypatch.setattr(objects.HeapObject, "__init__", counting)
    for cls, sizes in (
        (BarnesHutWorkload, {"n_bodies": 256, "rounds": 2}),
        (WaterSpatialWorkload, {"n_molecules": 128, "rounds": 2, "grid": 3}),
        (SORWorkload, {"n": 64, "rounds": 2}),
    ):
        djvm = DJVM(4)
        cls(n_threads=4, seed=0, **sizes).build(djvm)
        # One view per one-object allocate's return value (the body and
        # matrix arrays), none per bulk-allocated object.
        assert len(made) <= 1, (cls.__name__, len(made))
        made.clear()


def numpy_route():
    """Every batch on the numpy route, however short (the plain-int
    route takes batches of at most ``PLAIN_BATCH`` plain values)."""
    return patch.object(heap_module, "PLAIN_BATCH", -1)


@settings(max_examples=80, deadline=None)
@given(st.lists(STEPS, max_size=12))
def test_both_sides_of_the_plain_batch_cutoff_leave_the_same_columns(steps):
    plain, vector = make_gos(), make_gos()
    for step in steps:
        for gos, route in ((plain, nullcontext()), (vector, numpy_route())):
            with route:
                if step[0] == "one":
                    allocate_one(gos, step[1])
                elif step[0] == "many":
                    allocate_batch(gos, *step[1:])
                elif len(gos):
                    gos.get(step[1] % len(gos)).add_ref(step[2])
    assert snapshot(plain) == snapshot(vector)
    for name in GlobalObjectSpace.COLUMNS:
        assert getattr(plain, name)[: plain.n] == getattr(vector, name)[: vector.n], name
    assert plain.ref_ids == vector.ref_ids


@settings(max_examples=60, deadline=None)
@given(st.lists(specs(), max_size=5), st.data())
def test_both_sides_of_the_plain_batch_cutoff_raise_the_same_error(batch, data):
    name, length, error, _ = data.draw(BAD)
    at = data.draw(st.integers(0, len(batch)))
    classes = [CLASSES[k][0] for k, *_ in batch]
    lengths = [spec[2] for spec in batch]
    sites: object = "s.new"
    if data.draw(st.booleans()):
        classes.insert(at, name)
        lengths.insert(at, length)
    else:
        error, sites = ValueError, ["s.new"] * (len(batch) + 1)
    outcomes = []
    for route in (nullcontext(), numpy_route()):
        gos = make_gos()
        with route, pytest.raises(error) as info:
            gos.allocate_many(classes, 0, lengths=lengths, sites=sites)
        outcomes.append((type(info.value), str(info.value), snapshot(gos)))
    assert outcomes[0] == outcomes[1]
