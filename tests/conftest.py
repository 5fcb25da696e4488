"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel


@pytest.fixture
def djvm2() -> DJVM:
    """A 2-node DJVM with fast-test cost scaling."""
    return DJVM(n_nodes=2, costs=CostModel.fast_test())


@pytest.fixture
def djvm4() -> DJVM:
    """A 4-node DJVM with fast-test cost scaling."""
    return DJVM(n_nodes=4, costs=CostModel.fast_test())


def simple_class(djvm: DJVM, name: str = "Obj", size: int = 64):
    """Define (or fetch) a scalar class."""
    if name in djvm.registry:
        return djvm.registry.get(name)
    return djvm.define_class(name, size)


def array_class(djvm: DJVM, name: str = "Arr", elem: int = 8):
    """Define (or fetch) an array class."""
    if name in djvm.registry:
        return djvm.registry.get(name)
    return djvm.define_class(name, is_array=True, element_size=elem)


def run_program(djvm: DJVM, ops_by_thread: dict[int, list]) -> None:
    """Attach and run raw op lists (threads must already be spawned)."""
    djvm.run({tid: list(ops) for tid, ops in ops_by_thread.items()})


def record_deliveries(collector) -> list:
    """The OAL batches delivered to ``collector`` from now on, in order:
    the collector folds each at its delivery and keeps none."""
    delivered = []
    deliver = collector.deliver

    def recording(batch, **kw):
        delivered.append(batch)
        deliver(batch, **kw)

    collector.deliver = recording
    return delivered


@contextmanager
def tracked_per_interval():
    """Inside the block, every :class:`~repro.core.footprint.
    StickySetFootprinter` interval close records its tracked sampled ids
    (one set per closed interval, by thread id, in close order) into the
    dict yielded: the per-interval history a footprinter keeps only a
    window and a union of."""
    from repro.core.footprint import StickySetFootprinter

    closed: dict[int, list[set[int]]] = {}
    close = StickySetFootprinter.on_interval_close

    def recording(self, thread, interval, sync_dst):
        count = self._count.get(thread.thread_id)
        if count is not None:
            closed.setdefault(thread.thread_id, []).append(set(count))
        close(self, thread, interval, sync_dst)

    with patch.object(StickySetFootprinter, "on_interval_close", recording):
        yield closed


@contextmanager
def footprints_per_interval():
    """Inside the block, every :class:`~repro.core.footprint.
    StickySetFootprinter` interval close records the interval's
    per-class footprint (one dict per closed interval, empty ones
    included, by thread id, in close order) into the dict yielded: the
    per-interval history a footprinter keeps only sums and a window
    of."""
    from repro.core.footprint import StickySetFootprinter

    closed: dict[int, list[dict[str, int]]] = {}
    close = StickySetFootprinter.on_interval_close

    def recording(self, thread, interval, sync_dst):
        count = self._count.get(thread.thread_id)
        if count is not None:
            fp = self._footprint_from_counts(count, self._scaled[thread.thread_id])
            closed.setdefault(thread.thread_id, []).append(fp)
        close(self, thread, interval, sync_dst)

    with patch.object(StickySetFootprinter, "on_interval_close", recording):
        yield closed


def wrap_main(ops: list, anchor: int | None = None) -> list:
    """Wrap an op list in a main() frame (with an optional anchor ref)."""
    refs = [(0, anchor)] if anchor is not None else []
    return [P.call("main", n_slots=4, refs=refs), *ops, P.ret()]



#: the cyclic-collector states a caller may leave when it calls
#: ``DJVM.run``: untouched, disabled, or its heap frozen.
GC_STATES = ("enabled", "disabled", "frozen")


@contextmanager
def caller_gc_state(state: str):
    """Put the cyclic collector in one of :data:`GC_STATES` for the
    block, as a caller of ``DJVM.run`` might, then restore it."""
    was_enabled = gc.isenabled()
    if state == "disabled":
        gc.disable()
    elif state == "frozen":
        gc.freeze()
    try:
        yield
    finally:
        if state == "frozen":
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def gc_state() -> tuple[bool, bool]:
    """(collector enabled, some heap frozen): what ``DJVM.run`` must
    leave as it found it.  Not the freeze count itself, which drops
    whenever a frozen object dies."""
    return gc.isenabled(), gc.get_freeze_count() > 0
