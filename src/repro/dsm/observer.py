"""The one protocol-event vocabulary: :class:`ProtocolObserver`.

Everything that *watches* a run — protocol sanitizer, race detector,
span tracer, object-centric profiler, a test's recorder — subclasses
this and overrides the transitions it folds.  The engine keeps one
list (``HomeBasedLRC.observers``, shared by the migration engine, the
access profiler, the correlation collector and the interpreter), emits
each transition at one site with one argument list, and skips the
whole fan-out behind one ``if observers:`` test when nothing is
attached.  Attach with ``DJVM.attach(observer)``.

``HomeBasedLRC.attach`` resolves an observer's dispatch from what its
class overrides.  ``on_access`` and ``on_fault`` are the two events the
vector engine's one pass does not emit, so an observer overriding
either keeps the run on the scalar loop; every other event is emitted
the same way on both routes.

Contract: an observer only *reads* simulated state and writes its own —
it never advances a simulated clock, charges CPU, sends a message or
touches a copy, a notice or an OAL batch, whether through an argument,
through the engine ``bind`` hands it, or through a helper — so
:func:`repro.runtime.djvm.run_fingerprint` is equal with any set of
observers attached.  The proof is dynamic:
``tests/dsm/test_observers.py`` runs the shipped observers together on
three workloads and both replay engines, and shows that each seeded
violation of this contract changes the fingerprint.  That is the
difference to :class:`~repro.dsm.hlrc.ProtocolHooks`, the paper's
profiler interface, whose callbacks carry a cost model.

Times are read off the thread's clock at the call (``thread.clock``);
a ``begin_ns`` argument marks where a transition that took simulated
time started.
"""

from __future__ import annotations


class ProtocolObserver:
    """No-op base: one method per protocol transition."""

    __slots__ = ()

    def bind(self, hlrc) -> None:
        """Attached to ``hlrc`` (once, from ``HomeBasedLRC.attach``)."""

    def on_suite_attach(self, suite) -> None:
        """A :class:`~repro.core.profiler.ProfilerSuite` was wired in."""

    # -- intervals and accesses (dsm/hlrc.py) ---------------------------

    def on_interval_open(self, thread) -> None:
        """``thread.current_interval`` just opened (hooks already ran)."""

    def on_access(self, thread, obj_id, is_write, repeat, state, obj, faulted) -> None:
        """One access op — ``repeat`` accesses of ``obj_id`` — that found
        (or left) the node's copy in ``state``, a
        :class:`~repro.dsm.states.RealState` (dispatched only to observers that override it;
        ``obj`` is None on a plain hit that never looked it up).  The
        thread's clock reads the op's access instant: after its access,
        fault and twin charges, before any hook's."""

    def on_fault(self, thread, obj, refault, begin_ns, n_objects) -> None:
        """Remote fetch round trip done (``n_objects`` incl. prefetch
        bundle; ``refault`` = an invalidated copy was replaced)."""

    def on_diff(self, thread, obj_id, dirty, begin_ns) -> None:
        """``dirty`` bytes of a cache copy flushed to the home."""

    def on_notice(self, thread, obj_id, version) -> None:
        """Write notice ``(obj_id, version)`` appended to the global log."""

    def on_interval_close(self, thread, interval) -> None:
        """``interval`` closed: diffs flushed, notices out, hooks done."""

    def on_apply_notices(self, thread, start, end) -> None:
        """``thread``'s node drains notices ``[start, end)`` (emitted
        even when the range is empty)."""

    def on_invalidations(self, thread, obj_ids) -> None:
        """Notice application invalidated ``obj_ids`` on ``thread``'s node."""

    # -- synchronization (dsm/hlrc.py) ----------------------------------

    def on_lock_acquire(self, thread, lock_id) -> None:
        """Lock granted to ``thread`` (before notices are applied)."""

    def on_lock_release(self, thread, lock_id) -> None:
        """``thread`` released the lock (its interval already closed)."""

    def on_barrier_arrive(self, thread, barrier_id, parties) -> None:
        """``thread`` registered at the barrier."""

    def on_barrier_resume(self, thread, barrier_id) -> None:
        """A released waiter's clock was aligned and notices applied."""

    def on_barrier_release(self, barrier_id, parties, waiters, release_ns, threads_by_id) -> None:
        """The barrier episode completed, waking ``waiters`` (thread ids)."""

    # -- runtime (runtime/migration.py, runtime/interpreter.py) ---------

    def on_migration(self, thread, result, begin_ns) -> None:
        """``thread`` now runs on ``result.to_node``."""

    def on_event_pop(self, kernel_now_ns, event) -> None:
        """The event kernel popped ``event``."""

    def on_run_end(self, threads) -> None:
        """The event kernel drained; every thread finished."""

    # -- profiler (core/access_profiler.py, core/collector.py) ----------

    def on_oal_log(self, thread, interval_id, obj_id) -> None:
        """The access profiler logged ``obj_id`` into the thread's OAL."""

    def on_oal_flush(self, thread, batch, begin_ns) -> None:
        """One OAL batch packed (and, when enabled, shipped)."""

    def on_tcm_window(self, master_node, begin_ns, duration_ns, entries, window_index) -> None:
        """The master daemon folded one correlation window."""
