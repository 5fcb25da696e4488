"""Control-flow graph + fixed-point dataflow over workload programs.

Thread programs are loop-free op streams, so each thread's CFG is a
linear chain of **segments** — maximal op spans between synchronization
ops (the exact spans the interpreter executes without preemption under
lazy release consistency).  Cross-thread structure comes from barriers:
every thread issues the same barrier-id sequence (verified as IR008),
so the k-th barrier of each thread forms one global **episode**, and
the segments between episodes k-1 and k form **phase** k — the unit of
static concurrency (two ops are concurrent only if their segments share
a phase; everything across a barrier is happens-before ordered by the
barrier's all-thread join).

On top of the graph sits a small generic worklist solver
(:func:`fixed_point`); the one instance the analyses need today is the
**must-hold lockset** (meet = set intersection over predecessors,
transfer = the segment terminator's acquire/release effect), which
annotates every segment with the locks certainly held while its ops
execute.  Loop-free chains converge in one pass, but the solver is
deliberately general so richer lattices (e.g. copy-state facts) can
reuse it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator

from repro.runtime.program import (
    NO_SYNC,
    OP_ACQUIRE,
    OP_BARRIER,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
)

__all__ = ["Segment", "ThreadCFG", "WorkloadCFG", "build_cfg", "fixed_point"]


@dataclass(slots=True)
class Segment:
    """One uninterrupted op span of one thread (a CFG node)."""

    thread_id: int
    #: position in the thread's chain (0-based).
    index: int
    #: op span [start, end) in the compiled program; sync ops excluded.
    start: int
    end: int
    #: barrier episodes completed before this segment runs.
    phase: int
    #: the sync op ending the segment, or None at program end.
    terminator: tuple | None
    #: obj_id -> repeat-weighted access counts inside the span.
    reads: dict[int, int] = field(default_factory=dict)
    writes: dict[int, int] = field(default_factory=dict)
    #: must-hold lockset while the span executes (dataflow result).
    locks: frozenset[int] = frozenset()

    @property
    def n_ops(self) -> int:
        """Ops in the span (terminator excluded)."""
        return self.end - self.start


@dataclass(slots=True)
class ThreadCFG:
    """One thread's linear segment chain."""

    thread_id: int
    segments: list[Segment]
    #: barrier ids in program order (the thread's episode sequence).
    barrier_ids: tuple


class WorkloadCFG:
    """The whole-workload CFG: per-thread chains aligned at barriers."""

    def __init__(self, threads: dict[int, ThreadCFG], n_phases: int) -> None:
        self.threads = threads
        #: phase count = barrier episodes + 1 (the final phase runs from
        #: the last barrier to program end).
        self.n_phases = n_phases

    def segments(self) -> Iterator[Segment]:
        """All segments, thread-major then program order."""
        for tid in sorted(self.threads):
            yield from self.threads[tid].segments


def _split_thread(thread_id: int, program) -> ThreadCFG:
    """Split one compiled program into its segment chain and summarize
    each segment's accesses — once per distinct body, copied to every
    segment that runs it."""
    codes = program._codes
    args, _elems, reps, _offs = program._views
    summaries: dict[int, tuple[dict, dict]] = {}
    segments: list[Segment] = []
    barrier_ids: list[int] = []
    phase = 0
    for index, (base, b, code, ident) in enumerate(
        zip(program.seg_base, program.seg_body, program.seg_code, program.seg_arg)
    ):
        lo, hi = program.body_lo[b], program.body_hi[b]
        summary = summaries.get(b)
        if summary is None:
            reads: dict[int, int] = {}
            writes: dict[int, int] = {}
            for pc in range(lo, hi):
                op = codes[pc]
                if op == OP_READ:
                    reads[args[pc]] = reads.get(args[pc], 0) + reps[pc]
                elif op == OP_WRITE:
                    writes[args[pc]] = writes.get(args[pc], 0) + reps[pc]
            summary = summaries[b] = (reads, writes)
        terminator = (code, ident) if code != NO_SYNC else None
        segments.append(
            Segment(
                thread_id=thread_id,
                index=index,
                start=base,
                end=base + hi - lo,
                phase=phase,
                terminator=terminator,
                reads=dict(summary[0]),
                writes=dict(summary[1]),
            )
        )
        if code == OP_BARRIER:
            barrier_ids.append(ident)
            phase += 1
    return ThreadCFG(thread_id=thread_id, segments=segments, barrier_ids=tuple(barrier_ids))


def fixed_point(
    nodes: list[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    init: Callable[[Hashable], object],
    transfer: Callable[[Hashable, object], object],
    meet: Callable[[object, object], object],
) -> dict[Hashable, object]:
    """Generic worklist dataflow solver; returns the IN fact per node.

    ``init(node)`` seeds entry nodes (and the optimistic start value for
    the rest — return ``None`` for ⊤, which :func:`meet` never sees);
    ``transfer(node, in_fact)`` produces the node's OUT fact;
    ``meet(a, b)`` combines predecessor OUT facts.  Iterates to a fixed
    point in reverse-post-order-ish worklist fashion; on the loop-free
    chains built here that is a single pass, but cyclic graphs converge
    too (given a monotone transfer over a finite lattice).
    """
    preds: dict[Hashable, list[Hashable]] = {n: [] for n in nodes}
    succs: dict[Hashable, list[Hashable]] = {n: [] for n in nodes}
    for src, dst in edges:
        preds[dst].append(src)
        succs[src].append(dst)
    in_facts: dict[Hashable, object] = {n: init(n) for n in nodes}
    work = deque(nodes)
    queued = set(nodes)
    while work:
        node = work.popleft()
        queued.discard(node)
        if preds[node]:
            combined = None
            for p in preds[node]:
                p_in = in_facts[p]
                if p_in is None:
                    continue
                out = transfer(p, p_in)
                combined = out if combined is None else meet(combined, out)
            if combined is None or combined == in_facts[node]:
                continue
            in_facts[node] = combined
        for s in succs[node]:
            if s not in queued:
                queued.add(s)
                work.append(s)
    return in_facts


def _solve_locksets(tcfg: ThreadCFG) -> None:
    """Annotate a thread chain with must-hold locksets via the solver."""
    segs = tcfg.segments
    nodes = [s.index for s in segs]
    edges = [(i, i + 1) for i in nodes[:-1]]

    def init(index):
        return frozenset() if index == 0 else None

    def transfer(index, held: frozenset) -> frozenset:
        term = segs[index].terminator
        if term is None:
            return held
        if term[0] == OP_ACQUIRE:
            return held | {term[1]}
        if term[0] == OP_RELEASE:
            return held - {term[1]}
        return held  # BARRIER: locks pass through (IR006 flags this)

    facts = fixed_point(nodes, edges, init, transfer, lambda a, b: a & b)
    for seg in segs:
        fact = facts[seg.index]
        seg.locks = fact if fact is not None else frozenset()


def build_cfg(ir) -> WorkloadCFG:
    """Build the workload CFG from a verified :class:`~repro.runtime.ir.
    WorkloadIR`: split every thread at its sync points, align phases at
    barriers, and solve the must-hold lockset dataflow."""
    threads: dict[int, ThreadCFG] = {}
    n_phases = 1
    for tid in ir.thread_ids():
        tcfg = _split_thread(tid, ir.programs[tid])
        _solve_locksets(tcfg)
        threads[tid] = tcfg
        n_phases = max(n_phases, len(tcfg.barrier_ids) + 1)
    return WorkloadCFG(threads, n_phases)
