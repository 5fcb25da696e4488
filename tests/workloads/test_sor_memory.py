"""A run's host memory does not grow with its length.

SOR's rounds repeat one red/black sweep, so its program holds four
segment bodies per thread whatever the round count, and the notice log
is a running digest, so nothing the protocol keeps grows with the
notices published.  The traced peak of building, emitting and running
SOR at 8R rounds therefore stays within a quarter of the peak at R
rounds (with every round emitted whole and every notice kept, 8R
rounds peaked at 3.6 times R rounds here).
"""

import tracemalloc

from repro.runtime.djvm import DJVM
from repro.workloads import SORWorkload


def traced_peak(rounds: int) -> int:
    """tracemalloc's peak over build + programs + run of a small SOR."""
    tracemalloc.start()
    try:
        workload = SORWorkload(n=512, rounds=rounds, n_threads=4, seed=0)
        djvm = DJVM(4)
        workload.build(djvm, placement="block")
        djvm.run(workload.programs())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sor_peak_memory_is_flat_in_rounds():
    traced_peak(2)  # one-off allocations (imports, caches) out of the way
    short, long = traced_peak(4), traced_peak(32)
    assert long <= 1.25 * short, (short, long)


def test_sor_program_holds_four_bodies_whatever_the_rounds():
    """Bodies: head + red, black, red, the final RET; one sequence entry
    per segment (2 per round + the last); store bytes fixed in rounds."""
    stores = {}
    for rounds in (2, 60):
        workload = SORWorkload(n=256, rounds=rounds, n_threads=4, seed=0)
        workload.build(DJVM(4), placement="block")
        for tid, program in workload.programs().items():
            assert len(program.body_lo) == 4
            assert len(program.seg_body) == 2 * rounds + 1
            assert program.seg_body[:4] == [0, 1, 2, 1] and program.seg_body[-1] == 3
            assert program.seg_arg[:-1] == list(range(2 * rounds))
            columns = (program._codes, *program._views)
            stores.setdefault(tid, []).append(sum(len(bytes(c)) for c in columns))
    assert all(short == long for short, long in stores.values())
