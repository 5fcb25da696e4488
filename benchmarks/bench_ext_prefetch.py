"""Extension — inter-object affinity prefetching (the paper's type-3
affinity, delegated to its companion paper on access-path analysis).

Barnes-Hut's force phase faults remote partner bodies and then reads
their position vectors — a perfectly learnable access path (Body.pos).
The connectivity prefetcher learns the field heat online and bundles the
vector into the body's fault reply; measured here: fault-count and
execution-time reduction against the same run without prefetching, with
the bandwidth cost of mispredictions reported.
"""

from common import PAPER_SCALE, record_table, scaled

from repro.analysis.report import Table
from repro.core.prefetch import ConnectivityPrefetcher
from repro.runtime.djvm import DJVM
from repro.workloads import BarnesHutWorkload


def run(enable: bool):
    wl = BarnesHutWorkload(
        n_bodies=scaled(4096, 1024), rounds=scaled(5, 3), n_threads=16, seed=2
    )
    djvm = DJVM(n_nodes=8)
    wl.build(djvm)
    prefetcher = None
    if enable:
        prefetcher = ConnectivityPrefetcher(
            djvm.gos, threshold=0.6, min_faults=3, max_depth=1
        )
        djvm.add_hook(prefetcher)
    result = djvm.run(wl.programs())
    return result, prefetcher


def test_ext_prefetch(benchmark):
    def experiment():
        base, _ = run(False)
        opt, prefetcher = run(True)
        return base, opt, prefetcher

    base, opt, prefetcher = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = Table(
        "Extension: access-path connectivity prefetching on Barnes-Hut"
        + ("" if PAPER_SCALE else "  [reduced scale]"),
        ["Config", "Faults", "Exec (ms)", "Fetch traffic (KB)"],
    )
    from repro.sim.network import MessageKind

    def fetch_kb(res):
        return res.traffic.bytes_by_kind.get(MessageKind.OBJECT_FETCH_DATA, 0) / 1024

    table.add_row("no prefetch", base.counters["faults"],
                  f"{base.execution_time_ms:.0f}", f"{fetch_kb(base):.0f}")
    table.add_row("path prefetch", opt.counters["faults"],
                  f"{opt.execution_time_ms:.0f}", f"{fetch_kb(opt):.0f}")
    table.add_row(
        "(bundled)",
        prefetcher.bundled_objects,
        "-",
        f"{prefetcher.bundled_bytes / 1024:.0f}",
    )
    record_table("ext_prefetch", table.render())

    # Prefetching removes a meaningful share of faults...
    assert opt.counters["faults"] < 0.85 * base.counters["faults"]
    # ...without inflating the fetched byte volume unreasonably
    # (mispredictions cost bytes; a correct predictor stays near parity).
    assert fetch_kb(opt) < 1.3 * fetch_kb(base)
    # And the saved round trips show up as time.
    assert opt.execution_time_ms <= base.execution_time_ms
