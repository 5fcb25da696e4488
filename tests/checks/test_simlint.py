"""simlint rule fixtures: one positive (finding fires), one negative
(clean code), and one disabled-by-comment case per rule."""

from __future__ import annotations

import pytest

from repro.checks.simlint import RULES, check_paths, check_source

#: a path inside the deterministic core (SIM001/2/3/4/8 scope).
CORE = "src/repro/dsm/somefile.py"
#: a path outside the deterministic core.
OUTSIDE = "src/repro/analysis/somefile.py"
#: a hot module (SIM005 scope).
HOT = "src/repro/dsm/states.py"
#: a test file (only SIM006 applies).
TESTISH = "tests/core/test_somefile.py"


def codes(source: str, path: str) -> list[str]:
    return [f.code for f in check_source(source, path)]


# ---------------------------------------------------------------------------
# SIM001: wall-clock reads
# ---------------------------------------------------------------------------


def test_sim001_positive_module_attr():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert codes(src, CORE) == ["SIM001"]


def test_sim001_positive_from_import():
    src = "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
    assert "SIM001" in codes(src, CORE)


def test_sim001_negative_outside_core():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert codes(src, OUTSIDE) == []


def test_sim001_negative_sim_clock():
    src = "def f(clock):\n    return clock.now_ns\n"
    assert codes(src, CORE) == []


def test_sim001_disabled():
    src = "import time\n\ndef f():\n    return time.time()  # simlint: disable=SIM001\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM002: global/unseeded RNG
# ---------------------------------------------------------------------------


def test_sim002_positive_module_random():
    src = "import random\n\ndef f():\n    return random.random()\n"
    assert codes(src, CORE) == ["SIM002"]


def test_sim002_positive_from_random_import():
    src = "from random import shuffle\n"
    assert codes(src, CORE) == ["SIM002"]


def test_sim002_positive_numpy_global():
    src = "import numpy as np\n\ndef f():\n    np.random.seed(1)\n"
    assert codes(src, CORE) == ["SIM002"]


def test_sim002_positive_unseeded_default_rng():
    src = "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
    assert codes(src, CORE) == ["SIM002"]


def test_sim002_negative_seeded():
    src = (
        "import random\nimport numpy as np\n\n"
        "def f(seed):\n"
        "    return random.Random(seed), np.random.default_rng(seed)\n"
    )
    assert codes(src, CORE) == []


def test_sim002_disabled():
    src = "import random\n\ndef f():\n    return random.random()  # simlint: disable=SIM002\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM003: unordered iteration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "loop",
    [
        "for x in {1, 2, 3}:\n    pass\n",
        "for x in set(items):\n    pass\n",
        "for k in d.keys():\n    pass\n",
        "for v in d.values():\n    pass\n",
        "for k, v in d.items():\n    pass\n",
        "out = [v for v in d.values()]\n",
        "out = {k: v for k, v in d.items()}\n",
        "for o in interval.written:\n    pass\n",
        "for o in a.union(b):\n    pass\n",
        "out = [x for x in frozenset(items)]\n",
    ],
)
def test_sim003_positive(loop):
    src = "def f(items, d, interval, a, b):\n" + "".join(
        "    " + line + "\n" for line in loop.splitlines()
    )
    assert "SIM003" in codes(src, CORE)


def test_sim003_positive_set_algebra_known_name():
    src = "def f(written, other):\n    for o in written | other:\n        pass\n"
    assert codes(src, CORE) == ["SIM003"]


@pytest.mark.parametrize(
    "loop",
    [
        "for x in sorted({1, 2, 3}):\n    pass\n",
        "for x in sorted(interval.written):\n    pass\n",
        "for i, x in enumerate(sorted(written)):\n    pass\n",
        "for x in items:\n    pass\n",
        "for k in d:\n    pass\n",  # dicts preserve insertion order
        "for k, v in sorted(d.items()):\n    pass\n",
        "for v in list(sorted(d.values())):\n    pass\n",
    ],
)
def test_sim003_negative(loop):
    src = "def f(items, d, interval, written):\n" + "".join(
        "    " + line + "\n" for line in loop.splitlines()
    )
    assert codes(src, CORE) == []


def test_sim003_negative_outside_core():
    src = "def f(written):\n    for o in written:\n        pass\n"
    assert codes(src, OUTSIDE) == []


def test_sim003_disabled():
    src = (
        "def f(written):\n"
        "    for o in written:  # simlint: disable=SIM003\n"
        "        pass\n"
    )
    assert codes(src, CORE) == []


def test_sim003_dict_view_disabled_with_justification():
    src = (
        "def f(d):\n"
        "    for k, v in d.items():  # simlint: disable=SIM003 (integer sum; order cannot leak)\n"
        "        pass\n"
    )
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM004: id()-based ordering
# ---------------------------------------------------------------------------


def test_sim004_positive():
    src = "def f(objs):\n    return sorted(objs, key=lambda o: id(o))\n"
    assert codes(src, CORE) == ["SIM004"]


def test_sim004_negative_stable_field():
    src = "def f(objs):\n    return sorted(objs, key=lambda o: o.obj_id)\n"
    assert codes(src, CORE) == []


def test_sim004_negative_outside_core():
    src = "def f(o):\n    return id(o)\n"
    assert codes(src, OUTSIDE) == []


def test_sim004_disabled():
    src = "def f(o):\n    return id(o)  # simlint: disable=SIM004\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM005: hot-path classes without __slots__
# ---------------------------------------------------------------------------


def test_sim005_positive():
    src = "class Record:\n    def __init__(self):\n        self.x = 1\n"
    assert codes(src, HOT) == ["SIM005"]


def test_sim005_negative_slots():
    src = "class Record:\n    __slots__ = ('x',)\n"
    assert codes(src, HOT) == []


def test_sim005_negative_dataclass_slots():
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(slots=True)\nclass Record:\n    x: int = 0\n"
    )
    assert codes(src, HOT) == []


def test_sim005_negative_exception_exempt():
    src = "class ProtocolError(RuntimeError):\n    pass\n"
    assert codes(src, HOT) == []


def test_sim005_negative_cold_module():
    src = "class Record:\n    def __init__(self):\n        self.x = 1\n"
    assert codes(src, OUTSIDE) == []


def test_sim005_disabled():
    src = "class Record:  # simlint: disable=SIM005\n    def __init__(self):\n        self.x = 1\n"
    assert codes(src, HOT) == []


# ---------------------------------------------------------------------------
# SIM006: mutable default arguments (applies everywhere, tests included)
# ---------------------------------------------------------------------------


def test_sim006_positive_list_literal():
    src = "def f(x=[]):\n    return x\n"
    assert codes(src, TESTISH) == ["SIM006"]


def test_sim006_positive_kwonly_dict_call():
    src = "def f(*, cache=dict()):\n    return cache\n"
    assert codes(src, CORE) == ["SIM006"]


def test_sim006_negative_none_default():
    src = "def f(x=None, y=(), z=0):\n    return x, y, z\n"
    assert codes(src, CORE) == []


def test_sim006_disabled():
    src = "def f(x=[]):  # simlint: disable=SIM006\n    return x\n"
    assert codes(src, TESTISH) == []


# ---------------------------------------------------------------------------
# SIM007: heapq outside the event kernel
# ---------------------------------------------------------------------------


def test_sim007_positive_import():
    src = "import heapq\n"
    assert codes(src, CORE) == ["SIM007"]


def test_sim007_positive_from_import():
    src = "from heapq import heappush\n"
    assert codes(src, OUTSIDE) == ["SIM007"]


def test_sim007_negative_event_kernel():
    src = "import heapq\n"
    assert codes(src, "src/repro/sim/events.py") == []


def test_sim007_negative_tests():
    src = "import heapq\n"
    assert codes(src, TESTISH) == []


def test_sim007_disabled():
    src = "import heapq  # simlint: disable=SIM007\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM008: environment reads in the deterministic core
# ---------------------------------------------------------------------------


def test_sim008_positive_environ():
    src = "import os\n\ndef f():\n    return os.environ['SCALE']\n"
    assert codes(src, CORE) == ["SIM008"]


def test_sim008_positive_getenv():
    src = "import os\n\ndef f():\n    return os.getenv('SCALE')\n"
    assert "SIM008" in codes(src, CORE)


def test_sim008_negative_outside_core():
    src = "import os\n\ndef f():\n    return os.environ['SCALE']\n"
    assert codes(src, OUTSIDE) == []


def test_sim008_disabled():
    src = "import os\n\ndef f():\n    return os.environ['SCALE']  # simlint: disable=SIM008\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM009: direct counters[...] mutation outside the metrics registry
# ---------------------------------------------------------------------------


def test_sim009_positive_augassign():
    src = "class C:\n    def f(self):\n        self.counters['faults'] += 1\n"
    assert codes(src, CORE) == ["SIM009"]


def test_sim009_positive_assign():
    src = "def f(hlrc):\n    hlrc.counters['diffs'] = 0\n"
    assert codes(src, CORE) == ["SIM009"]


def test_sim009_negative_read_only():
    src = "def f(hlrc):\n    return hlrc.counters['faults']\n"
    assert codes(src, CORE) == []


def test_sim009_negative_testish():
    src = "def f(hlrc):\n    hlrc.counters['faults'] += 1\n"
    assert codes(src, TESTISH) == []


def test_sim009_negative_metrics_home():
    src = "def f(self):\n    self.counters['faults'] += 1\n"
    assert codes(src, "src/repro/obs/metrics.py") == []


def test_sim009_disabled():
    src = "def f(hlrc):\n    hlrc.counters['x'] += 1  # simlint: disable=SIM009\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM010: process machinery in the deterministic core
# ---------------------------------------------------------------------------


def test_sim010_positive_import_multiprocessing():
    src = "import multiprocessing\n"
    assert "SIM010" in codes(src, CORE)


@pytest.mark.parametrize("subtree", ["sim", "dsm", "runtime", "core"])
def test_sim010_positive_in_each_core_subtree(subtree):
    src = "import threading\n"
    assert codes(src, f"src/repro/{subtree}/somefile.py") == ["SIM010"]


def test_sim010_positive_from_import():
    src = "from concurrent.futures import ProcessPoolExecutor\n"
    assert "SIM010" in codes(src, CORE)


def test_sim010_positive_os_fork():
    src = "import os\n\ndef f():\n    return os.fork()\n"
    assert "SIM010" in codes(src, CORE)


def test_sim010_positive_time_sleep():
    src = "import time\n\ndef f():\n    time.sleep(0.1)\n"
    assert "SIM010" in codes(src, CORE)


def test_sim010_no_harness_exemption():
    """No module name inside the core buys an exemption."""
    src = "import multiprocessing\n"
    assert "SIM010" in codes(src, "src/repro/sim/harness.py")


def test_sim010_negative_outside_core():
    src = "import multiprocessing\n"
    assert "SIM010" not in codes(src, "src/repro/obs/somefile.py")


def test_sim010_negative_testish():
    src = "import multiprocessing\n"
    assert "SIM010" not in codes(src, "tests/sim/test_events.py")


def test_sim010_negative_clean_core_module():
    src = "def f(kernel):\n    return kernel.pop()\n"
    assert codes(src, CORE) == []


def test_sim010_disabled():
    src = "import multiprocessing  # simlint: disable=SIM010\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM011: sampling-state mutation outside repro/core/sampling.py
# ---------------------------------------------------------------------------

#: the one module allowed to mutate sampling state (SIM011's exemption).
SAMPLING = "src/repro/core/sampling.py"


def test_sim011_positive_gap_table_assign():
    src = "def f(policy, cid):\n    policy.gap_table[cid] = 7\n"
    assert codes(src, CORE) == ["SIM011"]


def test_sim011_positive_counter_augassign():
    src = "def f(backend, cid):\n    backend.sample_counts[cid] += 1\n"
    assert codes(src, CORE) == ["SIM011"]


def test_sim011_positive_state_attr_assign():
    src = "def f(st):\n    st.real_gap = 127\n"
    assert codes(src, CORE) == ["SIM011"]


def test_sim011_positive_counter_clear_call():
    src = "def f(backend):\n    backend.skip_counts.clear()\n"
    assert codes(src, CORE) == ["SIM011"]


def test_sim011_positive_outside_core_too():
    # Unlike SIM003, scope is the whole tree, not just the deterministic
    # core — analysis code bypassing set_rate is just as damaging.
    src = "def f(policy, cid):\n    policy.gap_table[cid] = 7\n"
    assert codes(src, OUTSIDE) == ["SIM011"]


def test_sim011_negative_read_only():
    src = "def f(policy, cid):\n    return policy.gap_table[cid]\n"
    assert codes(src, CORE) == []


def test_sim011_negative_sampling_home():
    src = "def f(policy, cid):\n    policy.gap_table[cid] = 7\n"
    assert codes(src, SAMPLING) == []


def test_sim011_negative_testish():
    src = "def f(policy, cid):\n    policy.gap_table[cid] = 7\n"
    assert codes(src, TESTISH) == []


def test_sim011_disabled():
    src = "def f(st):\n    st.real_gap = 127  # simlint: disable=SIM011\n"
    assert codes(src, CORE) == []


# ---------------------------------------------------------------------------
# SIM012: shared-annotated objects mutate under a lock
# ---------------------------------------------------------------------------

#: a workload module (SIM012's natural habitat; the rule applies to any
#: non-test module with a # shared annotation).
WORKLOAD = "src/repro/workloads/somefile.py"

SHARED_PREAMBLE = """\
class W:
    def build(self, djvm):
        self.counter_id = djvm.allocate(cls, 0).obj_id  # shared
        self.scratch_ids = [djvm.allocate(cls, 0).obj_id for _ in range(4)]

"""


def test_sim012_positive_bare_write():
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.write(self.counter_id)\n"
    )
    assert codes(src, WORKLOAD) == ["SIM012"]


def test_sim012_positive_conditional_lock_does_not_cover():
    """An acquire inside an `if` arm must not suppress the finding —
    depth is tracked per block."""
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        if self.locked:\n"
        "            yield P.acquire(0)\n"
        "        yield P.write(self.counter_id)\n"
        "        if self.locked:\n"
        "            yield P.release(0)\n"
    )
    assert codes(src, WORKLOAD) == ["SIM012"]


def test_sim012_negative_locked_write():
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.acquire(0)\n"
        "        yield P.write(self.counter_id)\n"
        "        yield P.release(0)\n"
    )
    assert codes(src, WORKLOAD) == []


def test_sim012_negative_thread_partitioned_write():
    src = SHARED_PREAMBLE + (
        "    def gen(self, thread_id):\n"
        "        yield P.write(self.scratch_ids[thread_id])\n"
    )
    assert codes(src, WORKLOAD) == []


def test_sim012_negative_unannotated_name():
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.write(self.scratch_ids[0])\n"
    )
    assert codes(src, WORKLOAD) == []


def test_sim012_negative_read_is_fine():
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.read(self.counter_id)\n"
    )
    assert codes(src, WORKLOAD) == []


def test_sim012_negative_no_annotation_no_rule():
    src = (
        "class W:\n"
        "    def build(self, djvm):\n"
        "        self.counter_id = djvm.allocate(cls, 0).obj_id\n"
        "    def gen(self):\n"
        "        yield P.write(self.counter_id)\n"
    )
    assert codes(src, WORKLOAD) == []


def test_sim012_negative_testish():
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.write(self.counter_id)\n"
    )
    assert codes(src, TESTISH) == []


def test_sim012_disabled():
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.write(self.counter_id)  # simlint: disable=SIM012\n"
    )
    assert codes(src, WORKLOAD) == []


def test_sim012_lock_scope_is_per_block():
    """A write *after* the locked block's release is flagged."""
    src = SHARED_PREAMBLE + (
        "    def gen(self):\n"
        "        yield P.acquire(0)\n"
        "        yield P.write(self.counter_id)\n"
        "        yield P.release(0)\n"
        "        yield P.write(self.counter_id)\n"
    )
    assert codes(src, WORKLOAD) == ["SIM012"]


# ---------------------------------------------------------------------------
# SIM013: silent exception swallows in the engine
# ---------------------------------------------------------------------------

#: a path inside the SIM013 engine scope.
ENGINE = "src/repro/runtime/somefile.py"
HEAP = "src/repro/heap/somefile.py"


def test_sim013_positive_except_exception_pass():
    src = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
    assert codes(src, ENGINE) == ["SIM013"]
    assert codes(src, HEAP) == ["SIM013"]


def test_sim013_positive_bare_except():
    src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
    assert codes(src, ENGINE) == ["SIM013"]


def test_sim013_positive_ellipsis_body():
    src = "def f():\n    try:\n        g()\n    except BaseException:\n        ...\n"
    assert codes(src, ENGINE) == ["SIM013"]


def test_sim013_negative_narrow_type():
    src = "def f():\n    try:\n        g()\n    except KeyError:\n        pass\n"
    assert codes(src, ENGINE) == []


def test_sim013_negative_handled():
    src = (
        "def f(log):\n    try:\n        g()\n"
        "    except Exception as exc:\n        log.append(exc)\n"
    )
    assert codes(src, ENGINE) == []


def test_sim013_negative_outside_engine_scope():
    src = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
    assert codes(src, OUTSIDE) == []
    assert codes(src, TESTISH) == []


def test_sim013_disabled():
    src = (
        "def f():\n    try:\n        g()\n"
        "    except Exception:  # simlint: disable=SIM013\n        pass\n"
    )
    assert codes(src, ENGINE) == []


# ---------------------------------------------------------------------------
# engine behaviour
# ---------------------------------------------------------------------------


def test_disable_all():
    src = "import heapq  # simlint: disable=all\n"
    assert codes(src, CORE) == []


def test_disable_several_codes():
    src = "import time, heapq  # simlint: disable=SIM007, SIM001\n"
    assert codes(src, CORE) == []


def test_render_format():
    findings = check_source("import heapq\n", CORE)
    assert len(findings) == 1
    rendered = findings[0].render()
    assert rendered.startswith(f"{CORE}:1:0: SIM007 ")


def test_syntax_error_reported_not_raised():
    findings = check_source("def f(:\n", CORE)
    assert [f.code for f in findings] == ["SIM000"]


def test_every_rule_has_catalog_entry():
    assert set(RULES) == {f"SIM00{i}" for i in range(1, 10)} | {
        "SIM010",
        "SIM011",
        "SIM012",
        "SIM013",
    }


def test_repo_tree_is_clean():
    """The whole tree must lint clean — the make check gate relies on it."""
    assert check_paths(["src", "tests", "benchmarks"]) == []
