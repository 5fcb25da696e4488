"""simlint: the repo-specific determinism lint pass.

The simulator's correctness contract is *bit-identical simulated
results* across runs (TCM bytes, thread clocks, protocol counters, event
traces).  Nothing in Python enforces that contract: a stray
``time.time()``, an unseeded ``random`` call, or a ``for`` loop over a
bare ``set`` can silently smuggle host-process state into simulated
results and only show up weeks later as a flaky checksum.  simlint is a
static AST pass (stdlib :mod:`ast`, no third-party dependencies) that
rejects those patterns at ``make check`` time.

Rule catalog
------------

========  ==============================================================
SIM001    wall-clock read (``time.time()``, ``datetime.now()``, …)
          inside the deterministic core (``repro/{sim,dsm,runtime,core}``)
SIM002    global/unseeded RNG (module-level ``random.*``, numpy global
          state, argument-less ``default_rng()``) in the deterministic core
SIM003    iteration over a container without a canonical order (``set``
          literal/call, ``.keys()``/``.values()``/``.items()``, set
          algebra, known set-valued names) without ``sorted(...)`` in
          the deterministic core
SIM004    ``id()``-based ordering/keying in the deterministic core
SIM005    hot-path class without ``__slots__`` (configured hot modules)
SIM006    mutable default argument (``def f(x=[])``) anywhere
SIM007    direct ``heapq`` use outside the event kernel
          (``repro/sim/events.py``) — all scheduling must go through
          the event kernel
SIM008    environment read (``os.environ`` / ``os.getenv``) inside the
          deterministic core (config must flow through constructors)
SIM009    direct ``counters[...]`` mutation outside the metrics
          registry (``repro/obs/``) — statistics flow through typed
          registry handles, not ad-hoc dicts
SIM010    wall-clock/OS-level process API (``multiprocessing``,
          ``subprocess``, ``threading``, ``signal``, ``os.fork``/
          ``os.spawn*``/``os.getpid``, ``time.sleep``, …) inside the
          deterministic core — the simulation is one process on one
          deterministic event stream
SIM011    direct mutation of sampling state (``gap_table[...]``,
          backend decision counters, ``real_gap``/``epoch`` fields) outside ``repro/core/sampling.py`` — rate changes
          flow through ``SamplingPolicy.set_rate``/``set_min_gap`` so
          every backend observes a consistent epoch
SIM012    write to a shared-annotated object outside a lock region: a
          binding whose line carries a trailing ``# shared`` comment
          marks the object as cross-thread shared, and ``write(...)``
          calls naming it must sit between ``acquire``/``release`` in
          the same block (writes indexed by ``thread_id``/``tid`` are
          thread-partitioned and exempt)
SIM013    silent exception swallow (``except Exception: pass`` /
          ``except: pass``) inside the engine subtrees
          (``repro/{runtime,dsm,sim,heap}/``) — a swallowed error there
          turns a crash into a silent divergence of simulated state
========  ==============================================================

Escape hatch: append ``# simlint: disable=SIM003`` (comma-separate for
several codes, or ``disable=all``) to the offending line.  A disable on
the line of a ``def``/``class`` statement covers that statement's
header only, not the whole body — exemptions stay visibly local.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "check_source",
    "check_file",
    "check_paths",
    "RULES",
]

#: package subtrees forming the deterministic simulation core.
DETERMINISTIC_PREFIXES = (
    "repro/sim/",
    "repro/dsm/",
    "repro/runtime/",
    "repro/core/",
)

#: modules whose classes sit on simulation hot paths (one instance per
#: event / interval / object touch) and therefore must carry __slots__.
HOT_MODULES = frozenset(
    {
        "repro/sim/events.py",
        "repro/sim/clock.py",
        "repro/runtime/thread.py",
        "repro/runtime/stack.py",
        "repro/dsm/states.py",
        "repro/dsm/intervals.py",
        "repro/heap/objects.py",
        "repro/core/oal.py",
        "repro/core/footprint.py",
    }
)

#: the one module allowed to touch heapq directly: the event kernel.
HEAPQ_HOME = frozenset({"repro/sim/events.py"})

#: modules whose import into the deterministic core breaks the
#: determinism-by-construction contract (SIM010).
PROCESS_BANNED_MODULES = frozenset(
    {
        "multiprocessing",
        "subprocess",
        "threading",
        "concurrent",
        "signal",
        "socket",
        "ctypes",
        "asyncio",
    }
)

#: os.<attr> process APIs banned inside the deterministic core.
OS_PROCESS_ATTRS = frozenset(
    {
        "fork",
        "forkpty",
        "system",
        "popen",
        "kill",
        "killpg",
        "getpid",
        "getppid",
        "waitpid",
        "wait",
        "pipe",
        "dup",
        "dup2",
    }
)
OS_PROCESS_PREFIXES = ("spawn", "exec", "sched_", "wait")

#: names that hold sets in this codebase; iterating them without
#: sorted() feeds hash order into event scheduling / TCM accrual.
KNOWN_SET_NAMES = frozenset(
    {"written", "writers", "thread_ids", "phases", "pending", "sticky_ids", "live_refs"}
)

#: wall-clock call sites: (qualifier, attribute) pairs and bare names
#: importable from the owning module.
WALL_CLOCK_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
WALL_CLOCK_FROM_IMPORTS = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "monotonic"),
    ("time", "process_time"),
}

#: numpy.random attributes that are legal (seeded, explicit-generator).
NUMPY_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "BitGenerator"}

#: base classes that exempt a class from SIM005 (no per-instance dict
#: concern, or slots handled by the metaclass/typing machinery).
SLOTLESS_BASES = {
    "Protocol",
    "NamedTuple",
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
    "Exception",
    "TypedDict",
    "ABC",
}

_DISABLE_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")

#: trailing ``# shared`` annotation marking a binding as cross-thread
#: shared state (SIM012's opt-in scope).
_SHARED_RE = re.compile(r"#\s*shared\s*$")

#: argument names marking a write as thread-partitioned (SIM012 exempt):
#: ``write(pool[thread_id])`` is per-thread data behind the barrier
#: discipline, not a cross-thread mutation.
_THREAD_PARTITION_NAMES = frozenset({"thread_id", "tid"})


@dataclass(frozen=True)
class Finding:
    """One lint finding: where, which rule, and why."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: CODE message`` report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: code -> one-line rule summary (the catalog the CLI prints).
RULES: dict[str, str] = {
    "SIM001": "wall-clock read in the deterministic core",
    "SIM002": "global/unseeded RNG in the deterministic core",
    "SIM003": "iteration over a set or dict view without a canonical sorted() order",
    "SIM004": "id()-based ordering or keying in the deterministic core",
    "SIM005": "hot-path class without __slots__",
    "SIM006": "mutable default argument",
    "SIM007": "direct heapq use outside the event kernel (repro/sim/events.py)",
    "SIM008": "environment read inside the deterministic core",
    "SIM009": "direct counters[...] mutation outside the metrics registry (repro/obs/)",
    "SIM010": "process/wall-clock API (multiprocessing, threading, os.fork, time.sleep, ...) in the deterministic core",
    "SIM011": "direct sampling-state mutation (gap_table / per-class counters) outside repro/core/sampling.py",
    "SIM012": "write to a shared-annotated object outside an acquire/release region",
    "SIM013": "silent exception swallow (except ...: pass) inside the engine subtrees",
}

#: subtrees where a silently swallowed exception means silent state
#: divergence rather than a visible crash (SIM013's scope).
SILENT_SWALLOW_PREFIXES = (
    "repro/runtime/",
    "repro/dsm/",
    "repro/sim/",
    "repro/heap/",
)

#: module prefix exempt from SIM009 — the registry itself.
METRICS_HOME_PREFIX = "repro/obs/"

#: the one module allowed to mutate sampling state (SIM011).
SAMPLING_HOME = "repro/core/sampling.py"

#: container names SIM011 guards against subscript mutation: the policy
#: gap table and the backend counters.
SAMPLING_CONTAINERS = frozenset({"gap_table", "sample_counts", "skip_counts"})

#: per-class state fields SIM011 guards against attribute assignment —
#: mutating these bypasses the epoch bump backends rely on.
SAMPLING_STATE_ATTRS = frozenset({"real_gap", "nominal_gap", "epoch", "min_gap"})

#: dict/list mutator methods covered by the SIM011 call check.
SAMPLING_MUTATORS = frozenset({"clear", "update", "pop", "popitem", "setdefault"})


# ---------------------------------------------------------------------------
# path scoping
# ---------------------------------------------------------------------------


def module_path(path: str) -> str:
    """Normalize a file path to its ``repro/...`` module path (or the
    posix-normalized path itself when outside the package)."""
    norm = Path(path).as_posix()
    for marker in ("/repro/", "repro/"):
        idx = norm.find(marker)
        if idx >= 0:
            return norm[idx + len(marker) - len("repro/") :]
    return norm


def _is_deterministic(mod: str) -> bool:
    return any(mod.startswith(p) for p in DETERMINISTIC_PREFIXES)


def _is_test_or_bench(path: str) -> bool:
    norm = "/" + Path(path).as_posix()
    return "/tests/" in norm or "/benchmarks/" in norm or norm.endswith("conftest.py")


# ---------------------------------------------------------------------------
# disable comments
# ---------------------------------------------------------------------------


def _disabled_lines(source: str) -> dict[int, set[str]]:
    """line number -> set of disabled codes (``{"all"}`` disables all)."""
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _DISABLE_RE.search(text)
        if m:
            codes = {c.strip().upper() for c in m.group(1).split(",") if c.strip()}
            codes = {"ALL" if c == "ALL" else c for c in codes}
            out[lineno] = codes
    return out


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty list for non-chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _Checker(ast.NodeVisitor):
    """One-file rule dispatcher."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.mod = module_path(path)
        self.testish = _is_test_or_bench(path)
        self.deterministic = not self.testish and _is_deterministic(self.mod)
        self.hot_module = not self.testish and self.mod in HOT_MODULES
        #: SIM013 scope: engine subtree where swallowed errors diverge state.
        self.engine_module = not self.testish and self.mod.startswith(
            SILENT_SWALLOW_PREFIXES
        )
        self.disabled = _disabled_lines(source)
        self.findings: list[Finding] = []
        #: names bound by ``from time import ...`` that read the wall clock.
        self._wall_clock_names: set[str] = set()
        #: local aliases of the numpy module ("np", "numpy", ...).
        self._numpy_aliases: set[str] = set()
        #: lines carrying a trailing ``# shared`` annotation (SIM012).
        self._shared_lines: set[int] = {
            lineno
            for lineno, text in enumerate(source.splitlines(), start=1)
            if _SHARED_RE.search(text)
        }
        #: names bound on shared-annotated lines (filled by
        #: :meth:`collect_shared_names` before the visit pass).
        self._shared_names: set[str] = set()

    # -- reporting -----------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        codes = self.disabled.get(line, ())
        if code in codes or "ALL" in codes:
            return
        self.findings.append(
            Finding(self.path, line, getattr(node, "col_offset", 0), code, message)
        )

    # -- imports (feed several rules) ----------------------------------

    def _check_process_import(self, node: ast.AST, module_name: str) -> None:
        """SIM010: a deterministic-core module importing process machinery."""
        root = module_name.split(".", 1)[0]
        if self.deterministic and root in PROCESS_BANNED_MODULES:
            self.report(
                node,
                "SIM010",
                f"import {module_name} inside the deterministic core; the "
                "simulation runs in one process on one event stream",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "heapq" and self.mod not in HEAPQ_HOME and not self.testish:
                self.report(
                    node,
                    "SIM007",
                    "import heapq outside the event kernel; schedule through "
                    "repro.sim.events.EventLoop instead",
                )
            self._check_process_import(node, alias.name)
            if alias.name == "numpy":
                self._numpy_aliases.add(alias.asname or "numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if mod:
            self._check_process_import(node, mod)
        for alias in node.names:
            if mod == "heapq" and self.mod not in HEAPQ_HOME and not self.testish:
                self.report(
                    node,
                    "SIM007",
                    f"from heapq import {alias.name} outside the event kernel; "
                    "schedule through repro.sim.events.EventLoop instead",
                )
            if self.deterministic:
                if (mod, alias.name) in WALL_CLOCK_FROM_IMPORTS:
                    self._wall_clock_names.add(alias.asname or alias.name)
                if mod == "random":
                    self.report(
                        node,
                        "SIM002",
                        f"from random import {alias.name}: module-level random "
                        "state is process-global and unseeded; use "
                        "repro.util.rng.seeded_rng or random.Random(seed)",
                    )
        self.generic_visit(node)

    # -- calls (SIM001/SIM002/SIM004) ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        self._check_sampling_mutator_call(node)
        if self.deterministic:
            chain = _attr_chain(func)
            if chain:
                pair = (chain[-2], chain[-1]) if len(chain) >= 2 else None
                # SIM001: wall-clock reads.
                if pair in WALL_CLOCK_ATTRS:
                    self.report(
                        node,
                        "SIM001",
                        f"wall-clock read {'.'.join(chain)}() in the deterministic "
                        "core; simulated time must come from SimClock/EventLoop",
                    )
                # SIM002: module-level random.* (random.Random(seed) is fine).
                if (
                    len(chain) == 2
                    and chain[0] == "random"
                    and chain[1] not in ("Random", "SystemRandom")
                ):
                    self.report(
                        node,
                        "SIM002",
                        f"random.{chain[1]}() uses process-global RNG state; "
                        "use repro.util.rng.seeded_rng or random.Random(seed)",
                    )
                # SIM002: numpy global-state RNG (np.random.seed/rand/...).
                if (
                    len(chain) >= 3
                    and chain[0] in self._numpy_aliases
                    and chain[1] == "random"
                    and chain[2] not in NUMPY_RANDOM_OK
                ):
                    self.report(
                        node,
                        "SIM002",
                        f"{'.'.join(chain)}() mutates numpy's global RNG state; "
                        "use numpy.random.default_rng(seed)",
                    )
                # SIM002: default_rng() with no seed argument.
                if chain[-1] == "default_rng" and not node.args and not node.keywords:
                    self.report(
                        node,
                        "SIM002",
                        "default_rng() without a seed draws OS entropy; pass an "
                        "explicit seed",
                    )
            if isinstance(func, ast.Name):
                if func.id in self._wall_clock_names:
                    self.report(
                        node,
                        "SIM001",
                        f"wall-clock read {func.id}() in the deterministic core; "
                        "simulated time must come from SimClock/EventLoop",
                    )
                # SIM004: id()-based ordering/keying.
                if func.id == "id" and len(node.args) == 1:
                    self.report(
                        node,
                        "SIM004",
                        "id() is allocation-order dependent and differs across "
                        "runs; key/order by a stable field (obj_id, thread_id, seq)",
                    )
        self.generic_visit(node)

    # -- attribute reads (SIM008, SIM010) ------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _attr_chain(node) if self.deterministic else []
        if len(chain) >= 2:
            if chain[0] == "os" and chain[1] in ("environ", "getenv"):
                self.report(
                    node,
                    "SIM008",
                    f"os.{chain[1]} read in the deterministic core; configuration "
                    "must flow through constructors so runs are reproducible",
                )
            elif chain[0] == "os" and (
                chain[1] in OS_PROCESS_ATTRS or chain[1].startswith(OS_PROCESS_PREFIXES)
            ):
                self.report(
                    node,
                    "SIM010",
                    f"os.{chain[1]} inside the deterministic core; the "
                    "simulation runs in one process on one event stream",
                )
            elif chain[0] == "time" and chain[1] == "sleep":
                self.report(
                    node,
                    "SIM010",
                    "time.sleep inside the deterministic core; simulated "
                    "time advances through the event kernel, never the "
                    "host clock",
                )
        self.generic_visit(node)

    # -- iteration (SIM003) --------------------------------------------

    def _unordered_reason(self, node: ast.AST) -> str | None:
        """Why iterating ``node`` is hash-ordered, or None if it is not."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return f"a {node.func.id}() result"
            attr = _terminal_name(node.func)
            if attr == "keys":
                return "dict.keys() (require sorted() or iterate the dict itself)"
            if attr in ("values", "items"):
                # Dicts preserve insertion order, but insertion order is
                # arrival history — two code paths that populate the same
                # mapping differently iterate it differently.  The
                # deterministic core requires a canonical order.
                return (
                    f"dict.{attr}() (insertion order is arrival history, not a "
                    f"canonical order; iterate sorted({'d.items()' if attr == 'items' else 'd'})"
                    " or justify with a disable)"
                )
            if attr in ("union", "intersection", "difference", "symmetric_difference"):
                return f"a set.{attr}() result"
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            left = self._unordered_reason(node.left)
            right = self._unordered_reason(node.right)
            if left or right:
                return left or right
            # Set algebra over known set names (written | writers).
            if _terminal_name(node.left) in KNOWN_SET_NAMES or (
                _terminal_name(node.right) in KNOWN_SET_NAMES
            ):
                return "set algebra over a known set-valued name"
            return None
        name = _terminal_name(node)
        if name in KNOWN_SET_NAMES:
            return f"'{name}', a known set-valued name in this codebase"
        return None

    def _check_iterable(self, iter_node: ast.AST, where: ast.AST) -> None:
        if not self.deterministic:
            return
        # sorted(...)/list(sorted(...)) wrappers make the order explicit.
        if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
            if iter_node.func.id == "sorted":
                return
            if iter_node.func.id in ("list", "tuple", "enumerate", "reversed") and iter_node.args:
                self._check_iterable(iter_node.args[0], where)
                return
        reason = self._unordered_reason(iter_node)
        if reason:
            self.report(
                where,
                "SIM003",
                f"iterating {reason}: hash order can leak into event scheduling "
                "or TCM accrual; wrap in sorted() or use an ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, node)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", ()):
            self._check_iterable(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- classes (SIM005) ----------------------------------------------

    @staticmethod
    def _dataclass_slots(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and _terminal_name(deco.func) == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        return False

    @staticmethod
    def _defines_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for tgt in targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                    return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_module:
            exempt = any(
                (_terminal_name(base) or "") in SLOTLESS_BASES
                or (_terminal_name(base) or "").endswith("Error")
                or (_terminal_name(base) or "").endswith("Exception")
                for base in node.bases
            )
            if not exempt and not self._defines_slots(node) and not self._dataclass_slots(node):
                self.report(
                    node,
                    "SIM005",
                    f"hot-path class {node.name} has no __slots__; instances are "
                    "created per event/interval/object and per-instance dicts "
                    "dominate their footprint",
                )
        self.generic_visit(node)

    # -- function defs (SIM006) ----------------------------------------

    @staticmethod
    def _is_mutable_default(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray", "defaultdict", "deque")
        return False

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if self._is_mutable_default(default):
                self.report(
                    default,
                    "SIM006",
                    f"mutable default argument in {node.name}(); the instance is "
                    "shared across calls — default to None (or a tuple) and "
                    "construct inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_shared_writes(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_shared_writes(node)
        self.generic_visit(node)

    # -- SIM012: shared-annotated objects mutate under a lock ------------

    def collect_shared_names(self, tree: ast.AST) -> None:
        """Pre-pass: gather every name bound on a ``# shared`` line.

        Runs before the visit pass so a write in one method sees
        annotations made in another (``build()`` marks, ``_generate()``
        writes)."""
        if self.testish or not self._shared_lines:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            lines = range(node.lineno, (node.end_lineno or node.lineno) + 1)
            if not self._shared_lines.intersection(lines):
                continue
            for tgt in targets:
                name = _terminal_name(tgt)
                if name:
                    self._shared_names.add(name)

    @staticmethod
    def _stmt_call(stmt: ast.stmt) -> ast.Call | None:
        """The op-emitting call of a statement: ``P.write(...)`` or
        ``yield P.write(...)`` as an expression statement."""
        if not isinstance(stmt, ast.Expr):
            return None
        value = stmt.value
        if isinstance(value, ast.Yield):
            value = value.value
        return value if isinstance(value, ast.Call) else None

    @staticmethod
    def _names_in(node: ast.AST) -> set[str]:
        out: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
        return out

    def _check_shared_writes(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """SIM012: scan a function body for ``write(<shared>)`` calls at
        lock depth zero.  Depth is tracked per block — an ``acquire``
        inside an ``if`` arm does not cover the statements after it —
        which is exactly the conditional-locking bug the rule exists to
        catch."""
        if self.testish or not self._shared_names:
            return
        self._scan_shared_block(node.body, 0)

    def _scan_shared_block(self, stmts: list[ast.stmt], depth: int) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # visited on their own
            call = self._stmt_call(stmt)
            if call is not None:
                name = _terminal_name(call.func)
                if name == "acquire":
                    depth += 1
                elif name == "release":
                    depth = max(depth - 1, 0)
                elif name == "write" and depth == 0 and call.args:
                    self._check_shared_write(call)
                continue
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if sub:
                    self._scan_shared_block(sub, depth)
            for handler in getattr(stmt, "handlers", ()):
                self._scan_shared_block(handler.body, depth)

    def _check_shared_write(self, call: ast.Call) -> None:
        names = self._names_in(call.args[0])
        shared = sorted(names & self._shared_names)
        if not shared or names & _THREAD_PARTITION_NAMES:
            return
        self.report(
            call,
            "SIM012",
            f"write({shared[0]}) mutates a shared-annotated object outside "
            "an acquire/release region; hold the lock across the write or "
            "index by thread_id to make the partitioning explicit",
        )

    # -- SIM013: silent exception swallows in the engine -----------------

    @staticmethod
    def _is_noop_body(body: list[ast.stmt]) -> bool:
        """A handler body that discards the error: only ``pass`` /
        bare ``...`` statements."""
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            ):
                continue
            return False
        return True

    def visit_Try(self, node: ast.Try) -> None:
        if self.engine_module:
            for handler in node.handlers:
                caught = _terminal_name(handler.type) if handler.type is not None else None
                broad = handler.type is None or caught in ("Exception", "BaseException")
                if broad and self._is_noop_body(handler.body):
                    what = f"except {caught}" if caught else "bare except"
                    self.report(
                        handler,
                        "SIM013",
                        f"{what}: pass silently swallows errors inside the engine; "
                        "a fault here must surface (re-raise, narrow the type, or "
                        "record it) — silent swallows turn crashes into state "
                        "divergence",
                    )
        self.generic_visit(node)

    # -- SIM009: counters must live in the metrics registry -------------

    def _check_counters_mutation(self, target: ast.AST, node: ast.AST) -> None:
        """Flag ``<x>.counters[...] = / += ...`` outside ``repro/obs/``:
        protocol statistics belong to the metrics registry (typed
        handles), not ad-hoc dicts the telemetry layer cannot see."""
        if self.testish or self.mod.startswith(METRICS_HOME_PREFIX):
            return
        if isinstance(target, ast.Subscript) and _terminal_name(target.value) == "counters":
            self.report(
                node,
                "SIM009",
                "direct counters[...] mutation; use a metrics-registry Counter "
                "handle (repro.obs.metrics) so the stat is typed, snapshot-"
                "ordered and visible to telemetry",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_counters_mutation(target, node)
            self._check_sampling_mutation(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_counters_mutation(node.target, node)
        self._check_sampling_mutation(node.target, node)
        self.generic_visit(node)

    # -- SIM011: sampling state is sampling.py's to mutate ---------------

    def _sampling_exempt(self) -> bool:
        return self.testish or self.mod == SAMPLING_HOME

    def _check_sampling_mutation(self, target: ast.AST, node: ast.AST) -> None:
        """Flag writes to the policy gap table or backend counters
        (``gap_table[...] = ``, ``st.real_gap = ``) outside
        :data:`SAMPLING_HOME`: gap/epoch consistency is what lets every
        backend and the policy's first-touch answers trust their
        threshold derivations, so rate changes must flow through
        ``set_rate``/``set_min_gap``."""
        if self._sampling_exempt():
            return
        if isinstance(target, ast.Subscript):
            name = _terminal_name(target.value)
            if name in SAMPLING_CONTAINERS:
                self.report(
                    node,
                    "SIM011",
                    f"direct {name}[...] mutation outside {SAMPLING_HOME}; "
                    "change rates through SamplingPolicy.set_rate/set_min_gap "
                    "so the class epoch bumps and backends stay consistent",
                )
        elif isinstance(target, ast.Attribute) and target.attr in SAMPLING_STATE_ATTRS:
            self.report(
                node,
                "SIM011",
                f"direct .{target.attr} assignment outside {SAMPLING_HOME}; "
                "per-class sampling state mutates only through the policy API "
                "(set_rate/set_nominal_gap/set_min_gap)",
            )

    def _check_sampling_mutator_call(self, node: ast.Call) -> None:
        """Flag ``gap_table.clear()``-style mutator calls (SIM011)."""
        if self._sampling_exempt():
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in SAMPLING_MUTATORS:
            return
        name = _terminal_name(func.value)
        if name in SAMPLING_CONTAINERS:
            self.report(
                node,
                "SIM011",
                f"{name}.{func.attr}() mutates sampling state outside "
                f"{SAMPLING_HOME}; use the SamplingPolicy API instead",
            )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def check_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string as if it lived at ``path``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 0, exc.offset or 0, "SIM000", f"syntax error: {exc.msg}")
        ]
    checker = _Checker(path, source)
    checker.collect_shared_names(tree)
    checker.visit(tree)
    return sorted(checker.findings, key=lambda f: (f.path, f.line, f.col, f.code))


def check_file(path: str | Path) -> list[Finding]:
    """Lint one file on disk."""
    p = Path(path)
    return check_source(p.read_text(encoding="utf-8"), str(p))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files under them, sorted."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(q for q in p.rglob("*.py") if "__pycache__" not in q.parts)
        elif p.suffix == ".py":
            yield p


def check_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every .py file under ``paths``."""
    findings: list[Finding] = []
    for p in iter_python_files(paths):
        findings.extend(check_file(p))
    return findings
