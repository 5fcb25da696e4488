"""Local effect extraction + fixed-point interprocedural propagation.

The local pass walks one function body in statement order, tracking for
every local name a *root* — where the value it aliases came from::

    ("self", None)     reachable from the receiver
    ("param", <name>)  reachable from a parameter
    ("global", None)   a module-level binding
    ("fresh", None)    constructed inside this function

Attribute and subscript chains preserve the base's root (``record =
heap.get(obj_id)`` keeps ``heap``'s root), so a later ``record.x = v``
is charged to the chain's origin, which is exactly the ownership
question the rules ask.  Mutating a ``fresh`` root is not an effect.

Host-time taint is tracked per local name: wall-clock reads (including
module-level aliases like ``_perf_ns = time.perf_counter_ns``) and
calls to functions inferred to *return* host time taint their results;
taint reaching an event-``schedule`` time argument, a ``SimClock``
advance, or a ``*now_ns`` field store is an EFF2xx flow.

Two fixed points run on top of the local facts:

1. ``returns_host_time`` — the local pass re-runs until the set of
   host-time-returning functions stabilizes (taint crosses calls).
2. write/host propagation — each call site rewrites the callee's
   transitive write set into the caller's frame (callee ``self`` ->
   receiver root, callee param -> argument root; ``fresh`` roots drop
   out), and joins host records.  Record sets are capped
   (:data:`~repro.checks.effects.lattice.MAX_RECORDS`), so the monotone
   iteration terminates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.checks.effects.codebase import (
    AMBIENT_RNG_FUNCS,
    BUILTIN_ACCESSORS,
    BUILTIN_MUTATORS,
    HOST_BUILTIN_CALLS,
    HOST_IO_FUNCS,
    HOST_PROCESS_FUNCS,
    PURE_BUILTINS,
    WALL_CLOCK_FUNCS,
    Codebase,
    FunctionInfo,
    _walk_attr_chain,
)
from repro.checks.effects.lattice import (
    MAX_RECORDS,
    CallSite,
    Eff2Flow,
    FunctionSummary,
    HostRec,
    WriteRec,
)

__all__ = ["EffectsConfig", "analyze"]


@dataclass(slots=True)
class EffectsConfig:
    """Tunable vocabulary of the rule families."""

    #: the observer vocabulary class (simple name): every override of
    #: one of its methods in a subclass is an EFF1xx root.
    observer_base: str = "ProtocolObserver"
    #: classes (simple names) whose state observers own: writes into
    #: them never violate EFF102.
    owned_classes: frozenset = frozenset(
        {
            "ProtocolSanitizer", "RaceDetector", "SpanTracer", "Span",
            "MetricsRegistry", "MetricFamily", "Counter", "Gauge", "Histogram",
            "ObjectProfiler", "ObjLifetime",
        }
    )
    #: attributes observers may publish onto engine objects
    #: (introspection exports, e.g. a thread's vector clock).
    owned_attrs: frozenset = frozenset({"vc"})
    #: audit-only sinks: kernel channels that exist *for* observers;
    #: calls resolve here are effect-free (suffix match on qualname).
    audit_sinks: tuple = (".EventLoop.record",)
    #: self attrs that accumulate sanctioned observer self-overhead.
    self_account_attrs: frozenset = frozenset({"self_ns"})
    #: simulated-time fields (EFF202 store sinks).
    sim_time_attrs: frozenset = frozenset({"_now_ns", "now_ns", "time_ns"})
    #: collector registration entry point (observer roots).
    collector_func: str = "register_collector"


# root pairs -------------------------------------------------------------

FRESH = ("fresh", None)
_SEVERITY = {"fresh": 0, "self": 1, "global": 2, "param": 3}


def _join_roots(a: tuple, b: tuple) -> tuple:
    return a if _SEVERITY[a[0]] >= _SEVERITY[b[0]] else b


def _root_str(r: tuple) -> str:
    return f"param:{r[1]}" if r[0] == "param" else r[0]


@dataclass(slots=True)
class _Value:
    """Abstract value of one expression."""

    root: tuple = FRESH
    cls: str | None = None
    tainted: bool = False
    #: callable qualnames this value may be (bound-method refs, lambdas).
    callables: frozenset = frozenset()


class _LocalPass:
    """One statement-order walk of a function body."""

    def __init__(
        self,
        cb: Codebase,
        fi: FunctionInfo,
        config: EffectsConfig,
        host_returning: frozenset,
    ) -> None:
        self.cb = cb
        self.fi = fi
        self.config = config
        self.host_returning = host_returning
        self.mod = cb.modules[fi.module]
        self.summary = FunctionSummary(
            qualname=fi.qualname, path=fi.path, line=fi.lineno, is_method=fi.is_method
        )
        self.env: dict[str, _Value] = {}
        self.globals_declared: set[str] = set()
        self.tainted_write_bad = False
        # discovery feed for the rules layer
        self.collector_regs: list[str] = []  # callable qualnames

    # -- entry ----------------------------------------------------------

    def run(self) -> FunctionSummary:
        node = self.fi.node
        if isinstance(node, ast.Lambda):
            v = self.eval(node.body)
            if v.tainted:
                self.summary.returns_host_time = True
        else:
            self.block(node.body)
        s = self.summary
        s.self_accounting = bool(s.host) and (
            all(h.kind == "wallclock" for h in s.host)
            and not s.flows
            and not s.returns_host_time
            and not self.tainted_write_bad
        )
        return s

    # -- statements -----------------------------------------------------

    def block(self, stmts: list[ast.stmt]) -> None:
        for st in stmts:
            self.stmt(st)

    def stmt(self, st: ast.stmt) -> None:
        if isinstance(st, ast.Assign):
            v = self.eval(st.value)
            for t in st.targets:
                self.assign(t, v, st.value)
        elif isinstance(st, ast.AnnAssign):
            if st.value is not None:
                self.assign(st.target, self.eval(st.value), st.value)
        elif isinstance(st, ast.AugAssign):
            v = self.eval(st.value)
            prior = self.eval(st.target, reading=True)
            v = _Value(v.root, v.cls, v.tainted or prior.tainted, v.callables)
            self.assign(st.target, v, st.value, aug=True)
        elif isinstance(st, ast.Expr):
            self.eval(st.value)
        elif isinstance(st, ast.Return):
            if st.value is not None and self.eval(st.value).tainted:
                self.summary.returns_host_time = True
        elif isinstance(st, (ast.If, ast.While)):
            self.eval(st.test)
            self.block(st.body)
            self.block(st.orelse)
        elif isinstance(st, (ast.For, ast.AsyncFor)):
            it = self.eval(st.iter)
            elem = _Value(it.root, None, it.tainted)
            self.assign(st.target, elem, st.iter)
            self.block(st.body)
            self.block(st.orelse)
        elif isinstance(st, (ast.With, ast.AsyncWith)):
            for item in st.items:
                v = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, v, item.context_expr)
            self.block(st.body)
        elif isinstance(st, ast.Try):
            self.block(st.body)
            for h in st.handlers:
                if h.name:
                    self.env[h.name] = _Value()
                self.block(h.body)
            self.block(st.orelse)
            self.block(st.finalbody)
        elif isinstance(st, (ast.Raise, ast.Assert)):
            for sub in ast.iter_child_nodes(st):
                if isinstance(sub, ast.expr):
                    self.eval(sub)
        elif isinstance(st, ast.Delete):
            for t in st.targets:
                if isinstance(t, (ast.Attribute, ast.Subscript)):
                    self._record_write(t, _Value(), t)
        elif isinstance(st, ast.Global):
            self.globals_declared.update(st.names)
        elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{self.fi.qualname}.<locals>.{st.name}"
            self.env[st.name] = _Value(callables=frozenset({qual}))
        # Nonlocal, Pass, Break, Continue, Import, ClassDef: no effect facts.

    # -- assignment targets ---------------------------------------------

    def assign(
        self, target: ast.expr, v: _Value, value_expr: ast.expr | None, *, aug: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.globals_declared:
                self._add_write(("global", None), name, None, target.lineno, None)
                return
            self.env[name] = v
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._record_write(target, v, value_expr, aug=aug)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self.assign(inner, _Value(v.root, None, v.tainted), None)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, v, None)

    def _record_write(
        self,
        target: ast.expr,
        v: _Value,
        value_expr: ast.expr | None,
        *,
        aug: bool = False,
    ) -> None:
        """A store through an attribute/subscript: classify by the base
        chain's root."""
        cfg = self.config
        if isinstance(target, ast.Attribute):
            base, attr = target.value, target.attr
        else:
            base, attr = target.value, "[]"
            chain = _walk_attr_chain(base)
            if chain:
                attr = chain[-1]
        bv = self.eval(base, reading=False)
        root = bv.root
        # EFF202: host time stored into a simulated-time field.
        if (
            isinstance(target, ast.Attribute)
            and attr in cfg.sim_time_attrs
            and root[0] != "fresh"
            and v.tainted
        ):
            self.summary.flows.append(
                Eff2Flow(
                    sink="clock-field",
                    detail=f"host-time value stored into .{attr}",
                    origin=self.fi.qualname,
                    path=self.fi.path,
                    line=target.lineno,
                )
            )
        if v.tainted and root[0] != "fresh":
            if not (root[0] == "self" and attr in cfg.self_account_attrs):
                self.tainted_write_bad = True
        if root[0] == "fresh":
            return
        cls = bv.cls
        if isinstance(target, ast.Attribute) and isinstance(base, ast.Name) and base.id == "self":
            cls = self.fi.cls
        if cls is None:
            chain0 = _walk_attr_chain(base)
            if chain0 and chain0[0] == "self" and self.fi.is_method:
                # a container hanging directly off self: charge the
                # write to the defining class for the ownership check.
                cls = self.fi.cls
        self._add_write(root, attr, cls, target.lineno, target)

    def _add_write(
        self, root: tuple, attr: str, cls: str | None, line: int, target: ast.expr | None
    ) -> None:
        self.summary.writes.append(
            WriteRec(
                root=_root_str(root),
                attr=attr,
                cls=cls,
                origin=self.fi.qualname,
                path=self.fi.path,
                line=line,
            )
        )
        if target is not None:
            chain = _walk_attr_chain(target) or _walk_attr_chain(
                target.value if isinstance(target, (ast.Attribute, ast.Subscript)) else target
            )
            if chain and "counters" in chain[1:]:
                self.summary.counter_writes.append((self.fi.path, line))

    # -- expressions ----------------------------------------------------

    def eval(self, node: ast.expr, *, reading: bool = True) -> _Value:
        if isinstance(node, ast.Name):
            name = node.id
            if name == "self" and self.fi.is_method:
                return _Value(("self", None), self.fi.cls)
            v = self.env.get(name)
            if v is not None:
                return v
            if name in self.fi.params:
                return _Value(("param", name), self.fi.param_types.get(name))
            return _Value(("global", None))
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value)
            if reading and base.root[0] != "fresh":
                self.summary.reads = True
            cls = None
            if base.cls is not None:
                cls = self.cb.attr_type(base.cls, node.attr)
            return _Value(base.root, cls, base.tainted)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            if reading and base.root[0] != "fresh":
                self.summary.reads = True
            return _Value(base.root, None, base.tainted)
        if isinstance(node, ast.Call):
            return self.call(node)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            ops = [node.left, node.right] if isinstance(node, ast.BinOp) else [node.operand]
            tainted = False
            for op in ops:
                tainted = self.eval(op).tainted or tainted
            return _Value(tainted=tainted)
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for c in node.comparators:
                self.eval(c)
            return _Value()
        if isinstance(node, ast.BoolOp):
            out = _Value()
            for vnode in node.values:
                v = self.eval(vnode)
                out = _Value(
                    _join_roots(out.root, v.root), out.cls or v.cls,
                    out.tainted or v.tainted, out.callables | v.callables,
                )
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a, b = self.eval(node.body), self.eval(node.orelse)
            return _Value(
                _join_roots(a.root, b.root), a.cls or b.cls,
                a.tainted or b.tainted, a.callables | b.callables,
            )
        if isinstance(node, ast.Lambda):
            qual = self._lambda_qual(node)
            return _Value(callables=frozenset({qual}) if qual else frozenset())
        if isinstance(node, ast.NamedExpr):
            v = self.eval(node.value)
            self.assign(node.target, v, node.value)
            return v
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            tainted = False
            for elt in node.elts:
                tainted = self.eval(elt).tainted or tainted
            return _Value(tainted=tainted)
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if k is not None:
                    self.eval(k)
            for vnode in node.values:
                self.eval(vnode)
            return _Value()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                it = self.eval(gen.iter)
                self.assign(gen.target, _Value(it.root), gen.iter)
                for cond in gen.ifs:
                    self.eval(cond)
            if isinstance(node, ast.DictComp):
                self.eval(node.key)
                self.eval(node.value)
            else:
                self.eval(node.elt)
            return _Value()
        if isinstance(node, ast.JoinedStr):
            for vnode in node.values:
                if isinstance(vnode, ast.FormattedValue):
                    self.eval(vnode.value)
            return _Value()
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value) if node.value is not None else _Value()
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.eval(node.value)
            return _Value()
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return _Value()

    # -- calls ----------------------------------------------------------

    def call(self, node: ast.Call) -> _Value:
        cfg = self.config
        arg_vals = [self.eval(a) for a in node.args]
        kw_vals = {kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg}
        for kw in node.keywords:
            if kw.arg is None:
                self.eval(kw.value)
        any_tainted = any(v.tainted for v in arg_vals) or any(
            v.tainted for v in kw_vals.values()
        )
        func = node.func

        # host primitives & builtins ------------------------------------
        host = self._host_call(func)
        if host is not None:
            kind, detail = host
            self.summary.host.append(
                HostRec(kind, detail, self.fi.qualname, self.fi.path, node.lineno)
            )
            return _Value(tainted=(kind == "wallclock"))
        if isinstance(func, ast.Name):
            name = func.id
            v = self.env.get(name)
            if v is not None and v.callables:
                return self._dispatch(node, tuple(sorted(v.callables)), None, arg_vals, kw_vals)
            if name in HOST_BUILTIN_CALLS:
                self.summary.host.append(
                    HostRec(
                        HOST_BUILTIN_CALLS[name], f"{name}()",
                        self.fi.qualname, self.fi.path, node.lineno,
                    )
                )
                return _Value()
            if name in PURE_BUILTINS:
                return _Value(tainted=any_tainted)
            nested = f"{self.fi.qualname}.<locals>.{name}"
            if nested in self.cb.functions:
                return self._dispatch(node, (nested,), None, arg_vals, kw_vals)
            resolved = self.cb.resolve_name_in_module(self.mod, name)
            if resolved is not None and resolved in self.cb.classes:
                init = self.cb.resolve_method(resolved, "__init__")
                targets = (init.qualname,) if init else ()
                out = self._dispatch(node, targets, _Value(), arg_vals, kw_vals)
                return _Value(cls=resolved, tainted=out.tainted)
            if resolved is not None and resolved in self.cb.functions:
                return self._dispatch(node, (resolved,), None, arg_vals, kw_vals)
            return _Value()

        if isinstance(func, ast.Subscript):
            # dispatch table: self._sync_dispatch[code](...)
            tv = func.value
            if (
                isinstance(tv, ast.Attribute)
                and isinstance(tv.value, ast.Name)
                and tv.value.id == "self"
                and self.fi.cls
            ):
                members = self.cb.attr_callables(self.fi.cls, tv.attr)
                if members:
                    self.eval(func.slice)
                    return self._dispatch(
                        node, tuple(sorted(members)),
                        _Value(("self", None), self.fi.cls), arg_vals, kw_vals,
                    )
            self.eval(func)
            return _Value()

        if not isinstance(func, ast.Attribute):
            self.eval(func)
            return _Value()

        # attribute call: resolve the receiver --------------------------
        method = func.attr
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.fi.cls
        ):
            # super().m() binds to the *parent* MRO, still on self.
            mro = self.cb.mro(self.fi.cls)
            fi = self.cb.resolve_method(mro[1], method) if len(mro) > 1 else None
            return self._dispatch(
                node, (fi.qualname,) if fi is not None else (),
                _Value(("self", None), self.fi.cls), arg_vals, kw_vals,
            )
        recv = self.eval(func.value)

        if method == self.config.collector_func:
            for a in node.args:
                for qual in self._callable_refs(a):
                    self.collector_regs.append(qual)

        if method in BUILTIN_MUTATORS:
            if recv.root[0] != "fresh":
                chain = _walk_attr_chain(func.value)
                self._add_write(
                    recv.root, chain[-1] if chain else method, recv.cls,
                    node.lineno, func.value,
                )
            return _Value(tainted=recv.tainted)
        if method in BUILTIN_ACCESSORS:
            if recv.root[0] != "fresh":
                self.summary.reads = True
            return _Value(recv.root, None, recv.tainted)

        targets: tuple[str, ...] = ()
        if isinstance(func.value, ast.Name) and func.value.id == "self" and self.fi.cls:
            fi = self.cb.resolve_method(self.fi.cls, method)
            if fi is not None:
                targets = (fi.qualname,)
        elif recv.cls is not None:
            fi = self.cb.resolve_method(recv.cls, method)
            if fi is not None:
                targets = (fi.qualname,)
        if not targets and not (method.startswith("__") and method.endswith("__")):
            # dunders never name-join: `x.__init__` style calls would
            # union every constructor in the repo into one site.
            targets = tuple(fi.qualname for fi in self.cb.join_by_name(method))
        return self._dispatch(node, targets, recv, arg_vals, kw_vals)

    def _dispatch(
        self,
        node: ast.Call,
        targets: tuple[str, ...],
        recv: _Value | None,
        arg_vals: list[_Value],
        kw_vals: dict[str, _Value],
    ) -> _Value:
        """Record a resolved call site and model its result."""
        cfg = self.config
        targets = tuple(
            t for t in targets if not any(t.endswith(s) for s in cfg.audit_sinks)
        )
        result_tainted = any(t in self.host_returning for t in targets)
        if targets:
            self.summary.calls.append(
                CallSite(
                    targets=targets,
                    receiver=recv.root if recv is not None else None,
                    arg_roots={
                        "__pos__": [v.root for v in arg_vals],
                        **{k: v.root for k, v in kw_vals.items()},
                    },
                    line=node.lineno,
                )
            )
        self._check_schedule_site(node, targets, arg_vals, kw_vals)
        self._check_advance_sink(node, targets, arg_vals)
        # a *resolved* repo method's result stays reachable from its
        # receiver (it may hand out internal state); unresolved calls
        # (stdlib/third-party) and plain functions return fresh.
        root = FRESH
        if targets and recv is not None and recv.root[0] != "fresh":
            root = recv.root
        return _Value(root, None, result_tainted)

    def _check_schedule_site(
        self,
        node: ast.Call,
        targets: tuple[str, ...],
        arg_vals: list[_Value],
        kw_vals: dict[str, _Value],
    ) -> None:
        """Event-kernel ``schedule`` sites: the EFF201
        host-time-into-scheduling sink."""
        if not any(self._is_event_schedule(t) for t in targets):
            return
        # time argument: positional #1 (after kind) or time_ns kw.
        time_tainted = False
        if len(arg_vals) >= 2 and arg_vals[1].tainted:
            time_tainted = True
        kwv = kw_vals.get("time_ns")
        if kwv is not None and kwv.tainted:
            time_tainted = True
        if time_tainted:
            self.summary.flows.append(
                Eff2Flow(
                    sink="schedule",
                    detail="host-time value used as an event time",
                    origin=self.fi.qualname,
                    path=self.fi.path,
                    line=node.lineno,
                )
            )

    def _is_event_schedule(self, qual: str) -> bool:
        fi = self.cb.functions.get(qual)
        if fi is None or fi.cls is None or fi.name != "schedule":
            return False
        return any(
            self.cb.classes[q].name == "EventLoop" for q in self.cb.mro(fi.cls)
        )

    def _check_advance_sink(
        self, node: ast.Call, targets: tuple[str, ...], arg_vals: list[_Value]
    ) -> None:
        for t in targets:
            fi = self.cb.functions.get(t)
            if (
                fi is not None
                and fi.name in ("advance", "advance_to")
                and fi.cls is not None
                and self.cb.classes[fi.cls].name == "SimClock"
                and arg_vals
                and arg_vals[0].tainted
            ):
                self.summary.flows.append(
                    Eff2Flow(
                        sink="advance",
                        detail=f"host-time value passed to {fi.name}()",
                        origin=self.fi.qualname,
                        path=self.fi.path,
                        line=node.lineno,
                    )
                )
                return

    # -- small helpers --------------------------------------------------

    def _host_call(self, func: ast.expr) -> tuple[str, str] | None:
        """(kind, detail) when ``func`` is a host primitive."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.mod.wallclock_names:
                return ("wallclock", name)
            if name in self.mod.rng_names:
                return ("rng", name)
            return None
        chain = _walk_attr_chain(func)
        if not chain or len(chain) < 2:
            return None
        base = self.mod.imports.get(chain[0], chain[0])
        key = (base.split(".")[-1], chain[-1])
        if key in WALL_CLOCK_FUNCS:
            return ("wallclock", ".".join(chain))
        if key in AMBIENT_RNG_FUNCS:
            return ("rng", ".".join(chain))
        if key in HOST_IO_FUNCS:
            return ("io", ".".join(chain))
        if key in HOST_PROCESS_FUNCS:
            return ("process", ".".join(chain))
        if "environ" in chain:
            return ("env", ".".join(chain))
        if chain[0] == "sys" and chain[1] in ("stdout", "stderr", "stdin"):
            return ("io", ".".join(chain))
        return None

    def _callable_refs(self, expr: ast.expr) -> set[str]:
        """Callable qualnames an expression can evaluate to."""
        out: set[str] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                qual = self._lambda_qual(sub)
                if qual:
                    out.add(qual)
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and self.fi.cls
                and not isinstance(getattr(sub, "ctx", ast.Load()), ast.Store)
            ):
                fi = self.cb.resolve_method(self.fi.cls, sub.attr)
                if fi is not None:
                    out.add(fi.qualname)
            elif isinstance(sub, ast.Name):
                v = self.env.get(sub.id)
                if v is not None:
                    out |= v.callables
        return out

    def _lambda_qual(self, node: ast.Lambda) -> str | None:
        qual = f"{self.fi.qualname}.<locals>.<lambda>@{node.lineno}"
        if qual in self.cb.functions:
            return qual
        suffix = f".<lambda>@{node.lineno}"
        for q, fi in self.cb.functions.items():
            if fi.module == self.fi.module and q.endswith(suffix):
                return q
        return None


# ----------------------------------------------------------------------
# driver: local rounds + interprocedural fixed point
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Analysis:
    """Everything the rule layer needs."""

    codebase: Codebase
    summaries: dict[str, FunctionSummary]
    config: EffectsConfig
    #: discovery feed joined over all functions
    collector_regs: list = field(default_factory=list)  # qualnames


def analyze(cb: Codebase, config: EffectsConfig | None = None) -> Analysis:
    """Run the full analysis over a parsed codebase."""
    config = config or EffectsConfig()

    host_returning: frozenset = frozenset()
    passes: dict[str, _LocalPass] = {}
    for _ in range(8):
        passes = {
            q: _LocalPass(cb, fi, config, host_returning)
            for q, fi in cb.functions.items()
        }
        for p in passes.values():
            p.run()
        now = frozenset(
            q for q, p in passes.items() if p.summary.returns_host_time
        )
        if now == host_returning:
            break
        host_returning = host_returning | now

    summaries = {q: p.summary for q, p in passes.items()}
    analysis = Analysis(codebase=cb, summaries=summaries, config=config)
    for p in passes.values():
        analysis.collector_regs.extend(p.collector_regs)

    _propagate(cb, summaries)
    return analysis


def _propagate(cb: Codebase, summaries: dict[str, FunctionSummary]) -> None:
    """Monotone write/host propagation over resolved call sites."""
    for s in summaries.values():
        s.trans_writes = {w for w in s.writes}
        s.trans_host = set() if s.self_accounting else {h for h in s.host}
        s.trans_reads = s.reads

    changed = True
    while changed:
        changed = False
        for s in summaries.values():
            for cs in s.calls:
                for tq in cs.targets:
                    t = summaries.get(tq)
                    if t is None:
                        continue
                    if t.trans_reads and not s.trans_reads:
                        s.trans_reads = True
                        changed = True
                    if len(s.trans_host) < MAX_RECORDS:
                        before = len(s.trans_host)
                        s.trans_host |= t.trans_host
                        if len(s.trans_host) != before:
                            changed = True
                    if len(s.trans_writes) >= MAX_RECORDS:
                        continue
                    t_fi = cb.functions.get(tq)
                    for w in t.trans_writes:
                        rw = _rewrite(w, cs, t_fi)
                        if rw is not None and rw not in s.trans_writes:
                            s.trans_writes.add(rw)
                            changed = True
                            if len(s.trans_writes) >= MAX_RECORDS:
                                break


def _rewrite(w: WriteRec, cs: CallSite, t_fi: FunctionInfo | None) -> WriteRec | None:
    """Map a callee-frame write record into the caller's frame."""
    if w.root == "global":
        return w
    if w.root == "self":
        recv = cs.receiver
        if recv is None or recv[0] == "fresh":
            return None
        return WriteRec(
            root=_root_str(recv), attr=w.attr, cls=w.cls,
            origin=w.origin, path=w.path, line=w.line,
        )
    # param:<name>
    pname = w.root.split(":", 1)[1]
    root = None
    if t_fi is not None:
        params = list(t_fi.params)
        if t_fi.is_method:
            params = params[1:]
        pos = cs.arg_roots.get("__pos__", [])
        if pname in cs.arg_roots:
            root = cs.arg_roots[pname]
        elif pname in params and params.index(pname) < len(pos):
            root = pos[params.index(pname)]
    if root is None or root[0] == "fresh":
        return None
    return WriteRec(
        root=_root_str(root), attr=w.attr, cls=w.cls,
        origin=w.origin, path=w.path, line=w.line,
    )
