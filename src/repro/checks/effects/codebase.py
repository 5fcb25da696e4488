"""Parsing, indexing and call resolution over the simulator's source.

This is the *front half* of the effects analysis: it loads every module
under one package root with stdlib :mod:`ast` (never importing them),
and builds the indexes the inference pass resolves calls against:

* a class table with base-class linearization (MRO lookup for
  ``self.m()`` dispatch),
* per-class attribute types, recovered from ``self.attr = ClassName(...)``
  assignments, ``self.attr: T`` annotations and annotated-parameter
  stores (``def __init__(self, hlrc: HomeBasedLRC): self.hlrc = hlrc``),
* per-class callable tables (``self._dispatch = {OP: self._do_x, ...}``)
  so dispatch through a table joins over the table's members,
* per-module import maps and module-level wall-clock aliases
  (``_perf_ns = time.perf_counter_ns``), and
* a name -> methods index used as the *join fallback* when a receiver's
  class is unknown: ``x.advance(...)`` joins every repo class defining
  ``advance``.  Names of builtin container methods never join — they go
  through the builtin receiver model instead.

The same front end also discovers the root set the observer-purity
family starts from: observer entry points (overrides of
``ProtocolObserver`` methods, found through the MRO, and callables
registered via ``register_collector``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Codebase", "ModuleInfo", "ClassInfo", "FunctionInfo"]

#: wall-clock callables by (module, attr).
WALL_CLOCK_FUNCS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("time", "thread_time"),
    ("time", "thread_time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: ambient (unseeded) randomness by (module, attr).  Seeded
#: ``random.Random(seed)`` / ``numpy`` generators are deterministic and
#: deliberately absent.
AMBIENT_RNG_FUNCS = {
    ("random", "random"),
    ("random", "randrange"),
    ("random", "randint"),
    ("random", "choice"),
    ("random", "shuffle"),
    ("random", "getrandbits"),
    ("os", "urandom"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("uuid", "uuid4"),
    ("uuid", "uuid1"),
}

#: environment / process / I/O host surface by (module, attr).
HOST_IO_FUNCS = {
    ("os", "getenv"),
    ("os", "putenv"),
    ("os", "system"),
    ("os", "popen"),
    ("os", "fork"),
    ("os", "spawnv"),
    ("sys", "exit"),
    ("subprocess", "run"),
    ("subprocess", "Popen"),
    ("subprocess", "check_output"),
    ("subprocess", "call"),
    ("socket", "socket"),
}

#: host scheduling/process control by (module, attr).
HOST_PROCESS_FUNCS = {
    ("time", "sleep"),
    ("os", "kill"),
    ("os", "_exit"),
    ("signal", "signal"),
    ("signal", "alarm"),
}

#: bare names whose *call* is a host effect.
HOST_BUILTIN_CALLS = {"open": "io", "input": "io", "print": "io"}

#: container/str methods routed through the builtin receiver model
#: (never joined against repo classes).  Split into mutators (a write to
#: the receiver's root) and accessors (root-preserving reads).
BUILTIN_MUTATORS = {
    "append", "add", "insert", "extend", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "sort", "reverse",
    "appendleft", "popleft", "push",
}
BUILTIN_ACCESSORS = {
    "get", "items", "keys", "values", "copy", "index", "count", "join",
    "split", "rsplit", "strip", "lstrip", "rstrip", "startswith",
    "endswith", "format", "replace", "lower", "upper", "encode",
    "decode", "most_common", "total", "bit_length", "to_bytes",
    "splitlines", "title", "capitalize", "ljust", "rjust", "zfill",
    "union", "intersection", "difference", "issubset", "issuperset",
    "isdisjoint",
}

#: pure (or effectively pure) builtin calls.
PURE_BUILTINS = {
    "len", "min", "max", "sum", "abs", "round", "sorted", "reversed",
    "enumerate", "zip", "map", "filter", "range", "isinstance",
    "issubclass", "hasattr", "repr", "str", "int", "float", "bool",
    "bytes", "bytearray", "list", "dict", "set", "tuple", "frozenset",
    "type", "id", "hash", "iter", "next", "all", "any", "divmod", "pow",
    "ord", "chr", "format", "vars", "callable", "super", "slice",
    "memoryview", "complex", "object", "staticmethod", "classmethod",
    "property",
}


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module."""

    name: str
    path: str
    tree: ast.Module
    source_lines: list[str]
    #: local name -> dotted target ("repro.sim.events.EventLoop" or
    #: "time.perf_counter_ns" or a module like "repro.dsm.hlrc").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level names aliasing a wall-clock callable.
    wallclock_names: set[str] = field(default_factory=set)
    #: module-level names aliasing an ambient-RNG callable.
    rng_names: set[str] = field(default_factory=set)


@dataclass(slots=True)
class ClassInfo:
    """One class definition."""

    qualname: str
    module: str
    name: str
    base_names: list[str]
    methods: dict[str, "FunctionInfo"] = field(default_factory=dict)
    #: attr -> class qualname (best-effort static type).
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attr -> method qualnames a callable table holds.
    attr_callables: dict[str, set[str]] = field(default_factory=dict)
    #: resolved base class qualnames (filled by Codebase._link).
    bases: list[str] = field(default_factory=list)


@dataclass(slots=True)
class FunctionInfo:
    """One function, method, nested def or lambda."""

    qualname: str
    module: str
    path: str
    name: str
    cls: str | None
    node: ast.AST
    lineno: int
    params: tuple[str, ...]
    is_method: bool
    #: param -> repo class qualname, from annotations.
    param_types: dict[str, str] = field(default_factory=dict)


def _walk_attr_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None when the chain has non-name
    links (calls, subscripts)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class Codebase:
    """Every module under one package root, parsed and indexed."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: simple class name -> qualnames (usually one).
        self.classes_by_name: dict[str, list[str]] = {}
        #: method name -> FunctionInfo list (the join fallback).
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: class qualname -> linearized ancestor qualnames (self first).
        self._mro: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_package(cls, src_root: str | Path, package: str = "repro") -> "Codebase":
        """Parse every ``.py`` under ``src_root/package``."""
        root = Path(src_root)
        base = root / package
        cb = cls()
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).with_suffix("")
            parts = list(rel.parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            cb._add_module(".".join(parts), str(path), path.read_text())
        cb._link()
        return cb

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Codebase":
        """Build from in-memory ``{module_name: source}`` (tests)."""
        cb = cls()
        for name in sorted(sources):
            cb._add_module(name, f"<{name}>", sources[name])
        cb._link()
        return cb

    def _add_module(self, name: str, path: str, source: str) -> None:
        tree = ast.parse(source, filename=path)
        mod = ModuleInfo(name, path, tree, source.splitlines())
        self.modules[name] = mod
        self._collect_imports(mod)
        self._collect_defs(mod)

    # ------------------------------------------------------------------
    # per-module collection
    # ------------------------------------------------------------------

    def _collect_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                src = node.module or ""
                if node.level:  # relative import -> anchor in this package
                    parts = mod.name.split(".")
                    anchor = parts[: len(parts) - node.level]
                    src = ".".join(anchor + ([src] if src else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{src}.{alias.name}" if src else alias.name
                    if (src, alias.name) in WALL_CLOCK_FUNCS:
                        mod.wallclock_names.add(local)
                    if (src, alias.name) in AMBIENT_RNG_FUNCS:
                        mod.rng_names.add(local)
        # module-level aliases: NAME = time.perf_counter_ns
        for node in mod.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            chain = _walk_attr_chain(node.value)
            if chain and len(chain) == 2 and tuple(chain) in WALL_CLOCK_FUNCS:
                mod.wallclock_names.add(target.id)
            elif chain and len(chain) == 2 and tuple(chain) in AMBIENT_RNG_FUNCS:
                mod.rng_names.add(target.id)
            elif isinstance(node.value, ast.Name) and node.value.id in mod.wallclock_names:
                mod.wallclock_names.add(target.id)

    def _collect_defs(self, mod: ModuleInfo) -> None:
        """Register classes, functions, nested defs and lambdas."""

        def visit(node: ast.AST, qual_prefix: str, cls: ClassInfo | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    cqual = f"{qual_prefix}.{child.name}"
                    cinfo = ClassInfo(
                        qualname=cqual,
                        module=mod.name,
                        name=child.name,
                        base_names=[
                            ".".join(c) for b in child.bases
                            if (c := _walk_attr_chain(b)) is not None
                        ],
                    )
                    self.classes[cqual] = cinfo
                    self.classes_by_name.setdefault(child.name, []).append(cqual)
                    visit(child, cqual, cinfo)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fqual = f"{qual_prefix}.{child.name}"
                    self._register_function(mod, child, fqual, cls)
                    # nested defs/lambdas live under "<locals>"
                    visit(child, f"{fqual}.<locals>", None)
                else:
                    self._collect_lambdas(mod, child, qual_prefix)
                    visit(child, qual_prefix, cls)

        visit(mod.tree, mod.name, None)

    def _collect_lambdas(self, mod: ModuleInfo, node: ast.AST, qual_prefix: str) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Lambda):
                fqual = f"{qual_prefix}.<lambda>@{sub.lineno}"
                if fqual not in self.functions:
                    self._register_function(mod, sub, fqual, None)

    def _register_function(
        self, mod: ModuleInfo, node: ast.AST, qualname: str, cls: ClassInfo | None
    ) -> None:
        args = node.args
        params = tuple(
            a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)
        )
        is_method = cls is not None and bool(params) and params[0] in ("self", "cls")
        info = FunctionInfo(
            qualname=qualname,
            module=mod.name,
            path=mod.path,
            name=qualname.rsplit(".", 1)[-1],
            cls=cls.qualname if cls is not None else None,
            node=node,
            lineno=node.lineno,
            params=params,
            is_method=is_method,
        )
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if a.annotation is not None:
                resolved = self._annotation_class(mod, a.annotation)
                if resolved:
                    info.param_types[a.arg] = resolved
        self.functions[qualname] = info
        if cls is not None:
            cls.methods[info.name] = info
            if info.name not in BUILTIN_MUTATORS and info.name not in BUILTIN_ACCESSORS:
                self.methods_by_name.setdefault(info.name, []).append(info)

    def _annotation_class(self, mod: ModuleInfo, ann: ast.AST) -> str | None:
        """First repo class named inside an annotation expression (also
        handles string annotations)."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Name):
                hit = self.resolve_name_in_module(mod, sub.id)
                if hit and hit in self.classes:
                    return hit
                if sub.id in self.classes_by_name:
                    return self.classes_by_name[sub.id][0]
            elif isinstance(sub, ast.Attribute):
                chain = _walk_attr_chain(sub)
                if chain and chain[-1] in self.classes_by_name:
                    return self.classes_by_name[chain[-1]][0]
        return None

    # ------------------------------------------------------------------
    # linking (after every module is registered)
    # ------------------------------------------------------------------

    def _link(self) -> None:
        for cinfo in self.classes.values():
            mod = self.modules[cinfo.module]
            for base in cinfo.base_names:
                resolved = self.resolve_name_in_module(mod, base.split(".")[0])
                if resolved and resolved in self.classes:
                    cinfo.bases.append(resolved)
                elif base.split(".")[-1] in self.classes_by_name:
                    cinfo.bases.append(self.classes_by_name[base.split(".")[-1]][0])
        for cinfo in self.classes.values():
            self._collect_attr_types(cinfo)

    def _collect_attr_types(self, cinfo: ClassInfo) -> None:
        mod = self.modules[cinfo.module]
        for fi in cinfo.methods.values():
            for node in ast.walk(fi.node):
                targets: list[ast.AST] = []
                value: ast.AST | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if isinstance(node, ast.AnnAssign) and attr not in cinfo.attr_types:
                        resolved = self._annotation_class(mod, node.annotation)
                        if resolved:
                            cinfo.attr_types[attr] = resolved
                    if value is None:
                        continue
                    # callable tables: {OP: self.m, ...} or self.m
                    members = self._callable_members(cinfo, value)
                    if members:
                        cinfo.attr_callables.setdefault(attr, set()).update(members)
                    if attr in cinfo.attr_types:
                        continue
                    cls = self._value_class(mod, fi, value)
                    if cls:
                        cinfo.attr_types[attr] = cls

    def _callable_members(self, cinfo: ClassInfo, value: ast.AST) -> set[str]:
        out: set[str] = set()
        values = value.values if isinstance(value, ast.Dict) else [value]
        for v in values:
            if (
                isinstance(v, ast.Attribute)
                and isinstance(v.value, ast.Name)
                and v.value.id == "self"
            ):
                target = self.resolve_method(cinfo.qualname, v.attr)
                if target is not None:
                    out.add(target.qualname)
        return out

    def _value_class(
        self, mod: ModuleInfo, fi: FunctionInfo, value: ast.AST
    ) -> str | None:
        """Class of an assigned value: a constructor call anywhere in the
        expression, or an annotated parameter stored verbatim."""
        if isinstance(value, ast.Name) and value.id in fi.param_types:
            return fi.param_types[value.id]
        for sub in ast.walk(value):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                hit = self.resolve_name_in_module(mod, sub.func.id)
                if hit and hit in self.classes:
                    return hit
            elif isinstance(sub, ast.Name) and sub.id in fi.param_types:
                return fi.param_types[sub.id]
        return None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def resolve_name_in_module(self, mod: ModuleInfo, name: str) -> str | None:
        """Resolve a bare name to a dotted qualname via the module's own
        defs, then its imports."""
        direct = f"{mod.name}.{name}"
        if direct in self.classes or direct in self.functions:
            return direct
        return mod.imports.get(name)

    def mro(self, cls_qual: str) -> list[str]:
        """Linearized ancestor chain (self first; repo classes only)."""
        cached = self._mro.get(cls_qual)
        if cached is not None:
            return cached
        out: list[str] = []
        seen: set[str] = set()

        def walk(q: str) -> None:
            if q in seen or q not in self.classes:
                return
            seen.add(q)
            out.append(q)
            for b in self.classes[q].bases:
                walk(b)

        walk(cls_qual)
        self._mro[cls_qual] = out
        return out

    def resolve_method(self, cls_qual: str, name: str) -> FunctionInfo | None:
        """MRO method lookup."""
        for q in self.mro(cls_qual):
            fi = self.classes[q].methods.get(name)
            if fi is not None:
                return fi
        return None

    def attr_type(self, cls_qual: str, attr: str) -> str | None:
        """Best-effort static type of ``self.attr`` in ``cls_qual``."""
        for q in self.mro(cls_qual):
            hit = self.classes[q].attr_types.get(attr)
            if hit is not None:
                return hit
        return None

    def attr_callables(self, cls_qual: str, attr: str) -> set[str]:
        out: set[str] = set()
        for q in self.mro(cls_qual):
            out |= self.classes[q].attr_callables.get(attr, set())
        return out

    def join_by_name(self, name: str) -> list[FunctionInfo]:
        """The name-join fallback for unknown receivers."""
        return self.methods_by_name.get(name, [])
