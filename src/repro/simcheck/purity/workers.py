"""Worker-purity analysis (PURE001/PURE002 + mutated-global KEY001).

``run_many`` farms recipes to a process pool, and the planned serve
backends keep workers resident across requests — so any worker-reachable
code that writes module-global state or reads ambient process state
(environment, wall clock, unseeded randomness) makes cached results
depend on *which worker* ran them and *when*, none of which is in the
cache key.

The reachability walk re-drives the flow pass's effect machinery from
the cache module's worker entry points (``_worker``/``_simulate``)
instead of the driver loop, with two differences:

* **Constructor interception** — the stock
  :class:`~repro.simcheck.flow.effects.BodyWalker` does not follow bare
  ``ClassName(...)`` calls (the flow pass always enters through a
  pre-built instance graph).  Workers, however, *start* by constructing
  the simulator, so :class:`_PurityWalker` resolves index-class
  constructors to a populated abstract instance and dispatches
  ``__init__`` through the effect sink, which pulls the whole component
  tree into the reachable set.
* **No observer exclusion** — ``simcheck/`` and ``telemetry/`` modules
  are removable by the zero-cost guard contract, but purity must keep
  them, because ambient reads on the observation plane
  (``REPRO_SANITIZE``, ``REPRO_TELEMETRY``) are exactly what PURE002
  exists to surface and justify.

Each reachable function is then scanned syntactically:

* **PURE001** — ``global`` rebinds, mutator-method calls / subscript or
  attribute stores on module-level names, and class-attribute writes.
* **PURE002** — ``os.environ`` / ``os.getenv`` reads, wall-clock reads
  (``time.time``-family, ``datetime.now``-family) and unseeded
  randomness (``random.*`` module-level, ``np.random.*`` legacy global,
  zero-argument ``default_rng()``).
* **KEY001 (mutated-global read)** — a read of a module global that
  package code mutates at runtime: the value observed depends on worker
  history, so it is result-affecting state outside the key.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..lint import Finding
from ..flow.effects import (
    AbstractVal,
    BodyWalker,
    EffectAnalyzer,
    EffectSet,
    EffectSink,
    Instance,
    MUTATORS,
    _GraphBuilder,
    _sig,
)
from ..flow.model import ClassInfo, ModuleInfo, PackageIndex
from .cachekey import CacheModel

#: time-module attributes that read the wall clock.
WALL_CLOCK = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock",
})

#: datetime constructors that read the wall clock.
DATETIME_NOW = frozenset({"now", "utcnow", "today"})

#: stdlib ``random`` module-level functions (global, seeded per process).
RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "lognormvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes",
})

#: ``np.random`` legacy global-state draws.
NP_RANDOM_FUNCS = frozenset({
    "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "poisson", "binomial", "exponential", "bytes",
})

#: Value shapes that make a module-level binding a mutable container.
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "defaultdict", "deque", "Counter",
    "OrderedDict", "bytearray",
})


@dataclass
class ReachedFn:
    """One function reachable from a worker entry point."""

    qualname: str
    module: ModuleInfo
    fn: ast.FunctionDef


@dataclass
class WorkerReport:
    roots: List[str] = field(default_factory=list)
    reachable: int = 0
    env_reads: List[str] = field(default_factory=list)
    clock_reads: List[str] = field(default_factory=list)
    random_reads: List[str] = field(default_factory=list)
    global_writes: List[str] = field(default_factory=list)


class _PuritySink(EffectSink):
    """Records call edges into the reachability builder (effects dropped)."""

    def __init__(
        self, analyzer: EffectAnalyzer, builder: "_WorkerGraphBuilder"
    ) -> None:
        super().__init__(analyzer, EffectSet())
        self.builder = builder

    def call(
        self,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        node: ast.AST,
        concrete: Optional[ClassInfo] = None,
    ) -> None:
        # Muted passes (loop priming) still traverse real calls; purity
        # cares about reachability, not per-iteration multiplicity, so
        # record regardless of mute depth.
        self.builder.on_call(instance, method, bindings, concrete)

    def function(
        self,
        summary: EffectSet,
        node: ast.AST,
        module: Optional[ModuleInfo] = None,
        fn: Optional[ast.FunctionDef] = None,
        bindings: Optional[Dict[str, AbstractVal]] = None,
    ) -> None:
        if module is not None and fn is not None:
            self.builder.on_function(module, fn, bindings or {})


class _PurityWalker(BodyWalker):
    """BodyWalker that follows bare ``ClassName(...)`` constructor calls."""

    def __init__(self, *args, builder: "_WorkerGraphBuilder") -> None:
        super().__init__(*args)
        self.builder = builder

    def _call(self, call: ast.Call) -> AbstractVal:
        func = call.func
        if isinstance(func, ast.Name) and func.id != "super":
            cls = self.index.resolve_class(func.id)
            if cls is not None:
                inst = self.builder.class_instance(cls)
                resolved = self.index.resolve_method(cls, "__init__")
                if resolved is not None:
                    bindings = self._bind_call_args(resolved[1], call)
                    self.sink.call(inst, "__init__", bindings, call,
                                   concrete=cls)
                else:
                    self._eval_args(call)
                return inst
        return super()._call(call)


class _WorkerGraphBuilder:
    """Transitive closure of worker-reachable functions/methods."""

    def __init__(self, index: PackageIndex, analyzer: EffectAnalyzer) -> None:
        self.index = index
        self.analyzer = analyzer
        self.functions: Dict[str, ReachedFn] = {}
        self._instances: Dict[str, Instance] = {}
        self._seen: Set[Tuple] = set()
        self._queue: List[Tuple] = []

    def class_instance(self, cls: ClassInfo) -> Instance:
        inst = self._instances.get(cls.name)
        if inst is None:
            inst = Instance(f"<{cls.name}>", [cls])
            self._instances[cls.name] = inst
            _GraphBuilder(self.index)._populate(inst, [(cls, {})], depth=0)
        return inst

    def on_call(
        self,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        concrete: Optional[ClassInfo],
    ) -> None:
        candidates = [concrete] if concrete is not None else instance.classes
        for cls in candidates:
            resolved = self.index.resolve_method(cls, method)
            if resolved is None:
                continue
            defclass, fn = resolved
            qual = f"{defclass.name}.{method}"
            self.functions.setdefault(
                qual, ReachedFn(qual, defclass.module, fn)
            )
            key = ("m", instance.key, cls.name, method, _sig(bindings))
            if key in self._seen:
                continue
            self._seen.add(key)
            self._queue.append(("m", instance, cls, defclass, fn, bindings))

    def on_function(
        self,
        module: ModuleInfo,
        fn: ast.FunctionDef,
        bindings: Dict[str, AbstractVal],
    ) -> None:
        qual = f"{module.name}.{fn.name}"
        self.functions.setdefault(qual, ReachedFn(qual, module, fn))
        key = ("f", module.name, fn.name, _sig(bindings))
        if key in self._seen:
            return
        self._seen.add(key)
        self._queue.append(("f", module, fn, bindings))

    def build(self, roots: List[Tuple[ModuleInfo, ast.FunctionDef]]) -> None:
        for module, fn in roots:
            qual = f"{module.name}.{fn.name}"
            self.functions.setdefault(qual, ReachedFn(qual, module, fn))
            walker = _PurityWalker(
                self.analyzer, module, None, None, None, {},
                _PuritySink(self.analyzer, self), builder=self,
            )
            walker.exec_body(fn.body)
        self._drain()

    def _drain(self) -> None:
        while self._queue:
            item = self._queue.pop(0)
            if item[0] == "m":
                _, instance, cls, defclass, fn, bindings = item
                env = {k: v for k, v in bindings.items() if v is not None}
                walker = _PurityWalker(
                    self.analyzer, defclass.module, instance, cls, defclass,
                    env, _PuritySink(self.analyzer, self), builder=self,
                )
            else:
                _, module, fn, bindings = item
                env = {k: v for k, v in bindings.items() if v is not None}
                walker = _PurityWalker(
                    self.analyzer, module, None, None, None, env,
                    _PuritySink(self.analyzer, self), builder=self,
                )
            walker.exec_body(fn.body)


# --------------------------------------------------------------------------- #
# Syntactic scanners over reachable functions                                 #
# --------------------------------------------------------------------------- #


def _module_top_names(module: ModuleInfo) -> Set[str]:
    """Names bound at module top level (incl. inside top-level If/Try)."""
    tops: Set[str] = set()

    def scan(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        tops.add(t.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    tops.add(stmt.target.id)
            elif isinstance(stmt, ast.If):
                scan(stmt.body)
                scan(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                scan(stmt.body)
                for h in stmt.handlers:
                    scan(h.body)
                scan(stmt.orelse)
                scan(stmt.finalbody)

    scan(module.tree.body)
    return tops


def _local_names(fn: ast.FunctionDef) -> Set[str]:
    """Over-approximate local bindings of ``fn`` (params + stores)."""
    bound: Set[str] = set()
    args = fn.args
    for a in (list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    globals_decl: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if node is not fn:
                bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            globals_decl.update(node.names)
    return bound - globals_decl


@dataclass
class _Mutation:
    """One module-global mutation site (shared by PURE001 and KEY001)."""

    name: str          # global name (or "Cls.attr" for class-attr writes)
    kind: str          # "rebind" | "mutate" | "classattr"
    node: ast.AST


def _find_mutations(
    index: PackageIndex, module: ModuleInfo, fn: ast.FunctionDef
) -> List[_Mutation]:
    tops = _module_top_names(module)
    locals_ = _local_names(fn)
    globals_decl: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            globals_decl.update(node.names)
    out: List[_Mutation] = []

    def is_global(name: str) -> bool:
        return name in globals_decl or (name in tops and name not in locals_)

    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in globals_decl:
                out.append(_Mutation(node.id, "rebind", node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if (
                isinstance(base, ast.Name)
                and node.func.attr in MUTATORS
                and is_global(base.id)
            ):
                out.append(_Mutation(base.id, "mutate", node))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AugAssign)
                else node.targets
            )
            for t in targets:
                if isinstance(t, ast.Subscript) and isinstance(
                    t.value, ast.Name
                ) and is_global(t.value.id):
                    out.append(_Mutation(t.value.id, "mutate", t))
                elif isinstance(t, ast.Attribute) and isinstance(
                    t.value, ast.Name
                ):
                    base = t.value.id
                    if base in index.classes and base not in locals_:
                        out.append(
                            _Mutation(f"{base}.{t.attr}", "classattr", t)
                        )
                    elif is_global(base):
                        out.append(_Mutation(base, "mutate", t))
    return out


def _env_var_name(node: ast.Call) -> Optional[str]:
    for arg in node.args[:1]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _is_os_environ(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


@dataclass
class _AmbientRead:
    kind: str          # "env" | "clock" | "random"
    detail: str        # variable / function name
    node: ast.AST


def _find_ambient_reads(fn: ast.FunctionDef) -> List[_AmbientRead]:
    out: List[_AmbientRead] = []
    consumed: Set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                base = func.value
                # os.getenv("X") / os.environ.get("X")
                if isinstance(base, ast.Name) and base.id == "os" and \
                        func.attr == "getenv":
                    out.append(_AmbientRead(
                        "env", _env_var_name(node) or "<environ>", node))
                elif _is_os_environ(base) and func.attr in ("get", "__getitem__"):
                    consumed.add(id(base))
                    out.append(_AmbientRead(
                        "env", _env_var_name(node) or "<environ>", node))
                # time.time() family
                elif isinstance(base, ast.Name) and base.id == "time" and \
                        func.attr in WALL_CLOCK:
                    out.append(_AmbientRead("clock", f"time.{func.attr}", node))
                # datetime.now() / datetime.datetime.now()
                elif func.attr in DATETIME_NOW and (
                    (isinstance(base, ast.Name)
                     and base.id in ("datetime", "date"))
                    or (isinstance(base, ast.Attribute)
                        and base.attr in ("datetime", "date"))
                ):
                    out.append(_AmbientRead(
                        "clock", f"datetime.{func.attr}", node))
                # random.random() family
                elif isinstance(base, ast.Name) and base.id == "random" and \
                        func.attr in RANDOM_FUNCS:
                    out.append(_AmbientRead(
                        "random", f"random.{func.attr}", node))
                # np.random.<draw>() legacy global
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")
                    and func.attr in NP_RANDOM_FUNCS
                ):
                    out.append(_AmbientRead(
                        "random", f"np.random.{func.attr}", node))
                # default_rng() with no seed
                elif func.attr == "default_rng" and not node.args \
                        and not node.keywords:
                    out.append(_AmbientRead("random", "default_rng()", node))
            elif isinstance(func, ast.Name) and func.id == "default_rng" \
                    and not node.args and not node.keywords:
                out.append(_AmbientRead("random", "default_rng()", node))
    # Bare os.environ subscripts (os.environ["X"]) and raw references.
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and _is_os_environ(node.value):
            consumed.add(id(node.value))
            name = None
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, str
            ):
                name = node.slice.value
            out.append(_AmbientRead("env", name or "<environ>", node))
    for node in ast.walk(fn):
        if _is_os_environ(node) and id(node) not in consumed:
            out.append(_AmbientRead("env", "<environ>", node))
    return out


# --------------------------------------------------------------------------- #
# Entry point                                                                 #
# --------------------------------------------------------------------------- #


def check_workers(
    index: PackageIndex, model: CacheModel
) -> Tuple[List[Finding], List[str], WorkerReport]:
    """Run PURE001/PURE002 (+ mutated-global KEY001) from the worker roots."""
    notes: List[str] = []
    report = WorkerReport()
    if not model.worker_fns:
        notes.append("purity: no worker entry points found; skipping PURE rules")
        return [], notes, report

    analyzer = EffectAnalyzer(index)
    builder = _WorkerGraphBuilder(index, analyzer)
    roots = [(model.module, fn) for fn in model.worker_fns]
    report.roots = [f"{model.module.name}.{fn.name}" for fn in model.worker_fns]
    builder.build(roots)
    report.reachable = len(builder.functions)
    notes.append(
        f"purity: {report.reachable} worker-reachable function(s) from "
        + ", ".join(report.roots)
    )

    # Package-wide mutation pre-pass: which globals does *any* package
    # function mutate at runtime?  Reads of those from worker-reachable
    # code are KEY001 (history-dependent values outside the key).
    mutated_globals: Set[Tuple[str, str]] = set()
    for mod in index.modules.values():
        fns = list(mod.functions.values())
        for cls in mod.classes.values():
            fns.extend(cls.methods.values())
        for fn in fns:
            for mut in _find_mutations(index, mod, fn):
                if mut.kind != "classattr":
                    mutated_globals.add((mod.name, mut.name))

    findings: List[Finding] = []
    seen_fp: Set[str] = set()

    def emit(
        rule: str, path: str, node: ast.AST, message: str, fingerprint: str
    ) -> None:
        if fingerprint in seen_fp:
            return
        seen_fp.add(fingerprint)
        findings.append(
            Finding(
                path=path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=rule,
                message=message,
                fingerprint=fingerprint,
            )
        )

    for qual in sorted(builder.functions):
        reached = builder.functions[qual]
        mod, fn = reached.module, reached.fn

        for mut in _find_mutations(index, mod, fn):
            if mut.kind == "rebind":
                msg = (
                    f"worker-reachable {qual} rebinds module global "
                    f"'{mut.name}'; resident pool workers diverge from fresh "
                    "processes"
                )
            elif mut.kind == "classattr":
                msg = (
                    f"worker-reachable {qual} writes class attribute "
                    f"'{mut.name}'; the write outlives the request in a "
                    "resident worker"
                )
            else:
                msg = (
                    f"worker-reachable {qual} mutates module-level container "
                    f"'{mut.name}'; state accumulates across requests in a "
                    "process pool"
                )
            emit(
                "PURE001", mod.relpath, mut.node, msg,
                f"PURE001|{mut.kind}:{mod.name}.{mut.name}|{qual}",
            )

        for read in _find_ambient_reads(fn):
            if read.kind == "env":
                msg = (
                    f"environment variable '{read.detail}' is read in "
                    f"worker-reachable {qual}; cached results can depend on "
                    "process environment that is not part of the cache key"
                )
            elif read.kind == "clock":
                msg = (
                    f"wall-clock read {read.detail}() in worker-reachable "
                    f"{qual}; cached results must not depend on when they "
                    "were computed"
                )
            else:
                msg = (
                    f"unseeded randomness ({read.detail}) in worker-reachable "
                    f"{qual}; use a seeded generator threaded from the recipe"
                )
            emit(
                "PURE002", mod.relpath, read.node, msg,
                f"PURE002|{read.kind}:{read.detail}|{qual}",
            )
            target = {
                "env": report.env_reads,
                "clock": report.clock_reads,
                "random": report.random_reads,
            }[read.kind]
            if read.detail not in target:
                target.append(read.detail)

        # Mutated-global reads: value depends on worker history.
        locals_ = _local_names(fn)
        tops = _module_top_names(mod)
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in tops
                and node.id not in locals_
                and (mod.name, node.id) in mutated_globals
            ):
                continue
            emit(
                "KEY001", mod.relpath, node,
                f"worker-reachable {qual} reads module global '{node.id}', "
                "which package code mutates at runtime; its value is "
                "worker-history state outside the cache key",
                f"KEY001|global:{mod.name}.{node.id}|{qual}",
            )

    report.global_writes = sorted(
        {f.fingerprint.split("|")[1] for f in findings
         if f.rule_id == "PURE001"}
    )
    return findings, notes, report
