"""Instance graph + may-read/may-write effect summaries.

The hazard analysis needs to know, for every component method invoked
from the per-cycle loop, which pieces of *shared simulator state* it
may read and may write.  Two layers provide that:

* :func:`build_instance_graph` abstractly interprets the constructor
  chain rooted at the simulator class: every ``self.x = ClassName(...)``
  creates an instance node, every ``self.x = param`` aliases the node
  the caller passed in — so the graph knows that ``Core.hierarchy`` *is*
  the simulator's shared ``MemoryHierarchy`` while ``Core.events`` is
  per-core.  Per-core containers (``self.cores = [Core(...) ...]``)
  become a single *replicated* node (``sim.cores[*]``).

* :class:`EffectAnalyzer` walks method bodies interprocedurally
  (bounded depth, memoized) and records accesses as
  :class:`EffectAccess` locations — ``(instance node, attribute)``
  pairs like ``sim.controller.execute``.  Local variables are tracked
  as aliases of instances/locations; calls on component instances
  recurse into the callee with arguments bound, so a list the driver
  hands to ``end_cycle`` keeps its identity.

Everything is a *may* analysis: unresolvable receivers and deeper
attribute paths degrade to "unknown" (dropped) or collapse onto the
first attribute, never crash.  Soundness limits are documented in
DESIGN.md §7.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .model import ClassInfo, ModuleInfo, PackageIndex, annotation_heads, has_decorator

#: Container-method names treated as mutations of the receiver location.
MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "update", "add", "setdefault", "fill", "rotate",
})

#: Interprocedural recursion bound (call-chain depth).
MAX_CALL_DEPTH = 14


# --------------------------------------------------------------------------- #
# Abstract values                                                             #
# --------------------------------------------------------------------------- #


class Instance:
    """One abstract component instance (node in the instance graph)."""

    __slots__ = ("key", "classes", "attrs", "replicated")

    def __init__(
        self, key: str, classes: List[ClassInfo], replicated: bool = False
    ) -> None:
        self.key = key
        self.classes = classes
        self.attrs: Dict[str, "Instance"] = {}
        self.replicated = replicated

    @property
    def display_class(self) -> str:
        """Most-base class name (stable label for factory-built unions)."""
        if len(self.classes) == 1:
            return self.classes[0].name
        # The common ancestor has the shortest base chain.
        return min(self.classes, key=lambda c: len(c.bases)).name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instance {self.key} [{', '.join(c.name for c in self.classes)}]>"


@dataclass(frozen=True)
class Loc:
    """A data attribute on an instance (shared-state location)."""

    instance: Instance
    attr: str

    @property
    def key(self) -> str:
        return f"{self.instance.key}.{self.attr}"


@dataclass(frozen=True)
class BoundMethod:
    instance: Instance
    name: str


@dataclass(frozen=True)
class SuperRef:
    instance: Instance
    concrete: ClassInfo
    defclass: ClassInfo


AbstractVal = Union[Instance, Loc, BoundMethod, SuperRef, None]


@dataclass(frozen=True)
class EffectAccess:
    """One recorded access: where in the state, where in the source."""

    loc_key: str
    instance: Instance = field(compare=False, hash=False)
    attr: str = field(compare=False, hash=False)
    file: str = field(compare=False, hash=False)
    line: int = field(compare=False, hash=False)
    col: int = field(compare=False, hash=False)


class EffectSet:
    """May-read / may-write summary (first access site kept per loc)."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: Dict[str, EffectAccess] = {}
        self.writes: Dict[str, EffectAccess] = {}

    def update(self, other: "EffectSet") -> None:
        for k, v in other.reads.items():
            self.reads.setdefault(k, v)
        for k, v in other.writes.items():
            self.writes.setdefault(k, v)


# --------------------------------------------------------------------------- #
# Instance graph construction                                                 #
# --------------------------------------------------------------------------- #


class _GraphBuilder:
    def __init__(self, index: PackageIndex) -> None:
        self.index = index

    def build(self, root_class: ClassInfo, root_key: str = "sim") -> Instance:
        root = Instance(root_key, [root_class])
        self._populate(root, [(root_class, {})], depth=0)
        return root

    def _populate(
        self,
        instance: Instance,
        specs: Sequence[Tuple[ClassInfo, Dict[str, Instance]]],
        depth: int,
    ) -> None:
        if depth > 8:
            return
        for concrete, bindings in specs:
            resolved = self.index.resolve_method(concrete, "__init__")
            if resolved is None:
                continue
            defclass, init = resolved
            env = self._bind_params(init, bindings)
            self._exec_init(instance, concrete, defclass, init, env, depth)

    def _bind_params(
        self, fn: ast.FunctionDef, bindings: Dict[str, Instance]
    ) -> Dict[str, Instance]:
        env: Dict[str, Instance] = {}
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            if arg.arg in bindings:
                env[arg.arg] = bindings[arg.arg]
        return env

    def _exec_init(
        self,
        instance: Instance,
        concrete: ClassInfo,
        defclass: ClassInfo,
        init: ast.FunctionDef,
        env: Dict[str, Instance],
        depth: int,
    ) -> None:
        for stmt in init.body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__init__"
                    and isinstance(call.func.value, ast.Call)
                    and isinstance(call.func.value.func, ast.Name)
                    and call.func.value.func.id == "super"
                ):
                    self._exec_super_init(
                        instance, concrete, defclass, call, env, depth
                    )
                continue
            if isinstance(stmt, ast.Assign):
                targets, value, annotation = stmt.targets, stmt.value, None
            elif isinstance(stmt, ast.AnnAssign):
                targets, value, annotation = [stmt.target], stmt.value, stmt.annotation
            elif isinstance(stmt, ast.If):
                # Conditional construction: take both branches (may-graph).
                for body in (stmt.body, stmt.orelse):
                    sub = ast.FunctionDef(
                        name=init.name, args=init.args, body=body,
                        decorator_list=[], returns=None,
                    )
                    self._exec_init(instance, concrete, defclass, sub, env, depth)
                continue
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                self._assign_attr(
                    instance, target.attr, value, annotation, env, depth
                )

    def _exec_super_init(
        self,
        instance: Instance,
        concrete: ClassInfo,
        defclass: ClassInfo,
        call: ast.Call,
        env: Dict[str, Instance],
        depth: int,
    ) -> None:
        mro = self.index.mro(concrete)
        try:
            start = mro.index(defclass) + 1
        except ValueError:
            start = 1
        for cls in mro[start:]:
            init = cls.methods.get("__init__")
            if init is None:
                continue
            bindings = self._map_call_args(init, call, instance, env)
            self._exec_init(
                instance, concrete, cls, init,
                self._bind_params(init, bindings), depth,
            )
            return

    def _assign_attr(
        self,
        instance: Instance,
        attr: str,
        value: Optional[ast.expr],
        annotation: Optional[ast.expr],
        env: Dict[str, Instance],
        depth: int,
    ) -> None:
        child_key = f"{instance.key}.{attr}"
        if value is not None:
            resolved = self._eval(value, instance, env, child_key, depth)
            if isinstance(resolved, Instance):
                instance.attrs[attr] = resolved
                return
            if resolved is not None:  # (specs, replicated)
                specs, replicated = resolved
                key = child_key + ("[*]" if replicated else "")
                child = Instance(
                    key, [s[0] for s in specs], replicated=replicated
                )
                instance.attrs[attr] = child
                self._populate(child, specs, depth + 1)
                return
        if annotation is not None and attr not in instance.attrs:
            heads = [
                h for h in annotation_heads(annotation) if h in self.index.classes
            ]
            if heads:
                from .model import is_annotated_replicated

                replicated = is_annotated_replicated(annotation)
                key = child_key + ("[*]" if replicated else "")
                child = Instance(
                    key, [self.index.classes[heads[0]]], replicated=replicated
                )
                instance.attrs[attr] = child
                self._populate(child, [(self.index.classes[heads[0]], {})],
                               depth + 1)

    def _eval(
        self,
        value: ast.expr,
        instance: Instance,
        env: Dict[str, Instance],
        child_key: str,
        depth: int,
    ):
        """Abstract constructor-expression evaluation.

        Returns an :class:`Instance` (alias), a ``(specs, replicated)``
        pair describing a new child, or None.
        """
        if isinstance(value, ast.Name):
            return env.get(value.id)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            return instance.attrs.get(value.attr)
        if isinstance(value, ast.IfExp):
            for branch in (value.body, value.orelse):
                out = self._eval(branch, instance, env, child_key, depth)
                if out is not None:
                    return out
            return None
        if isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call):
            # Nested constructor args must key under the replicated node
            # ("sim.cores[*].~generator"), not the bare container name.
            specs = self._call_specs(
                value.elt, instance, env, child_key + "[*]", depth
            )
            if specs:
                return specs, True
            return None
        if isinstance(value, ast.Call):
            specs = self._call_specs(value, instance, env, child_key, depth)
            if specs:
                return specs, False
        return None

    def _call_specs(
        self,
        call: ast.Call,
        instance: Instance,
        env: Dict[str, Instance],
        child_key: str,
        depth: int,
    ) -> List[Tuple[ClassInfo, Dict[str, Instance]]]:
        """Concrete (class, bindings) specs a constructor/factory yields."""
        if not isinstance(call.func, ast.Name):
            return []
        name = call.func.id
        cls = self.index.resolve_class(name)
        if cls is not None:
            init = self.index.resolve_method(cls, "__init__")
            bindings = (
                self._map_call_args(init[1], call, instance, env, child_key, depth)
                if init is not None
                else {}
            )
            return [(cls, bindings)]
        resolved = self.index.resolve_function(name)
        if resolved is None or depth > 6:
            return []
        mod, fn = resolved
        # Factory: follow each ``return ClassName(...)`` with the
        # factory's own parameters bound from this call site.
        outer = self._map_call_args(fn, call, instance, env, child_key, depth)
        specs: List[Tuple[ClassInfo, Dict[str, Instance]]] = []
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)):
                continue
            inner = node.value
            if not isinstance(inner.func, ast.Name):
                continue
            inner_cls = self.index.resolve_class(inner.func.id)
            if inner_cls is None:
                continue
            init = self.index.resolve_method(inner_cls, "__init__")
            bindings = (
                self._map_call_args(init[1], inner, None, outer, child_key, depth)
                if init is not None
                else {}
            )
            specs.append((inner_cls, bindings))
        return specs

    def _map_call_args(
        self,
        callee: ast.FunctionDef,
        call: ast.Call,
        instance: Optional[Instance],
        env: Dict[str, Instance],
        child_key: str = "",
        depth: int = 0,
    ) -> Dict[str, Instance]:
        params = [a.arg for a in callee.args.args]
        if params and params[0] == "self":
            params = params[1:]
        bindings: Dict[str, Instance] = {}

        def resolve(expr: ast.expr, slot: str) -> Optional[Instance]:
            if instance is not None or env:
                out = self._eval(
                    expr, instance or Instance("?", []), env,
                    f"{child_key}.{slot}" if child_key else slot, depth + 1,
                )
                if isinstance(out, Instance):
                    return out
                if out is not None:
                    specs, replicated = out
                    key = f"{child_key}.~{slot}" if child_key else f"~{slot}"
                    child = Instance(
                        key + ("[*]" if replicated else ""),
                        [s[0] for s in specs], replicated=replicated,
                    )
                    self._populate(child, specs, depth + 1)
                    return child
            return None

        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i >= len(params):
                break
            bound = resolve(arg, params[i])
            if bound is not None:
                bindings[params[i]] = bound
        for kw in call.keywords:
            if kw.arg is None:
                continue
            bound = resolve(kw.value, kw.arg)
            if bound is not None:
                bindings[kw.arg] = bound
        return bindings


def build_instance_graph(
    index: PackageIndex, root_class: ClassInfo, root_key: str = "sim"
) -> Instance:
    return _GraphBuilder(index).build(root_class, root_key)


# --------------------------------------------------------------------------- #
# Effect sinks                                                                #
# --------------------------------------------------------------------------- #


class EffectSink:
    """Receives accesses; ``call`` may intercept component calls.

    The default implementation merges callee summaries (computed by the
    analyzer) into an :class:`EffectSet`.  The tick extractor supplies
    its own sink that turns everything into an ordered event stream.
    """

    def __init__(self, analyzer: "EffectAnalyzer", effects: EffectSet) -> None:
        self.analyzer = analyzer
        self.effects = effects
        self.muted = 0

    def read(self, access: EffectAccess) -> None:
        if not self.muted:
            self.effects.reads.setdefault(access.loc_key, access)

    def write(self, access: EffectAccess) -> None:
        if not self.muted:
            self.effects.writes.setdefault(access.loc_key, access)

    def call(
        self,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        node: ast.AST,
        concrete: Optional[ClassInfo] = None,
    ) -> None:
        summary = self.analyzer.call_effects(instance, method, bindings, concrete)
        if not self.muted:
            self.effects.update(summary)

    def function(
        self,
        summary: EffectSet,
        node: ast.AST,
        module: Optional[ModuleInfo] = None,
        fn: Optional[ast.FunctionDef] = None,
        bindings: Optional[Dict[str, AbstractVal]] = None,
    ) -> None:
        """Module-function effects merge like method effects.

        ``module``/``fn``/``bindings`` identify the callee so sinks that
        track *reachability* (the purity pass) can follow the call; the
        default effect-merging sink ignores them.
        """
        if not self.muted:
            self.effects.update(summary)


# --------------------------------------------------------------------------- #
# The method-body walker                                                      #
# --------------------------------------------------------------------------- #


class BodyWalker:
    """Abstractly executes one function body, reporting to a sink."""

    def __init__(
        self,
        analyzer: "EffectAnalyzer",
        module: ModuleInfo,
        instance: Optional[Instance],
        concrete: Optional[ClassInfo],
        defclass: Optional[ClassInfo],
        env: Dict[str, AbstractVal],
        sink: EffectSink,
    ) -> None:
        self.analyzer = analyzer
        self.index = analyzer.index
        self.module = module
        self.instance = instance
        self.concrete = concrete
        self.defclass = defclass
        self.env = env
        self.sink = sink

    # -- recording ----------------------------------------------------------

    def _access(self, loc: Loc, node: ast.AST) -> EffectAccess:
        return EffectAccess(
            loc_key=loc.key,
            instance=loc.instance,
            attr=loc.attr,
            file=self.module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )

    def _read(self, loc: Loc, node: ast.AST) -> None:
        self.sink.read(self._access(loc, node))

    def _write(self, loc: Loc, node: ast.AST) -> None:
        self.sink.write(self._access(loc, node))

    # -- statements ---------------------------------------------------------

    def exec_body(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_loop_body(self, stmts: List[ast.stmt]) -> None:
        """Loop bodies run twice: a muted env-priming pass, then live."""
        self.sink.muted += 1
        for stmt in stmts:
            self.exec_stmt(stmt)
        self.sink.muted -= 1
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign_target(target, val)
        elif isinstance(stmt, ast.AnnAssign):
            val = self.eval(stmt.value) if stmt.value is not None else None
            self.assign_target(stmt.target, val)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
            self.augmented_target(stmt.target)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.eval(stmt.iter)
            self.bind_loop_target(stmt.target, stmt.iter)
            self.exec_loop_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_loop_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.augmented_target(target)
        # pass/break/continue/import/def: no effects tracked

    def bind_loop_target(self, target: ast.expr, iter_expr: ast.expr) -> None:
        val = self._peek(iter_expr)
        if isinstance(val, Instance):
            self.on_replicated_element(val)
            if isinstance(target, ast.Name):
                self.env[target.id] = val
            return
        # enumerate(xs) / zip(...) over an instance container.
        if isinstance(iter_expr, ast.Call) and isinstance(iter_expr.func, ast.Name):
            if iter_expr.func.id == "enumerate" and iter_expr.args:
                inner = self._peek(iter_expr.args[0])
                if isinstance(inner, Instance) and isinstance(target, ast.Tuple):
                    self.on_replicated_element(inner)
                    elts = target.elts
                    if len(elts) == 2 and isinstance(elts[1], ast.Name):
                        self.env[elts[1].id] = inner
                        return
        self._clear_target(target)

    def _clear_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._clear_target(elt)

    def _peek(self, expr: ast.expr) -> AbstractVal:
        """Like eval but without recording (used to re-inspect targets)."""
        self.sink.muted += 1
        try:
            return self.eval(expr)
        finally:
            self.sink.muted -= 1

    def assign_target(self, target: ast.expr, val: AbstractVal) -> None:
        if isinstance(target, ast.Name):
            if val is None:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = val
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value)
            if isinstance(base, Instance):
                self._write(Loc(base, target.attr), target)
            elif isinstance(base, Loc):
                self._write(base, target)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            self.eval(target.slice)
            if isinstance(base, Loc):
                self._write(base, target)
            elif isinstance(base, Instance):
                # Writing an element of a component container: treat the
                # container attribute itself as mutated state.
                pass
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_target(elt, None)
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, None)

    def augmented_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            base = self.eval(target.value)
            if isinstance(base, Instance):
                loc = Loc(base, target.attr)
                self._read(loc, target)
                self._write(loc, target)
            elif isinstance(base, Loc):
                self._read(base, target)
                self._write(base, target)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            self.eval(target.slice)
            if isinstance(base, Loc):
                self._read(base, target)
                self._write(base, target)

    # -- expressions --------------------------------------------------------

    def eval(self, expr: Optional[ast.expr]) -> AbstractVal:
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.instance is not None:
                return self.instance
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._attr_load(expr)
        if isinstance(expr, ast.Subscript):
            base = self.eval(expr.value)
            self.eval(expr.slice)
            if isinstance(base, Instance):
                self.on_replicated_element(base)
                return base
            if isinstance(base, Loc):
                self._read(base, expr)
                return base
            return None
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test)
            a = self.eval(expr.body)
            b = self.eval(expr.orelse)
            if isinstance(a, Instance) and a is b:
                return a
            return a if isinstance(a, (Instance, Loc)) else b
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in expr.generators:
                self.eval(gen.iter)
                self.bind_loop_target(gen.target, gen.iter)
                for cond in gen.ifs:
                    self.eval(cond)
            if isinstance(expr, ast.DictComp):
                self.eval(expr.key)
                self.eval(expr.value)
            else:
                self.eval(expr.elt)
            return None
        if isinstance(expr, ast.NamedExpr):
            val = self.eval(expr.value)
            self.assign_target(expr.target, val)
            return val
        if isinstance(expr, ast.Lambda):
            return None
        # Generic: evaluate children for their reads.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.eval(child)
        return None

    def _attr_load(self, expr: ast.Attribute) -> AbstractVal:
        base = self.eval(expr.value)
        attr = expr.attr
        if isinstance(base, Instance):
            sub = base.attrs.get(attr)
            if sub is not None:
                return sub
            resolved = self._resolve_any_method(base, attr)
            if resolved is not None:
                defclass, fn = resolved
                if has_decorator(fn, "property", "cached_property"):
                    self.sink.call(base, attr, {}, expr)
                    return self._return_value(base, attr)
                return BoundMethod(base, attr)
            member = self._typed_member(base, attr)
            if member is not None:
                return member
            loc = Loc(base, attr)
            self._read(loc, expr)
            return loc
        if isinstance(base, Loc):
            # Deeper paths collapse onto the top attribute (depth cap).
            self._read(base, expr)
            return base
        return None

    def _resolve_any_method(
        self, instance: Instance, name: str
    ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        for cls in instance.classes:
            resolved = self.index.resolve_method(cls, name)
            if resolved is not None:
                return resolved
        return None

    def _typed_member(self, base: Instance, attr: str) -> Optional[Instance]:
        """Component attr known only by annotation (graph gap fallback)."""
        for cls in base.classes:
            target = self.index.attr_class(cls, attr)
            if target is not None:
                return self.analyzer.member_instance(base, target, attr)
        return None

    def _return_value(self, instance: Instance, method: str) -> AbstractVal:
        resolved = self._resolve_any_method(instance, method)
        if resolved is None:
            return None
        heads = [
            h for h in annotation_heads(resolved[1].returns)
            if h in self.index.classes
        ]
        if not heads:
            return None
        return self.analyzer.member_instance(
            instance, self.index.classes[heads[0]], f"<{heads[0]}>"
        )

    def on_replicated_element(self, instance: Instance) -> None:
        """Hook for the tick extractor (group-iteration tracking)."""

    # -- calls --------------------------------------------------------------

    def _call(self, call: ast.Call) -> AbstractVal:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "super":
                if self.instance is not None and self.concrete is not None:
                    return SuperRef(
                        self.instance, self.concrete,
                        self.defclass or self.concrete,
                    )
                return None
            bound = self.env.get(func.id)
            if isinstance(bound, BoundMethod):
                return self._dispatch(bound.instance, bound.name, call)
            resolved = self.index.resolve_function(func.id, self.module)
            if resolved is not None and func.id not in self.index.classes:
                mod, fn = resolved
                bindings = self._bind_call_args(fn, call, skip_self=False)
                summary = self.analyzer.function_effects(mod, fn, bindings)
                self.sink.function(summary, call, module=mod, fn=fn,
                                   bindings=bindings)
            else:
                self._eval_args(call)
            return None
        if isinstance(func, ast.Attribute):
            recv = self.eval(func.value)
            name = func.attr
            if isinstance(recv, Instance):
                return self._dispatch(recv, name, call)
            if isinstance(recv, SuperRef):
                return self._dispatch_super(recv, name, call)
            if isinstance(recv, BoundMethod):
                self._eval_args(call)
                return None
            if isinstance(recv, Loc):
                self._eval_args(call)
                self._read(recv, call)
                if name in MUTATORS:
                    self._write(recv, call)
                return None
            self._eval_args(call)
            return None
        self.eval(func)
        self._eval_args(call)
        return None

    def _eval_args(self, call: ast.Call) -> List[AbstractVal]:
        vals = []
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                self.eval(arg.value)
                vals.append(None)
            else:
                vals.append(self.eval(arg))
        for kw in call.keywords:
            self.eval(kw.value)
        return vals

    def _bind_call_args(
        self, fn: ast.FunctionDef, call: ast.Call, skip_self: bool = True
    ) -> Dict[str, AbstractVal]:
        params = [a.arg for a in fn.args.args]
        if skip_self and params and params[0] == "self":
            params = params[1:]
        bindings: Dict[str, AbstractVal] = {}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                self.eval(arg.value)
                continue
            val = self.eval(arg)
            if i < len(params) and val is not None:
                bindings[params[i]] = val
        for kw in call.keywords:
            val = self.eval(kw.value)
            if kw.arg is not None and val is not None:
                bindings[kw.arg] = val
        return bindings

    def _dispatch(
        self, instance: Instance, method: str, call: ast.Call
    ) -> AbstractVal:
        resolved = self._resolve_any_method(instance, method)
        if resolved is None:
            self._eval_args(call)
            return None
        bindings = self._bind_call_args(resolved[1], call)
        self.sink.call(instance, method, bindings, call)
        return self._return_value(instance, method)

    def _dispatch_super(
        self, sref: SuperRef, method: str, call: ast.Call
    ) -> AbstractVal:
        mro = self.index.mro(sref.concrete)
        try:
            start = mro.index(sref.defclass) + 1
        except ValueError:
            start = 1
        for cls in mro[start:]:
            fn = cls.methods.get(method)
            if fn is None:
                continue
            bindings = self._bind_call_args(fn, call)
            self.sink.call(
                sref.instance, method, bindings, call, concrete=cls
            )
            return self._return_value(sref.instance, method)
        self._eval_args(call)
        return None


# --------------------------------------------------------------------------- #
# The analyzer (memoized interprocedural summaries)                           #
# --------------------------------------------------------------------------- #


def _sig(bindings: Dict[str, AbstractVal]) -> Tuple:
    out = []
    for name in sorted(bindings):
        val = bindings[name]
        if isinstance(val, Instance):
            out.append((name, "i", val.key))
        elif isinstance(val, Loc):
            out.append((name, "l", val.key))
        elif isinstance(val, BoundMethod):
            out.append((name, "m", val.instance.key, val.name))
    return tuple(out)


class EffectAnalyzer:
    """Computes memoized may-read/may-write summaries per method call."""

    def __init__(self, index: PackageIndex) -> None:
        self.index = index
        self._memo: Dict[Tuple, EffectSet] = {}
        self._in_progress: set = set()
        self._members: Dict[Tuple[str, str], Instance] = {}
        self._depth = 0

    def member_instance(
        self, owner: Instance, cls: ClassInfo, label: str
    ) -> Instance:
        """Abstract member object (e.g. a lock returned by a lookup).

        All members of one class under one owner collapse to a single
        shared node — their state is owner state for hazard purposes.
        """
        key = (owner.key, cls.name)
        member = self._members.get(key)
        if member is None:
            member = Instance(f"{owner.key}.{label}", [cls], replicated=False)
            self._members[key] = member
            _GraphBuilder(self.index)._populate(member, [(cls, {})], depth=6)
        return member

    def call_effects(
        self,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        concrete: Optional[ClassInfo] = None,
    ) -> EffectSet:
        """Union summary over the instance's concrete class candidates."""
        total = EffectSet()
        candidates = [concrete] if concrete is not None else instance.classes
        for cls in candidates:
            total.update(self._method_effects(instance, cls, method, bindings))
        return total

    def _method_effects(
        self,
        instance: Instance,
        concrete: ClassInfo,
        method: str,
        bindings: Dict[str, AbstractVal],
    ) -> EffectSet:
        key = (instance.key, concrete.name, method, _sig(bindings))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress or self._depth >= MAX_CALL_DEPTH:
            return EffectSet()
        resolved = self.index.resolve_method(concrete, method)
        if resolved is None:
            return EffectSet()
        defclass, fn = resolved
        self._in_progress.add(key)
        self._depth += 1
        try:
            effects = EffectSet()
            env = self._param_env(fn, bindings)
            walker = BodyWalker(
                self, defclass.module, instance, concrete, defclass, env,
                EffectSink(self, effects),
            )
            walker.exec_body(fn.body)
            self._memo[key] = effects
            return effects
        finally:
            self._depth -= 1
            self._in_progress.discard(key)

    def function_effects(
        self,
        module: ModuleInfo,
        fn: ast.FunctionDef,
        bindings: Dict[str, AbstractVal],
    ) -> EffectSet:
        key = ("", module.name, fn.name, _sig(bindings))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress or self._depth >= MAX_CALL_DEPTH:
            return EffectSet()
        self._in_progress.add(key)
        self._depth += 1
        try:
            effects = EffectSet()
            env = self._param_env(fn, bindings)
            walker = BodyWalker(
                self, module, None, None, None, env, EffectSink(self, effects)
            )
            walker.exec_body(fn.body)
            self._memo[key] = effects
            return effects
        finally:
            self._depth -= 1
            self._in_progress.discard(key)

    @staticmethod
    def _param_env(
        fn: ast.FunctionDef, bindings: Dict[str, AbstractVal]
    ) -> Dict[str, AbstractVal]:
        return {k: v for k, v in bindings.items() if v is not None}
