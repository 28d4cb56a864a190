"""Package model shared by the flow analyses (stdlib ``ast`` only).

Parses every ``*.py`` file under one package root once and exposes the
facts both passes need:

* classes, their methods and base classes (for method resolution),
* per-class attribute *types* — which component class ``self.x`` holds,
  resolved from constructor calls, annotations, factory return
  annotations and annotated ``__init__`` parameters,
* per-class and module-level *unit* annotations (the
  :mod:`repro.units` vocabulary) for the dimension checker.

Class names are assumed unique across the package (true for this repo);
on a collision the first definition wins and the module records the
ambiguity so findings can say so.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Annotation names recognized as units (mirrors ``repro.units``).
UNIT_NAMES = ("Tokens", "Joules", "Watts", "Cycles", "Hertz")

#: Typing containers whose subscript argument carries the element type.
_CONTAINER_HEADS = {
    "List", "list", "Sequence", "Tuple", "tuple", "Deque", "deque",
    "Optional", "Iterable", "Set", "set", "FrozenSet", "frozenset",
}


def annotation_heads(node: Optional[ast.expr]) -> List[str]:
    """Candidate class/unit names named by an annotation expression.

    ``Core`` -> [Core]; ``List[Core]`` -> [Core]; ``Optional[X]`` ->
    [X]; ``"List[Core]"`` (string annotation) -> [Core].  Unknown
    shapes yield [].
    """
    if node is None:
        return []
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
        return annotation_heads(parsed)
    if isinstance(node, ast.Subscript):
        heads = annotation_heads(node.value)
        if heads and heads[0] in _CONTAINER_HEADS:
            inner = node.slice
            if isinstance(inner, ast.Tuple):
                out: List[str] = []
                for elt in inner.elts:
                    out.extend(annotation_heads(elt))
                return out
            return annotation_heads(inner)
        return heads
    return []


def annotation_unit(node: Optional[ast.expr]) -> Optional[str]:
    """The unit named by an annotation (sees through containers)."""
    for head in annotation_heads(node):
        if head in UNIT_NAMES:
            return head
    return None


def is_annotated_replicated(node: Optional[ast.expr]) -> bool:
    """True when the annotation is a homogeneous container (List[...])."""
    if isinstance(node, ast.Subscript):
        heads = annotation_heads(node.value)
        return bool(heads) and heads[0] in (
            "List", "list", "Sequence", "Deque", "deque", "Tuple", "tuple"
        )
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
        return is_annotated_replicated(parsed)
    return False


def has_decorator(node: ast.FunctionDef, *names: str) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id in names:
            return True
        if isinstance(target, ast.Attribute) and target.attr in names:
            return True
    return False


@dataclass
class ClassInfo:
    """One class definition and what the analyses know about it."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: ``self.x`` -> class name it holds (components / typed refs).
    attr_classes: Dict[str, str] = field(default_factory=dict)
    #: ``self.x`` -> unit name (repro.units vocabulary).
    attr_units: Dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.name}"


@dataclass
class ModuleInfo:
    """One parsed module under the package root."""

    path: Path
    relpath: str          # package-root-relative, forward slashes
    name: str             # dotted, relative to the package root
    tree: ast.Module
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: module-level ``NAME: Unit = ...`` constants.
    constant_units: Dict[str, str] = field(default_factory=dict)


class PackageIndex:
    """Whole-package symbol index for the flow analyses."""

    def __init__(self) -> None:
        self.root: Optional[Path] = None
        self.modules: Dict[str, ModuleInfo] = {}
        #: bare class name -> ClassInfo (first definition wins).
        self.classes: Dict[str, ClassInfo] = {}
        #: bare function name -> (module, FunctionDef); first wins.
        self.functions: Dict[str, Tuple[ModuleInfo, ast.FunctionDef]] = {}
        self.ambiguous_classes: List[str] = []
        self.parse_errors: List[Tuple[str, str]] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, root: Path) -> "PackageIndex":
        index = cls()
        index.root = root
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            name = rel[:-3].replace("/", ".")
            if name.endswith(".__init__"):
                name = name[: -len(".__init__")]
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError as exc:
                index.parse_errors.append((rel, str(exc)))
                continue
            mod = ModuleInfo(path=path, relpath=rel, name=name or rel, tree=tree)
            index.modules[mod.name] = mod
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    info = _build_class(mod, node)
                    mod.classes[info.name] = info
                    if info.name in index.classes:
                        index.ambiguous_classes.append(info.name)
                    else:
                        index.classes[info.name] = info
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    mod.functions[node.name] = node
                    index.functions.setdefault(node.name, (mod, node))
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    unit = annotation_unit(node.annotation)
                    if unit:
                        mod.constant_units[node.target.id] = unit
        index._resolve_attr_types()
        return index

    # -- queries ------------------------------------------------------------

    def resolve_class(self, name: str) -> Optional[ClassInfo]:
        return self.classes.get(name)

    def resolve_function(
        self, name: str, module: Optional[ModuleInfo] = None
    ) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
        if module is not None and name in module.functions:
            return module, module.functions[name]
        return self.functions.get(name)

    def mro(self, info: ClassInfo) -> List[ClassInfo]:
        """The class plus its in-package base chain, nearest first."""
        seen = {info.name}
        order = [info]
        queue = list(info.bases)
        while queue:
            base = self.resolve_class(queue.pop(0))
            if base is None or base.name in seen:
                continue
            seen.add(base.name)
            order.append(base)
            queue.extend(base.bases)
        return order

    def resolve_method(
        self, info: ClassInfo, name: str
    ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        """MRO lookup of ``name`` starting at ``info``."""
        for cls in self.mro(info):
            fn = cls.methods.get(name)
            if fn is not None:
                return cls, fn
        return None

    def attr_class(self, info: ClassInfo, attr: str) -> Optional[ClassInfo]:
        """Class held by ``self.attr`` on ``info`` (searches the MRO)."""
        for cls in self.mro(info):
            name = cls.attr_classes.get(attr)
            if name is not None:
                return self.resolve_class(name)
        return None

    def attr_unit(self, info: ClassInfo, attr: str) -> Optional[str]:
        for cls in self.mro(info):
            unit = cls.attr_units.get(attr)
            if unit is not None:
                return unit
        return None

    def factory_returns(self, fn: ast.FunctionDef) -> List[str]:
        """Classes a function may return, per its return annotation."""
        return [
            h for h in annotation_heads(fn.returns) if h in self.classes
        ]

    # -- internal -----------------------------------------------------------

    def _resolve_attr_types(self) -> None:
        """Second pass: resolve self-attribute classes and units.

        Needs the full class/function tables, hence after parsing.
        Repeats until no attribute type changes, because
        ``self.x = param.attr`` resolves only once the parameter's class
        has typed ``attr`` (entries are only ever added).
        """
        classes = self.classes.values()
        known = None
        while known != [len(info.attr_classes) for info in classes]:
            known = [len(info.attr_classes) for info in classes]
            for info in classes:
                self._resolve_class_attrs(info)

    def _resolve_class_attrs(self, info: ClassInfo) -> None:
        param_units, param_classes = {}, {}
        init = info.methods.get("__init__")
        if init is not None:
            for arg in list(init.args.args) + list(init.args.kwonlyargs):
                unit = annotation_unit(arg.annotation)
                if unit:
                    param_units[arg.arg] = unit
                for head in annotation_heads(arg.annotation):
                    if head in self.classes:
                        param_classes[arg.arg] = head
                        break
        for fn in info.methods.values():
            for stmt in ast.walk(fn):
                self._record_self_assign(
                    info, stmt, param_units, param_classes
                )
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                unit = annotation_unit(stmt.annotation)
                if unit:
                    info.attr_units.setdefault(stmt.target.id, unit)
                for head in annotation_heads(stmt.annotation):
                    if head in self.classes:
                        info.attr_classes.setdefault(stmt.target.id, head)
                        break

    def _record_self_assign(
        self,
        info: ClassInfo,
        stmt: ast.AST,
        param_units: Dict[str, str],
        param_classes: Dict[str, str],
    ) -> None:
        targets: Sequence[ast.expr]
        value: Optional[ast.expr]
        annotation: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value, annotation = [stmt.target], stmt.value, stmt.annotation
        else:
            return
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if annotation is not None:
                unit = annotation_unit(annotation)
                if unit:
                    info.attr_units.setdefault(attr, unit)
                for head in annotation_heads(annotation):
                    if head in self.classes:
                        info.attr_classes.setdefault(attr, head)
                        break
            if value is None:
                continue
            cls_name = self._value_class(info, value, param_classes)
            if cls_name is not None:
                info.attr_classes.setdefault(attr, cls_name)
            unit = self._value_unit(info, value, param_units)
            if unit is not None:
                info.attr_units.setdefault(attr, unit)

    def _value_class(
        self, info: ClassInfo, value: ast.expr, param_classes: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            name = value.func.id
            if name in self.classes:
                return name
            resolved = self.resolve_function(name, info.module)
            if resolved is not None:
                returns = self.factory_returns(resolved[1])
                if returns:
                    return returns[0]
        if isinstance(value, ast.Name) and value.id in param_classes:
            return param_classes[value.id]
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in param_classes
        ):
            # ``self.x = param.attr``: what ``attr`` holds on the class
            # the parameter is annotated with.
            owner = self.classes[param_classes[value.value.id]]
            held = self.attr_class(owner, value.attr)
            if held is not None:
                return held.name
        if isinstance(value, ast.ListComp) and isinstance(
            value.elt, ast.Call
        ) and isinstance(value.elt.func, ast.Name):
            if value.elt.func.id in self.classes:
                return value.elt.func.id
        return None

    def _value_unit(
        self, info: ClassInfo, value: ast.expr, param_units: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(value, ast.Name):
            if value.id in param_units:
                return param_units[value.id]
            return info.module.constant_units.get(value.id)
        return None


def _build_class(mod: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    bases: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
    info = ClassInfo(name=node.name, module=mod, node=node, bases=bases)
    for child in node.body:
        if isinstance(child, ast.FunctionDef):
            info.methods[child.name] = child
    return info
