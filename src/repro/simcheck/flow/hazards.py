"""Same-cycle tick-ordering hazard detection (FLOW001/FLOW002).

The simulator advances every component once per global cycle, in the
hard-coded order of the driver's ``run()`` loop.  That order is an
implementation detail — the modelled hardware is concurrent — so any
place where component A *reads* shared state that a later-ticked
component B *writes* in the same cycle makes results depend on the
loop's statement order: reordering a refactor silently changes AoPB.

Two rules over the per-cycle event stream:

* **FLOW001** — a read of a shared location at tick position *a* and a
  write of the same location at position *b > a* by a different
  component entry.  (Write-then-read is the intended producer/consumer
  dataflow and is not reported.)
* **FLOW002** — within one replicated sweep (``for i in range(n):
  core.step(...)``), a shared location is both read and written: the
  interaction between iteration *i* and iteration *j* depends on core
  index order.  Per-core state (locations rooted under the replicated
  instance the sweep iterates) is exempt — iteration *i* touching its
  own core is sequential code, not an ordering hazard.

The event stream comes from abstract execution of the driver loop: the
prologue (alias bindings like ``execute = controller.execute``) runs
muted, then the cycle-loop body runs live, expanding every component
method call into its interprocedural effect summary at the call's tick
position.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..lint import Finding
from .effects import (
    AbstractVal,
    BodyWalker,
    EffectAccess,
    EffectAnalyzer,
    EffectSet,
    EffectSink,
    Instance,
    build_instance_graph,
)
from .model import ClassInfo, ModuleInfo, PackageIndex

ROOT_KEY = "sim"

#: Loop-method names recognized as the per-cycle driver.
#: ``_run_reference`` is ``CMPSimulator``'s lock-step loop — ``run``
#: itself became an engine dispatcher with no loop, and the *reference*
#: loop (not ``repro.sim.engine.FastEngine``'s fast-forwarding one) is
#: the per-cycle semantics every engine must reproduce.
DRIVER_METHODS = ("run", "_run_reference", "tick", "advance", "step")


@dataclass(frozen=True)
class TickEvent:
    """One shared-state access at a position in the cycle loop."""

    kind: str               # "r" | "w"
    access: EffectAccess
    pos: int                # statement position within the cycle body
    label: str              # "Core.step", "CMPSimulator.run", ...
    group: Optional[int]    # innermost for-loop id, None at top level
    receiver_key: Optional[str]  # callee instance key, None for driver


def find_driver(
    index: PackageIndex,
) -> Optional[Tuple[ClassInfo, ast.FunctionDef, ast.stmt]]:
    """Locate (simulator class, driver method, cycle loop statement)."""
    best: Optional[Tuple[int, ClassInfo, ast.FunctionDef, ast.stmt]] = None
    for mod in index.modules.values():
        for cls in mod.classes.values():
            for mname in DRIVER_METHODS:
                fn = cls.methods.get(mname)
                if fn is None:
                    continue
                loop = _top_level_loop(fn)
                if loop is None:
                    continue
                score = 1
                if mod.relpath.endswith("sim/cmp.py") or mod.name == "sim.cmp":
                    score += 10
                if "Simulator" in cls.name or cls.name.endswith("Sim"):
                    score += 5
                if mname == "run":
                    score += 1
                if best is None or score > best[0]:
                    best = (score, cls, fn, loop)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _top_level_loop(fn: ast.FunctionDef) -> Optional[ast.stmt]:
    for stmt in fn.body:
        if isinstance(stmt, (ast.While, ast.For)):
            return stmt
    return None


# --------------------------------------------------------------------------- #
# Tick event extraction                                                       #
# --------------------------------------------------------------------------- #


class _TickState:
    def __init__(self) -> None:
        self.events: List[TickEvent] = []
        self.pos = 0
        self.group_stack: List[int] = []
        self.next_group = 0
        #: group id -> replicated instance keys iterated by that loop.
        self.group_iterates: Dict[int, Set[str]] = {}

    @property
    def group(self) -> Optional[int]:
        return self.group_stack[-1] if self.group_stack else None


class _TickSink(EffectSink):
    def __init__(
        self, analyzer: EffectAnalyzer, state: _TickState, driver_label: str
    ) -> None:
        super().__init__(analyzer, EffectSet())
        self.state = state
        self.driver_label = driver_label

    def _emit(
        self,
        kind: str,
        access: EffectAccess,
        label: str,
        receiver_key: Optional[str],
    ) -> None:
        self.state.events.append(
            TickEvent(
                kind=kind,
                access=access,
                pos=self.state.pos,
                label=label,
                group=self.state.group,
                receiver_key=receiver_key,
            )
        )

    def read(self, access: EffectAccess) -> None:
        if not self.muted:
            self._emit("r", access, self.driver_label, None)

    def write(self, access: EffectAccess) -> None:
        if not self.muted:
            self._emit("w", access, self.driver_label, None)

    def call(
        self,
        instance: Instance,
        method: str,
        bindings: Dict[str, AbstractVal],
        node: ast.AST,
        concrete: Optional[ClassInfo] = None,
    ) -> None:
        summary = self.analyzer.call_effects(instance, method, bindings, concrete)
        if self.muted:
            return
        cls_name = concrete.name if concrete is not None else instance.display_class
        label = f"{cls_name}.{method}"
        for access in summary.reads.values():
            self._emit("r", access, label, instance.key)
        for access in summary.writes.values():
            self._emit("w", access, label, instance.key)

    def function(self, summary: EffectSet, node: ast.AST, **kwargs) -> None:
        if self.muted:
            return
        for access in summary.reads.values():
            self._emit("r", access, self.driver_label, None)
        for access in summary.writes.values():
            self._emit("w", access, self.driver_label, None)


class _TickWalker(BodyWalker):
    """BodyWalker that numbers statements and tracks replicated sweeps."""

    def __init__(self, *args, state: _TickState) -> None:
        super().__init__(*args)
        self.state = state

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if not self.sink.muted:
            self.state.pos += 1
        if isinstance(stmt, ast.For):
            self.eval(stmt.iter)
            self.bind_loop_target(stmt.target, stmt.iter)
            gid = self.state.next_group
            self.state.next_group += 1
            self.state.group_iterates.setdefault(gid, set())
            self.state.group_stack.append(gid)
            try:
                self.exec_loop_body(stmt.body)
            finally:
                self.state.group_stack.pop()
            self.exec_body(stmt.orelse)
            return
        super().exec_stmt(stmt)

    def on_replicated_element(self, instance: Instance) -> None:
        if instance.replicated and self.state.group_stack:
            self.state.group_iterates[self.state.group_stack[-1]].add(
                instance.key
            )


def extract_tick_events(
    index: PackageIndex,
    root_cls: ClassInfo,
    driver_fn: ast.FunctionDef,
    loop: ast.stmt,
) -> Tuple[_TickState, Instance]:
    """Run the driver abstractly; return the ordered event stream."""
    root = build_instance_graph(index, root_cls, ROOT_KEY)
    analyzer = EffectAnalyzer(index)
    state = _TickState()
    sink = _TickSink(analyzer, state, f"{root_cls.name}.{driver_fn.name}")
    walker = _TickWalker(
        analyzer, root_cls.module, root, root_cls, root_cls, {}, sink,
        state=state,
    )
    # Prologue: alias bindings only, no events.
    sink.muted += 1
    for stmt in driver_fn.body:
        if stmt is loop:
            break
        walker.exec_stmt(stmt)
    # Prime the loop body once muted (bindings made late in the body),
    # then walk it live to produce the tick-ordered stream.
    for stmt in loop.body:
        walker.exec_stmt(stmt)
    sink.muted -= 1
    if isinstance(loop, ast.For):
        walker.bind_loop_target(loop.target, loop.iter)
    for stmt in loop.body:
        walker.exec_stmt(stmt)
    return state, root


# --------------------------------------------------------------------------- #
# Hazard detection                                                            #
# --------------------------------------------------------------------------- #


def _replicated_root(key: str) -> Optional[str]:
    idx = key.find("[*]")
    return key[: idx + 3] if idx != -1 else None


def _display(loc_key: str) -> str:
    prefix = ROOT_KEY + "."
    return loc_key[len(prefix):] if loc_key.startswith(prefix) else loc_key


def _per_instance(event: TickEvent, state: _TickState) -> bool:
    """True when the access touches the sweep's *own* element state."""
    root = _replicated_root(event.access.loc_key)
    if root is None:
        return False
    if event.receiver_key is not None and (
        event.receiver_key == root or event.receiver_key.startswith(root + ".")
    ):
        return True
    if event.group is not None and root in state.group_iterates.get(
        event.group, ()
    ):
        return True
    return False


def detect_hazards(state: _TickState) -> List[Finding]:
    by_loc: Dict[str, List[TickEvent]] = {}
    for event in state.events:
        by_loc.setdefault(event.access.loc_key, []).append(event)

    findings: List[Finding] = []
    seen: Set[str] = set()
    for loc_key, events in sorted(by_loc.items()):
        shared = [e for e in events if not _per_instance(e, state)]
        reads = [e for e in shared if e.kind == "r"]
        writes = [e for e in shared if e.kind == "w"]
        if not reads or not writes:
            continue
        display = _display(loc_key)

        # FLOW002: read + write inside the same replicated sweep.
        flow2_groups: Set[int] = set()
        for r in reads:
            if r.group is None:
                continue
            for w in writes:
                if w.group != r.group:
                    continue
                flow2_groups.add(r.group)
                fp = f"FLOW002|{display}|{r.label}|{w.label}"
                if fp in seen:
                    continue
                seen.add(fp)
                findings.append(
                    Finding(
                        path=r.access.file,
                        line=r.access.line,
                        col=r.access.col,
                        rule_id="FLOW002",
                        message=(
                            f"'{display}' is read by {r.label} and written "
                            f"by {w.label} (at {w.access.file}:{w.access.line}) "
                            "within the same per-component sweep; the "
                            "interaction between iterations depends on "
                            "component index order"
                        ),
                        fingerprint=fp,
                    )
                )
                break  # one finding per (loc, reader) is enough

        # FLOW001: read strictly before a later write by another entry.
        for r in reads:
            for w in writes:
                if w.pos <= r.pos:
                    continue
                if (
                    r.group is not None
                    and r.group == w.group
                    and r.group in flow2_groups
                ):
                    continue  # already covered by FLOW002
                if r.label == w.label and r.receiver_key == w.receiver_key:
                    continue  # same component entry: internal sequencing
                fp = f"FLOW001|{display}|{r.label}|{w.label}"
                if fp in seen:
                    continue
                seen.add(fp)
                findings.append(
                    Finding(
                        path=r.access.file,
                        line=r.access.line,
                        col=r.access.col,
                        rule_id="FLOW001",
                        message=(
                            f"'{display}' is read by {r.label} and then "
                            f"written by {w.label} later in the same cycle "
                            f"(write at {w.access.file}:{w.access.line}); "
                            "the result depends on the hard-coded tick order"
                        ),
                        fingerprint=fp,
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return findings


def check_hazards(index: PackageIndex) -> Tuple[List[Finding], List[str]]:
    """Full hazard pass: (findings, notes)."""
    notes: List[str] = []
    driver = find_driver(index)
    if driver is None:
        notes.append(
            "hazards: no per-cycle driver loop found "
            "(looked for run/tick/advance with a top-level loop); "
            "tick-order analysis skipped"
        )
        return [], notes
    root_cls, fn, loop = driver
    notes.append(
        f"hazards: driver {root_cls.name}.{fn.name} "
        f"({root_cls.module.relpath}:{fn.lineno})"
    )
    state, _root = extract_tick_events(index, root_cls, fn, loop)
    return detect_hazards(state), notes
