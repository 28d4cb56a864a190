"""The telemetry session: probe hub wired into one simulation run.

A :class:`TelemetrySession` owns the event bus, the metrics registry
and the per-cycle power timeline of one :class:`repro.sim.cmp.
CMPSimulator` run.  ``attach`` installs the session on every component
the same way :class:`repro.simcheck.sanitizers.SanitizerSuite` installs
sanitizers: components hold a ``_telemetry`` attribute that is ``None``
by default, and each probe call-site reduces to one ``is not None``
test when telemetry is disabled — the zero-cost-when-disabled contract
(DESIGN §8).

The session never *changes* anything it observes: every probe is a pure
reader, so a telemetry-on run produces bit-identical ``SimResult``
fields to a telemetry-off run (enforced by
``tests/test_telemetry_integration.py``).

Enabling: ``CMPConfig(telemetry=True)`` (or ``cfg.with_telemetry()``)
or the environment variable ``REPRO_TELEMETRY=1``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..units import Cycles, Joules, Tokens, Watts
from .events import EventBus, EventKind
from .metrics import LATENCY_BUCKETS, TOKEN_BUCKETS, MetricsRegistry

__all__ = ["TelemetrySession", "telemetry_enabled", "TELEMETRY_PHASES"]

#: AoPB breakdown buckets: the four sync phases of Figure 3 plus an
#: ``idle`` bucket for cores that already completed (their smoothed
#: power can still sit over the line for a few decay cycles).
TELEMETRY_PHASES: Tuple[str, ...] = (
    "busy", "lock_acq", "lock_rel", "barrier", "idle",
)
_IDLE = len(TELEMETRY_PHASES) - 1

#: Cycles between periodic ROB-occupancy samples.
ROB_SAMPLE_INTERVAL = 64


def _cycle_energy(excess: Watts) -> Joules:
    """A per-cycle power excess integrated over its one-cycle sample.

    Every power sample covers exactly one cycle, so the exchange rate
    is exactly 1 — but power and energy are different dimensions, and
    the AoPB accumulators must cross through this function so the
    dimension checker can see the crossing is deliberate (and so the
    accrual stays bitwise-identical to the simulator's own AoPB sum).
    """
    return excess  # simcheck: disable=UNIT004 - the declared exchange


def telemetry_enabled(cfg=None) -> bool:
    """True when telemetry should run: config flag or ``REPRO_TELEMETRY``."""
    if cfg is not None and getattr(cfg, "telemetry", False):
        return True
    return os.environ.get("REPRO_TELEMETRY", "") not in (
        "", "0", "false", "off",
    )


class TelemetrySession:
    """Event bus + metrics + power timeline for one simulation run."""

    def __init__(
        self,
        cfg,
        *,
        timeline_stride: int = 1,
        rob_sample_interval: int = ROB_SAMPLE_INTERVAL,
    ) -> None:
        if timeline_stride <= 0 or rob_sample_interval <= 0:
            raise ValueError("telemetry sampling intervals must be positive")
        self.cfg = cfg
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self.now: int = 0
        self.timeline_stride = timeline_stride
        self.rob_sample_interval = rob_sample_interval

        n = cfg.num_cores
        self.num_cores = n
        #: Per-cycle ``(cycle, total, total_smoothed, per-core powers)``.
        self.timeline: List[Tuple[int, Watts, Watts, Tuple[Watts, ...]]] = []
        #: AoPB accrued per sync phase (EU, same accrual as SimResult's
        #: ``aopb_energy`` — the per-phase split of Figure 1's area).
        self.aopb_by_phase: List[Joules] = [0.0] * len(TELEMETRY_PHASES)
        #: Total AoPB accrued by the session (bitwise-identical to the
        #: simulator's own accumulator: same additions, same order).
        self.aopb_total: Joules = 0.0
        #: Token flow totals (exact integers, never ring-truncated).
        self.tokens_pledged: Tokens = 0
        self.tokens_granted: Tokens = 0
        self.granted_by_phase: List[Tokens] = [0] * len(TELEMETRY_PHASES)
        self.truncated = False

        self._core_phase: List[int] = [0] * n
        self._over_local: List[bool] = [False] * n
        self._over_global = False
        self._last_throttle: List[int] = [0] * n

        # Attached lazily (the session may be built before the simulator).
        self._cores: Sequence = ()
        self.global_budget: Watts = float("inf")

    # ------------------------------------------------------------------ #
    # wiring                                                             #
    # ------------------------------------------------------------------ #

    def attach(self, sim) -> None:
        """Install probe references on the simulator's components."""
        self._cores = sim.cores
        self.global_budget = sim.global_budget
        sim.mesh._telemetry = self
        sim.hierarchy.directory._telemetry = self
        sim.sync_domain._telemetry = self
        for core in sim.cores:
            core._telemetry = self
            # The accountant gets its per-core cost histogram directly:
            # it has no core id and needs only ``observe``.
            core.accountant._telemetry = self.metrics.histogram(
                "tokens.instr_cost", TOKEN_BUCKETS, core=core.core_id
            )
        controller = sim.controller
        for probed in (
            getattr(controller, "balancer", None),
            controller.dvfs,
            controller.throttles,
        ):
            if probed is not None:
                probed._telemetry = self

    # ------------------------------------------------------------------ #
    # per-cycle hooks (called by the simulator loop)                     #
    # ------------------------------------------------------------------ #

    def begin_cycle(self, cycle: int) -> None:
        self.now = cycle

    def sample_cycle(
        self,
        powers: Sequence[Watts],
        smoothed: Sequence[Watts],
        budget_lines: Sequence[Watts],
        total: Watts,
        total_smoothed: Watts,
    ) -> None:
        """Observe one completed cycle (before the controller reacts).

        Called with the same smoothed powers and budget lines the AoPB
        metric just used, so the per-phase breakdown accrues exactly the
        area the run reports.
        """
        now = self.now
        bus = self.bus
        cores = self._cores
        phases = self._core_phase
        over = self._over_local
        for i in range(self.num_cores):
            core = cores[i]
            phase = _IDLE if core.done else int(core.sync_phase)
            phases[i] = phase
            d = smoothed[i] - budget_lines[i]
            if d > 0:
                e = _cycle_energy(d)
                self.aopb_by_phase[phase] += e
                self.aopb_total += e
                if not over[i]:
                    over[i] = True
                    bus.emit(now, EventKind.BUDGET_ENTER, i, smoothed[i])
                self.metrics.counter("budget.over_cycles", core=i).inc()
            elif over[i]:
                over[i] = False
                bus.emit(now, EventKind.BUDGET_EXIT, i, smoothed[i])
        if total_smoothed > self.global_budget:
            if not self._over_global:
                self._over_global = True
                bus.emit(now, EventKind.GLOBAL_BUDGET_ENTER, -1,
                         total_smoothed)
            self.metrics.counter("budget.global_over_cycles").inc()
        elif self._over_global:
            self._over_global = False
            bus.emit(now, EventKind.GLOBAL_BUDGET_EXIT, -1, total_smoothed)

        if now % self.timeline_stride == 0:
            self.timeline.append((now, total, total_smoothed, tuple(powers)))
        if now % self.rob_sample_interval == 0:
            for i in range(self.num_cores):
                bus.emit(now, EventKind.ROB_SAMPLE, i,
                         float(cores[i].rob_occupancy))

    # ------------------------------------------------------------------ #
    # component probes                                                   #
    # ------------------------------------------------------------------ #

    def on_balancer(
        self, spares: Sequence[Tokens], grants: Sequence[Tokens]
    ) -> None:
        """PTB balancer cycle: ``spares`` ingested, ``grants`` delivered."""
        now = self.now
        bus = self.bus
        for i, s in enumerate(spares):
            if s > 0:
                bus.emit(now, EventKind.TOKEN_PLEDGE, i, float(s))
                self.tokens_pledged += s
        for i, g in enumerate(grants):
            if g > 0:
                bus.emit(now, EventKind.TOKEN_GRANT, i, float(g))
                self.tokens_granted += g
                self.granted_by_phase[self._core_phase[i]] += g
                self.metrics.counter("tokens.granted", core=i).inc(g)

    def on_dvfs(self, core: int, old_mode: int, new_mode: int) -> None:
        self.bus.emit(self.now, EventKind.DVFS_MODE, core, float(new_mode),
                      f"{old_mode}->{new_mode}")
        self.metrics.counter("dvfs.transitions", core=core).inc()

    def on_throttle(self, core: int, technique: int) -> None:
        """Per-cycle level-2 throttle state; events only on change."""
        if technique:
            self.metrics.counter("throttle.cycles", core=core).inc()
        if technique != self._last_throttle[core]:
            self._last_throttle[core] = technique
            self.bus.emit(self.now, EventKind.THROTTLE, core,
                          float(technique))

    def on_moesi(self, kind: str, core: int, line: int,
                 latency: Cycles) -> None:
        self.bus.emit(self.now, EventKind.MOESI, core, float(latency), kind)
        self.metrics.counter(f"coherence.{kind.lower()}").inc()
        self.metrics.histogram(
            "coherence.latency", LATENCY_BUCKETS
        ).observe(latency)

    def on_mesh(self, hops: int, flits: int, flit_hops: int) -> None:
        self.bus.emit(self.now, EventKind.MESH_MSG, -1, float(flit_hops))
        self.metrics.counter("noc.messages").inc()
        self.metrics.counter("noc.flit_hops").inc(flit_hops)

    def on_spin(self, core: int, entering: bool, kind: str) -> None:
        if entering:
            self.bus.emit(self.now, EventKind.SPIN_ENTER, core, 0.0, kind)
            self.metrics.counter("spin.episodes", core=core).inc()
        else:
            self.bus.emit(self.now, EventKind.SPIN_EXIT, core, 0.0, kind)

    _LOCK_KINDS = {
        "acquire": EventKind.LOCK_ACQUIRE,
        "contend": EventKind.LOCK_CONTEND,
        "handoff": EventKind.LOCK_HANDOFF,
        "release": EventKind.LOCK_RELEASE,
    }

    def on_lock(self, what: str, lock_id: int, core: int) -> None:
        self.bus.emit(self.now, self._LOCK_KINDS[what], core, float(lock_id))
        self.metrics.counter(f"lock.{what}s").inc()

    def on_barrier(self, what: str, barrier_id: int, core: int) -> None:
        kind = (EventKind.BARRIER_RELEASE if what == "release"
                else EventKind.BARRIER_ARRIVE)
        self.bus.emit(self.now, kind, core, float(barrier_id))
        self.metrics.counter(f"barrier.{what}s").inc()

    # ------------------------------------------------------------------ #
    # end of run                                                          #
    # ------------------------------------------------------------------ #

    def on_truncated(self, cycle: int) -> None:
        self.truncated = True
        self.bus.emit(cycle, EventKind.TRUNCATED, -1, float(cycle))

    def finish(self, cycles: Cycles, committed: int = 0) -> None:
        """Record end-of-run gauges (idempotent; call after the loop)."""
        g = self.metrics.gauge
        g("run.cycles").set(float(cycles))
        g("run.committed").set(float(committed))
        g("run.aopb_total").set(self.aopb_total)
        for name, v in self.aopb_by_phase_dict().items():
            g(f"run.aopb.{name}").set(v)
        g("run.tokens_pledged").set(float(self.tokens_pledged))
        g("run.tokens_granted").set(float(self.tokens_granted))
        g("run.events").set(float(self.bus.total_events))
        g("run.events_dropped").set(float(self.bus.total_dropped))
        g("run.truncated").set(1.0 if self.truncated else 0.0)

    # ------------------------------------------------------------------ #
    # derived views                                                       #
    # ------------------------------------------------------------------ #

    def aopb_by_phase_dict(self) -> Dict[str, Joules]:
        return dict(zip(TELEMETRY_PHASES, self.aopb_by_phase))

    def granted_by_phase_dict(self) -> Dict[str, Tokens]:
        return dict(zip(TELEMETRY_PHASES, self.granted_by_phase))
