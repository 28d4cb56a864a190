"""The CMP simulator: lock-stepped multicore cycle loop.

Ties every substrate together — cores, caches + MOESI directory, mesh,
sync domain, power model, thermal model and the budget controller — and
advances them one global cycle at a time, which is what lets PTB (a
cycle-level mechanism) be modelled faithfully.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from ..budget import make_controller
from ..config import CMPConfig
from ..core.pipeline import Core
from ..isa.kmeans import default_token_classes
from ..mem.hierarchy import MemoryHierarchy
from ..noc.mesh import Mesh2D
from ..power.model import CycleEvents, EnergyModel
from ..power.thermal import ThermalModel
from ..simcheck.sanitizers import SanitizerSuite, sanitize_enabled
from ..sync.primitives import SyncDomain
from ..telemetry.session import TelemetrySession, telemetry_enabled
from ..trace.generator import ThreadTraceGenerator
from ..trace.phases import ParallelProgram
from ..units import Watts
from .results import SimResult

#: Fallback run length when a program never completes (deadlock guard).
DEFAULT_MAX_CYCLES = 400_000


class CMPSimulator:
    """One simulation run of one program under one technique."""

    def __init__(
        self,
        cfg: CMPConfig,
        program: ParallelProgram,
        technique: str = "none",
        budget_fraction: Optional[float] = 0.5,
        ptb_policy: Optional[str] = None,
        seed: int = 2011,
        collect_traces: bool = False,
    ) -> None:
        if program.num_threads != cfg.num_cores:
            raise ValueError(
                f"program has {program.num_threads} threads but the CMP has "
                f"{cfg.num_cores} cores (one thread per core required)"
            )
        self.cfg = cfg
        self.program = program
        self.technique = technique
        self.budget_fraction = budget_fraction
        self.collect_traces = collect_traces

        self.energy = EnergyModel(cfg)
        self.mesh = Mesh2D(cfg.num_cores, cfg.net)
        self.hierarchy = MemoryHierarchy(cfg, self.mesh)
        self.sync_domain = SyncDomain(cfg.num_cores, self.mesh)
        tmap = default_token_classes(
            cfg.power.token_classes, token_unit=self.energy.token_unit
        )
        self.cores: List[Core] = [
            Core(
                i, cfg, tmap, self.hierarchy, self.sync_domain,
                ThreadTraceGenerator(program.threads[i], seed),
            )
            for i in range(cfg.num_cores)
        ]
        self._prewarm_caches()
        peak = self.energy.global_peak_power(cfg.num_cores)
        self.global_budget: Watts = (
            peak * budget_fraction if budget_fraction is not None else peak
        )
        self.controller = make_controller(
            technique, cfg, self.energy, self.global_budget, ptb_policy
        )
        # Charge modelling overheads of the control hardware.
        self.energy.charge_ptht = self.controller.uses_ptht
        if technique in ("ptb", "ptb-spingate"):
            self.energy.ptb_overhead_fraction = cfg.ptb.power_overhead
        self.thermal = ThermalModel(cfg.num_cores, cfg.tech.ambient_k)

        self._policy = (
            ptb_policy if technique in ("ptb", "ptb-spingate") else None
        )

        #: Runtime invariant sanitizers (None = off, zero overhead).
        self.sanitizers: Optional[SanitizerSuite] = None
        if sanitize_enabled(cfg):
            self.sanitizers = SanitizerSuite(cfg)
            self.sanitizers.attach(self)

        #: Telemetry session (None = off; probes cost one `is None` test).
        self.telemetry: Optional[TelemetrySession] = None
        if telemetry_enabled(cfg):
            self.telemetry = TelemetrySession(cfg)
            self.telemetry.attach(self)

    def _prewarm_caches(self) -> None:
        """Preload each core's L2 with its program's working set.

        Reproduces the paper's parallel-phase methodology (Section III.A):
        measurement starts after the sequential initialization phase has
        touched the data, so runs are dominated by steady-state behaviour
        rather than cold-start compulsory misses.
        """
        from ..trace.generator import LINE_BYTES, PRIVATE_REGION_BITS, SHARED_BASE
        from ..trace.phases import ComputePhase, LockPhase

        offset_bits = self.cfg.mem.l1d.offset_bits
        shared_floor = SHARED_BASE >> offset_bits
        for i, thread in enumerate(self.program.threads):
            footprint = 0
            for ph in thread.phases:
                if isinstance(ph, ComputePhase):
                    footprint = max(footprint, ph.footprint_lines)
                elif isinstance(ph, LockPhase):
                    footprint = max(
                        footprint, ph.critical_section.footprint_lines
                    )
            # Cap so the prewarm set fits the private L2 (~16K lines):
            # shared data beyond the hot region stays cold, like real
            # capacity-limited runs.
            l2_lines = self.cfg.mem.l2_per_core.size_bytes // LINE_BYTES
            private_span = min(footprint, (l2_lines * 3) // 4)
            shared_span = min(footprint, l2_lines // 8)
            private_floor = ((i + 1) << PRIVATE_REGION_BITS) >> offset_bits
            self.hierarchy.prewarm(
                i,
                range(private_floor, private_floor + private_span),
                range(shared_floor, shared_floor + shared_span),
                # Program code is resident after initialization as well.
                range(0, 1024),
            )

    # ------------------------------------------------------------------ #

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> SimResult:
        """Run to completion (or ``max_cycles``) on the configured engine.

        ``cfg.engine`` selects between the reference lock-step loop below
        and :class:`repro.sim.engine.FastEngine`, which produces
        byte-identical ``SimResult`` pickles (tests/test_engine_equivalence
        is the proof).  Sanitized or telemetry-enabled runs always take
        the reference path: both attach observation hooks to methods the
        fast engine deliberately does not call every cycle.
        """
        from .engine import FastEngine, resolve_engine

        if (
            resolve_engine(self.cfg.engine) == "fast"
            and self.sanitizers is None
            and self.telemetry is None
        ):
            return FastEngine(self).run(max_cycles)
        return self._run_reference(max_cycles)

    def _run_reference(self, max_cycles: int) -> SimResult:
        cfg = self.cfg
        n = cfg.num_cores
        cores = self.cores
        controller = self.controller
        energy = self.energy
        thermal = self.thermal
        budget = self.global_budget
        sync_domain = self.sync_domain

        execute = controller.execute
        fetch_allowed = controller.fetch_allowed
        issue_width = controller.issue_width
        v_scale = controller.v_scale
        budget_lines = controller.budget_lines
        unctrl = energy.uncontrollable_power
        inv_token_unit = 1.0 / energy.token_unit

        powers = [0.0] * n
        smoothed = [0.0] * n
        alpha = cfg.power.sensor_alpha
        beta = 1.0 - alpha
        tokens = [0] * n
        phase_cycles = [[0, 0, 0, 0] for _ in range(n)]
        spin_energy = 0.0
        total_energy = 0.0
        aopb = 0.0
        aopb_global = 0.0
        max_power = 0.0

        trace: Optional[list] = [] if self.collect_traces else None
        core_traces: Optional[list] = [] if self.collect_traces else None

        cycle_power = energy.cycle_power
        temps = thermal.temps
        sanitizers = self.sanitizers
        telemetry = self.telemetry
        begin_cycle = controller.begin_cycle
        end_cycle = controller.end_cycle
        add_thermal_cycle = thermal.add_cycle

        cycle = 0
        done_count = 0
        while cycle < max_cycles and done_count < n:
            if sanitizers is not None:
                sanitizers.on_cycle(cycle)
            if telemetry is not None:
                telemetry.begin_cycle(cycle)
            begin_cycle(cycle)
            total = 0.0
            done_count = 0
            for i in range(n):
                core = cores[i]
                if core.done:
                    core.idle_cycle(cycle)
                elif execute[i]:
                    core.step(cycle, fetch_allowed[i], issue_width[i])
                else:
                    core.idle_cycle(cycle)
                p = cycle_power(core.events, v_scale[i], temps[i])
                powers[i] = p
                # Power grid/package capacitance integrates switching
                # energy; controllers and the AoPB metric both see the
                # filtered curve (cf. the smooth traces of Figures 1/6).
                ps = smoothed[i] * beta + p * alpha
                smoothed[i] = ps
                # Control-plane power tokens: the sensor reading expressed
                # in token currency (the paper's PTHT accounting tracks
                # true power within 1%, so controller and meter agree).
                over_floor = ps - unctrl
                tokens[i] = int(over_floor * inv_token_unit) if over_floor > 0 else 0
                total += p
                # AoPB (Figure 1): per-core area above the core's budget
                # line.  PTB raises a receiving core's line with granted
                # tokens, conserving the global sum.
                d = ps - budget_lines[i]
                if d > 0:
                    aopb += d
                # A thread that finishes *during* this step counts now:
                # checking ``done`` only at the loop top burned one extra
                # all-idle cycle after the last thread finished and
                # misreported a thread completing at ``max_cycles - 1``
                # as truncated.
                if not core.done:
                    phase_cycles[i][core.sync_phase] += 1
                    if core.is_spinning:
                        spin_energy += p
                else:
                    done_count += 1
            total_energy += total
            total_s = 0.0
            for ps in smoothed:
                total_s += ps
            if total_s > budget:
                aopb_global += total_s - budget
            if total > max_power:
                max_power = total
            add_thermal_cycle(powers)
            if telemetry is not None:
                # Same smoothed/budget_lines values the AoPB just used,
                # observed before the controller reacts to this cycle.
                telemetry.sample_cycle(powers, smoothed, budget_lines,
                                       total, total_s)
            end_cycle(cycle, tokens, smoothed, sync_domain)
            if trace is not None:
                trace.append(total)
                core_traces.append(list(powers))
            cycle += 1

        return self._finish(
            max_cycles, cycle, done_count, total_energy, aopb, aopb_global,
            spin_energy, max_power, phase_cycles, trace, core_traces,
        )

    def _finish(
        self,
        max_cycles: int,
        cycle: int,
        done_count: int,
        total_energy: float,
        aopb: float,
        aopb_global: float,
        spin_energy: float,
        max_power: float,
        phase_cycles: List[List[int]],
        trace: Optional[list],
        core_traces: Optional[list],
    ) -> SimResult:
        """Fold final accumulators into a :class:`SimResult`.

        Single home for the truncation warning and result assembly,
        shared by the reference loop and the fast engine so the two
        paths cannot drift apart in how a run is reported.
        """
        n = self.cfg.num_cores
        cores = self.cores
        thermal = self.thermal
        controller = self.controller
        budget = self.global_budget
        telemetry = self.telemetry

        thermal.flush()
        committed = sum(c.committed for c in cores)
        ptht_hits = sum(c.accountant.ptht.hits for c in cores)
        ptht_total = ptht_hits + sum(c.accountant.ptht.misses for c in cores)

        truncated = done_count < n
        if truncated:
            if telemetry is not None:
                telemetry.on_truncated(cycle)
            warnings.warn(
                f"{self.program.name} x{n} ({self.technique}): simulation "
                f"truncated at max_cycles={max_cycles} with "
                f"{n - done_count} thread(s) unfinished; energy/AoPB "
                "aggregates cover the simulated prefix only",
                RuntimeWarning,
                stacklevel=2,
            )
        if telemetry is not None:
            telemetry.finish(cycle, committed)

        return SimResult(
            benchmark=self.program.name,
            technique=self.technique,
            policy=self._policy,
            num_cores=n,
            budget_fraction=self.budget_fraction,
            global_budget=budget,
            cycles=cycle,
            completed=done_count >= n,
            committed_instructions=committed,
            total_energy=total_energy,
            aopb_energy=aopb,
            spin_energy=spin_energy,
            max_power=max_power,
            phase_cycles=phase_cycles,
            mean_temperature=thermal.mean_temperature,
            std_temperature=thermal.std_temperature,
            throttled_cycles=controller.throttled_cycles,
            ptht_hit_rate=ptht_hits / ptht_total if ptht_total else 0.0,
            power_trace=np.asarray(trace) if trace is not None else None,
            extra={"aopb_global": aopb_global},
            core_power_traces=(
                np.asarray(core_traces) if core_traces is not None else None
            ),
            truncated=truncated,
        )


def run_simulation(
    cfg: CMPConfig,
    program: ParallelProgram,
    technique: str = "none",
    budget_fraction: Optional[float] = 0.5,
    ptb_policy: Optional[str] = None,
    seed: int = 2011,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    collect_traces: bool = False,
    engine: Optional[str] = None,
) -> SimResult:
    """One-call convenience wrapper around :class:`CMPSimulator`.

    ``engine`` (``"reference"``/``"fast"``/``"auto"``) overrides
    ``cfg.engine`` for this run; ``None`` keeps the config's setting.
    """
    if engine is not None:
        cfg = cfg.with_engine(engine)
    sim = CMPSimulator(
        cfg, program, technique, budget_fraction, ptb_policy, seed,
        collect_traces,
    )
    return sim.run(max_cycles)
