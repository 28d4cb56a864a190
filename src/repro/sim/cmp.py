"""The CMP simulator: one lock-stepped multicore run.

Ties every substrate together — cores, caches + MOESI directory, mesh,
sync domain, power model, thermal model and the budget controller — and
hands them to the cycle loop in :mod:`repro.sim.engine`, which advances
them one global cycle at a time: that is what lets PTB (a cycle-level
mechanism) be modelled faithfully.
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
from ..power.model import EnergyModel
from ..power.thermal import ThermalModel
from ..simcheck.sanitizers import SanitizerSuite, sanitize_enabled
from ..sync.primitives import SyncDomain
from ..telemetry.session import TelemetrySession, telemetry_enabled
from ..trace.generator import ThreadTraceGenerator
from ..trace.phases import ParallelProgram
from ..units import Watts
from .engine import FastEngine
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
        """Run to completion (or ``max_cycles``).

        :class:`repro.sim.engine.FastEngine` holds the one cycle loop;
        ``cfg.engine`` only decides whether it fast-forwards.
        """
        return FastEngine(self).run(max_cycles)

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
        """Fold the cycle loop's final accumulators into a :class:`SimResult`.

        Single home for the truncation warning and result assembly.
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
