"""Power-budget enforcement framework.

A controller owns the per-core actuators (DVFS mode selection,
microarchitectural throttles) and decides, cycle by cycle, what each
core may do next cycle.  The simulator's contract:

1. ``directives`` arrays are read at the top of every global cycle —
   ``execute[i]`` (False = frequency-skipped cycle), ``fetch_allowed[i]``,
   ``issue_width[i]`` (None = full width) and ``v_scale[i]``.
2. After all cores stepped, the simulator calls
   :meth:`BudgetController.end_cycle` with each core's measured power
   (EU) and power-token consumption; the controller updates actuator
   state for the *next* cycle.  All reactions therefore see at least
   one cycle of latency, as a real controller would.

The *naive* policy of Section III.C splits the global budget equally:
``local = global / num_cores``, and a core is only throttled when the
CMP as a whole exceeds the global budget **and** the core exceeds its
local share.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import CMPConfig
from ..power.dvfs import DVFSController
from ..power.microarch import (
    ISSUE_TECHNIQUES,
    MicroarchThrottle,
    Technique,
    select_technique,
)
from ..power.model import EnergyModel
from ..units import Tokens, Watts


class BudgetController:
    """Base class: no throttling, full speed (the paper's base case)."""

    name = "none"
    uses_ptht = False

    def __init__(
        self,
        cfg: CMPConfig,
        energy: EnergyModel,
        global_budget: Watts,
    ) -> None:
        self.cfg = cfg
        self.energy = energy
        self.num_cores = cfg.num_cores
        self.global_budget: Watts = global_budget
        self.local_budget: Watts = global_budget / cfg.num_cores
        n = cfg.num_cores
        self.execute: List[bool] = [True] * n
        self.fetch_allowed: List[bool] = [True] * n
        self.issue_width: List[Optional[int]] = [None] * n
        self.v_scale: List[float] = [1.0] * n
        #: Per-core budget *line* used by the AoPB metric (Figure 1):
        #: the equal share under the naive split; PTB raises/lowers it
        #: with granted/pledged tokens while conserving the global sum.
        self.budget_lines: List[Watts] = [self.local_budget] * n
        self.throttled_cycles = 0
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    def begin_cycle(self, now: int) -> None:  # pragma: no cover - trivial
        pass

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        pass


class LocalBudgetController(BudgetController):
    """Naive equal-split enforcement with DVFS / DFS / 2-level actuators.

    ``technique``:

    * ``"dvfs"``  — five-mode voltage+frequency scaling, window-averaged.
    * ``"dfs"``   — frequency-only scaling (no voltage headroom).
    * ``"2level"``— DVFS as level 1 plus per-cycle microarchitectural
      spike removal as level 2 (Cebrián et al. [2]).
    """

    def __init__(
        self,
        cfg: CMPConfig,
        energy: EnergyModel,
        global_budget: Watts,
        technique: str = "dvfs",
    ) -> None:
        super().__init__(cfg, energy, global_budget)
        if technique not in ("dvfs", "dfs", "2level"):
            raise ValueError(f"unknown technique {technique!r}")
        self.name = technique
        self.uses_ptht = technique == "2level"
        n = cfg.num_cores
        dfs = technique == "dfs"
        self._dvfs = [DVFSController(cfg.dvfs, dfs=dfs) for _ in range(n)]
        self._throttles = (
            [MicroarchThrottle() for _ in range(n)]
            if technique == "2level"
            else None
        )
        # Window-averaged global-over verdict gating the DVFS level.
        self._win_energy = 0.0
        self._win_left = cfg.dvfs.window_cycles
        self._global_over_window = False

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        total = 0.0
        for p in powers:
            total += p
        global_over_now = total > self.global_budget

        # Track the same window the per-core DVFS controllers use, so the
        # coarse level only reacts when the *CMP* is over budget.
        self._win_energy += total
        self._win_left -= 1
        if self._win_left <= 0:
            w = self.cfg.dvfs.window_cycles
            self._global_over_window = (self._win_energy / w) > self.global_budget
            self._win_energy = 0.0
            self._win_left = w

        local = self.local_budget
        dvfs_budget = local if self._global_over_window else float("inf")
        throttles = self._throttles
        dvfs = self._dvfs
        execute = self.execute
        v_scales = self.v_scale
        fetch_allowed = self.fetch_allowed
        issue_widths = self.issue_width
        full_width = self.cfg.core.issue_width
        telemetry = self._telemetry
        for i in range(self.num_cores):
            ctl = dvfs[i]
            execute[i] = ctl.tick(powers[i], dvfs_budget)
            v_scales[i] = ctl.v_scale
            if throttles is not None:
                th = throttles[i]
                if global_over_now and powers[i] > local:
                    overshoot = (powers[i] - local) / local
                    th.set(select_technique(overshoot))
                else:
                    th.set(Technique.NONE)
                th.tick()
                fetch_allowed[i] = th.fetch_allowed
                issue_widths[i] = (
                    th.issue_width(full_width)
                    if th.technique in ISSUE_TECHNIQUES
                    else None
                )
                if th.technique != Technique.NONE:
                    self.throttled_cycles += 1
                if telemetry is not None:
                    telemetry.on_throttle(i, int(th.technique))

    # -- introspection -----------------------------------------------------

    def mode_of(self, core: int) -> int:
        return self._dvfs[core].mode

    def technique_of(self, core: int) -> Technique:
        if self._throttles is None:
            return Technique.NONE
        return self._throttles[core].technique
