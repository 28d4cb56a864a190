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
3. An ``end_cycle`` that may change a ``v_scale`` entry bumps
   ``v_epoch``: the fast engine re-reads voltages only when it moves.

The *naive* policy of Section III.C splits the global budget equally:
``local = global / num_cores``, and a core is only throttled when the
CMP as a whole exceeds the global budget **and** the core exceeds its
local share.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import CMPConfig
from ..power.dvfs import DVFSBank
from ..power.microarch import Technique, ThrottleBank, select_technique
from ..power.model import EnergyModel
from ..units import Tokens, Watts

_INF = float("inf")


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
        #: Bumped by every ``end_cycle`` that may have changed a
        #: ``v_scale`` entry; the fast engine caches per-core power
        #: against it.
        self.v_epoch = 0
        #: Per-core budget *line* used by the AoPB metric (Figure 1):
        #: the equal share under the naive split; PTB raises/lowers it
        #: with granted/pledged tokens while conserving the global sum.
        self.budget_lines: List[Watts] = [self.local_budget] * n
        self.throttled_cycles = 0
        #: Cycles whose ``end_cycle`` left the steady path: a DVFS window
        #: closed, a mode transition was in flight, a throttle was
        #: engaged, or the CMP was over its global budget.
        self.unsteady_cycles = 0
        #: The actuator banks (None = no such level).
        self.dvfs: Optional[DVFSBank] = None
        self.throttles: Optional[ThrottleBank] = None

    def begin_cycle(self, now: int) -> None:  # pragma: no cover - trivial
        pass

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        """React to the cycle that just completed.

        ``tokens`` are the cores' power-token counts (non-negative
        ints), ``powers`` their smoothed sensor readings.
        """


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
        self.dvfs = DVFSBank(
            cfg.dvfs, n, dfs=technique == "dfs",
            execute=self.execute, v_scale=self.v_scale,
        )
        if technique == "2level":
            self.throttles = ThrottleBank(
                n, cfg.core.issue_width, self.fetch_allowed, self.issue_width
            )
        # Window-averaged global-over verdict gating the DVFS level.
        self._win_energy = 0.0
        self._global_over_window = False

    def _steady(self) -> bool:
        """No window closes this cycle, no transition or throttle is live."""
        throttles = self.throttles
        return not (
            self.dvfs.window_left <= 1
            or self.dvfs.moving
            or (throttles is not None and throttles.engaged)
        )

    def _level_one(self, powers: List[Watts]) -> Watts:
        """Tick every core's DVFS; returns the CMP's total power.

        The coarse level tracks the same window as the per-core mode
        selection, so it only reacts when the *CMP* was over budget
        across the window that just closed.
        """
        total: Watts = 0.0
        for p in powers:
            total += p
        self._win_energy += total
        dvfs = self.dvfs
        if dvfs.window_left <= 1:
            w = dvfs.window_cycles
            self._global_over_window = (self._win_energy / w) > self.global_budget
            self._win_energy = 0.0
        budget = self.local_budget if self._global_over_window else _INF
        if dvfs.tick(powers, budget):
            self.v_epoch += 1
        return total

    def end_cycle(
        self,
        now: int,
        tokens: List[Tokens],
        powers: List[Watts],
        sync_domain=None,
    ) -> None:
        steady = self._steady()
        total = self._level_one(powers)
        throttles = self.throttles
        if throttles is not None:
            if total > self.global_budget:
                steady = False
                local = self.local_budget
                techniques = [
                    select_technique((p - local) / local) if p > local
                    else Technique.NONE
                    for p in powers
                ]
                throttles.apply(techniques)
                self.throttled_cycles += throttles.engaged
            else:
                throttles.release()
        if not steady:
            self.unsteady_cycles += 1

    # -- introspection -----------------------------------------------------

    def mode_of(self, core: int) -> int:
        return self.dvfs.mode[core]

    def target_mode_of(self, core: int) -> int:
        return self.dvfs.target_mode[core]

    def technique_of(self, core: int) -> Technique:
        if self.throttles is None:
            return Technique.NONE
        return Technique(self.throttles.technique[core])
