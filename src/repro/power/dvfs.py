"""Per-core DVFS / DFS mode control, one bank for every core.

Implements the coarse-grained first level of the evaluated techniques
(Section III.C): five power modes

    (100% V, 100% f) (95, 95) (90, 90) (90, 75) (90, 65)

for DVFS, and the same frequency points at full voltage for DFS.

Each core follows the classic exploration/use-window structure the
paper describes as DVFS's handicap: it observes average power over a
``window_cycles`` window and only then re-selects a mode; mode changes
pay a per-step transition latency (Kim's fast on-chip regulators [8],
the paper's best-case assumption) during which the core runs at the
slower of the two modes' frequencies while paying the higher voltage.
"""

from __future__ import annotations

from operator import add
from typing import List, Optional, Sequence

from ..config import DVFSConfig
from ..units import Cycles, Joules, Watts


def _window_joules(powers: Sequence[Watts]) -> Sequence[Joules]:
    """One cycle of every core's power folded into the window energies.

    Exchange rate 1 (one sample = one cycle); the accumulators cross
    dimensions here so the checker sees the conversion is deliberate.
    """
    return powers  # simcheck: disable=UNIT004 - the declared exchange


class DVFSBank:
    """Window-averaged mode selection toward a local budget, every core.

    Struct of arrays: one list per per-core field.  Every core's window
    opens at cycle 0 and advances one cycle per :meth:`tick`, so one
    ``window_left`` counter serves them all.  ``execute`` and
    ``v_scale`` are the controller's directive lists, written in place:
    ``v_scale[i]`` only when core ``i``'s mode or transition changes,
    ``execute[i]`` only while core ``i`` runs below full speed or
    carries execution credit.
    """

    __slots__ = (
        "num_cores", "modes", "window_cycles", "step_cycles",
        "mode", "target_mode", "transition_left", "transitions",
        "f_credit", "f_scale", "window_energy", "window_left",
        "execute", "v_scale", "moving",
        "_scales", "_zeros", "_credit", "_dirty", "_telemetry",
    )

    def __init__(
        self,
        cfg: DVFSConfig,
        num_cores: int,
        dfs: bool = False,
        execute: Optional[List[bool]] = None,
        v_scale: Optional[List[float]] = None,
    ) -> None:
        n = num_cores
        self.num_cores = n
        if dfs:
            self.modes = tuple((1.0, f) for _, f in cfg.modes)
        else:
            self.modes = cfg.modes
        self.window_cycles: Cycles = cfg.window_cycles
        self.step_cycles: Cycles = cfg.transition_cycles_per_step
        self.mode: List[int] = [0] * n
        self.target_mode: List[int] = [0] * n
        self.transition_left: List[Cycles] = [0] * n
        self.transitions: List[int] = [0] * n
        self.f_credit: List[float] = [0.0] * n
        self.f_scale: List[float] = [self.modes[0][1]] * n
        self.window_energy: List[Joules] = [0.0] * n
        self.window_left: Cycles = cfg.window_cycles
        self.execute = execute if execute is not None else [True] * n
        self.v_scale = v_scale if v_scale is not None else [1.0] * n
        #: Number of cores with a transition in flight.
        self.moving = 0
        # Power scale (v^2 f) of each mode.
        self._scales = tuple(v * v * f for v, f in self.modes)
        self._zeros: List[Joules] = [0.0] * n
        #: Cores whose credit can differ from a full-speed core's 0.0.
        self._credit: List[int] = []
        #: Every core's directives are republished on the next tick.
        self._dirty = True
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    # -- state queries -----------------------------------------------------

    def in_transition(self, core: int) -> bool:
        return self.transition_left[core] > 0

    # -- per-cycle operation -------------------------------------------------

    def tick(self, powers: Sequence[Watts], budget: Watts) -> bool:
        """Advance every core one global cycle.

        A core executes a pipeline step when its execution credit
        reaches 1 (frequency scaling by cycle-skipping: the core earns
        ``f_scale`` credit per global cycle).  Returns True when any
        ``v_scale`` entry may have changed.
        """
        n = self.num_cores
        changed = self._dirty
        if changed:
            self._dirty = False
            for i in range(n):
                self._publish(i)
        if self.moving:
            left = self.transition_left
            for i in range(n):
                t = left[i]
                if t > 0:
                    t -= 1
                    left[i] = t
                    if t == 0:
                        self.mode[i] = self.target_mode[i]
                        self.moving -= 1
                        self._publish(i)
                        changed = True

        energy = self.window_energy
        energy[:] = map(add, energy, _window_joules(powers))
        remaining = self.window_left - 1
        if remaining <= 0:
            w = self.window_cycles
            for i in range(n):
                avg: Watts = energy[i] / w
                if self._select(i, avg, budget):
                    changed = True
            energy[:] = self._zeros
            remaining = w
        self.window_left = remaining

        if changed:
            scale = self.f_scale
            credit = self.f_credit
            self._credit = [
                i for i in range(n) if scale[i] != 1.0 or credit[i] != 0.0
            ]
        if self._credit:
            scale = self.f_scale
            credit = self.f_credit
            execute = self.execute
            for i in self._credit:
                fc = credit[i] + scale[i]
                if fc >= 1.0:
                    fc -= 1.0
                    execute[i] = True
                else:
                    execute[i] = False
                credit[i] = fc
        return changed

    def _publish(self, i: int) -> None:
        """Derive core ``i``'s voltage and frequency scales.

        In transition the core pays the higher voltage and runs at the
        lower frequency of its two endpoint modes.
        """
        cur = self.modes[self.mode[i]]
        if self.transition_left[i] > 0:
            tgt = self.modes[self.target_mode[i]]
            self.v_scale[i] = max(cur[0], tgt[0])
            self.f_scale[i] = min(cur[1], tgt[1])
        else:
            self.v_scale[i] = cur[0]
            self.f_scale[i] = cur[1]

    def _select(self, i: int, avg_power: Watts, budget: Watts) -> bool:
        """Pick the fastest mode whose scaled power fits the budget."""
        if self.transition_left[i] > 0:
            return False  # finish the current transition first
        mode = self.mode[i]
        if avg_power <= 0:
            target = 0
        else:
            scales = self._scales
            cur_scale = scales[mode]
            target = len(scales) - 1  # default: slowest mode
            for j, scale in enumerate(scales):
                # Predicted power if we moved to mode j.
                predicted = avg_power * (scale / cur_scale)
                if predicted <= budget:
                    target = j
                    break
        if target == mode:
            return False
        left = abs(target - mode) * self.step_cycles
        self.transition_left[i] = left
        if left > 0:
            self.moving += 1
        self.target_mode[i] = target
        self.transitions[i] += 1
        if self._telemetry is not None:
            self._telemetry.on_dvfs(i, mode, target)
        self._publish(i)
        return True

    def force_mode(self, core: int, mode: int) -> None:
        """Jump a core to a mode instantly (used by tests and warm starts)."""
        if not (0 <= mode < len(self.modes)):
            raise ValueError(f"mode {mode} out of range")
        if self.transition_left[core] > 0:
            self.moving -= 1
        self.mode[core] = mode
        self.target_mode[core] = mode
        self.transition_left[core] = 0
        self._publish(core)
        self._dirty = True
