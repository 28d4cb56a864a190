"""Lumped-RC per-core thermal model.

The paper reports that PTB's accuracy yields a lower and more stable
chip temperature (minimal standard deviation).  We model each core as a
single thermal RC node (HotSpot-style lumped approximation): the core's
temperature relaxes toward ``ambient + R_th * P`` with time constant
``tau`` cycles.

Updates are batched: the simulator accumulates energy over an update
interval and steps the RC once, which is both faster and numerically
friendlier than per-cycle integration (tau >> 1 cycle).
"""

from __future__ import annotations

import math
from typing import List

from ..units import Cycles, Joules, Watts


def _cycle_energy(power: Watts) -> Joules:
    """One cycle of power integrated over its one-cycle sample.

    The exchange rate is exactly 1 (every sample covers one cycle), but
    power and energy are different dimensions; the accumulator crosses
    through this function so the dimension checker sees the crossing is
    deliberate.
    """
    return power  # simcheck: disable=UNIT004 - the declared exchange


class ThermalModel:
    """Per-core lumped RC thermal nodes with neighbour coupling."""

    def __init__(
        self,
        num_cores: int,
        ambient_k: float,
        r_th: float = 0.9,
        tau_cycles: Cycles = 200_000.0,
        update_interval: Cycles = 256,
        coupling: float = 0.05,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if update_interval <= 0:
            raise ValueError("update interval must be positive")
        self.num_cores = num_cores
        self.ambient = ambient_k
        self.r_th = r_th
        self.tau = tau_cycles
        self.interval = update_interval
        self.coupling = coupling
        self.temps: List[float] = [ambient_k] * num_cores
        self._energy_acc: List[Joules] = [0.0] * num_cores
        self._cycles_acc: Cycles = 0
        # Temperature statistics over time (per update step).
        self._sum_t = 0.0
        self._sum_t2 = 0.0
        self._samples = 0

    def add_cycle(self, core_powers: List[Watts]) -> None:
        """Accumulate one cycle of per-core power (EU)."""
        acc = self._energy_acc
        for i, p in enumerate(core_powers):
            acc[i] += _cycle_energy(p)
        self._cycles_acc += 1
        if self._cycles_acc >= self.interval:
            self._step()

    def _step(self) -> None:
        n = self._cycles_acc
        if n == 0:
            return
        decay = math.exp(-n / self.tau)
        temps = self.temps
        # A left fold, not sum(): CPython 3.12's compensated float sum
        # can round differently and move every digest downstream.
        total_t = 0.0
        for t in temps:
            total_t += t
        mean_t = total_t / len(temps)
        for i in range(self.num_cores):
            p_avg: Watts = self._energy_acc[i] / n
            # Steady-state target for this power level, pulled toward the
            # chip mean by lateral conduction.
            target = self.ambient + self.r_th * p_avg
            target += self.coupling * (mean_t - temps[i])
            temps[i] = target + (temps[i] - target) * decay
            self._energy_acc[i] = 0.0
            self._sum_t += temps[i]
            self._sum_t2 += temps[i] * temps[i]
            self._samples += 1
        self._cycles_acc = 0

    def flush(self) -> None:
        """Fold any partial interval into the statistics."""
        self._step()

    @property
    def mean_temperature(self) -> float:
        if self._samples == 0:
            return self.ambient
        return self._sum_t / self._samples

    @property
    def std_temperature(self) -> float:
        if self._samples == 0:
            return 0.0
        mean = self._sum_t / self._samples
        var = max(0.0, self._sum_t2 / self._samples - mean * mean)
        return math.sqrt(var)

    def hottest(self) -> float:
        return max(self.temps)
