"""Per-cycle core power model.

Power is reported in *energy units* (EU) per cycle.  A core's per-cycle
power is the sum of:

* **event energy** — each dynamic instruction's base energy
  (:data:`repro.isa.instructions.BASE_ENERGY`) is split into three
  slices: 30% at fetch/decode/rename, 45% at execute-complete, 25% at
  commit.  Only the fetch and commit slices are charged today: the
  pipeline never writes ``CycleEvents.completed_energy`` (it only
  resets it), so the 45% term of :meth:`EnergyModel.cycle_power` is
  always 0.0 and an instruction's event energy is 55% of its base
  energy.  :attr:`EnergyModel.peak_core_power`, which sets the budget
  line, counts the full base energy (DESIGN.md §12).  Memory-system
  events (L2, memory, NoC flits, invalidations) charge the
  Cacti-derived energies of :mod:`repro.power.cacti` when the access
  completes.
* **window occupancy** — every instruction resident in the ROB burns
  one *power-token unit* per cycle (wakeup/select, bypass and regfile
  background activity).  This term is the physical counterpart of the
  paper's power-token definition: one token = the energy of one
  instruction sitting in the ROB for one cycle.
* **clock tree and sequential overhead** — scaled by the core's
  activity with an imperfect-gating floor (``gating_residue``).
* **leakage** — HotLeakage-style: linear in voltage, exponential in
  temperature.

Dynamic terms scale with ``v_scale**2`` under DVFS; frequency scaling
dilates time (the core simply executes on a fraction of global cycles),
so no explicit ``f`` factor appears here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import exp as _exp

from ..config import CMPConfig
from ..isa.instructions import BASE_ENERGY, Kind
from ..units import Joules, Tokens, Watts
from .cacti import StructureEnergies

#: Slices of an instruction's base energy charged at each pipeline event.
FETCH_FRAC = 0.30
COMPLETE_FRAC = 0.45
COMMIT_FRAC = 0.25

#: EU burned per ROB-resident instruction per cycle (the power-token unit).
TOKEN_UNIT_EU: Watts = 0.15

#: Clock tree + sequential elements at full activity (EU/cycle).
CLOCK_POWER_EU: Watts = 12.0

#: Leakage at nominal voltage and reference temperature (EU/cycle).
LEAKAGE_NOMINAL_EU: Watts = 6.0

#: Temperature sensitivity of leakage (Kelvin per e-fold).
LEAKAGE_TEMP_EFOLD_K = 30.0


@dataclass
class CycleEvents:
    """Raw event counts of one core in one cycle (pipeline output)."""

    fetched_energy: float = 0.0      # sum of BASE_ENERGY over fetched
    completed_energy: float = 0.0    # over completed (never written)
    committed_energy: float = 0.0    # over committed
    n_fetched: int = 0
    n_branches: int = 0
    l2_accesses: int = 0
    mem_accesses: int = 0
    flit_hops: int = 0
    invalidations: int = 0
    rob_occupancy: int = 0
    active: bool = True              # False on f-scaled skipped cycles

    def reset(self) -> None:
        self.fetched_energy = 0.0
        self.completed_energy = 0.0
        self.committed_energy = 0.0
        self.n_fetched = 0
        self.n_branches = 0
        self.l2_accesses = 0
        self.mem_accesses = 0
        self.flit_hops = 0
        self.invalidations = 0
        self.rob_occupancy = 0
        self.active = True


class EnergyModel:
    """Converts pipeline events into per-cycle power (EU)."""

    def __init__(self, cfg: CMPConfig) -> None:
        self.cfg = cfg
        self.struct = StructureEnergies.from_config(cfg)
        self.token_unit = TOKEN_UNIT_EU
        self.clock_power = CLOCK_POWER_EU
        self.leak_nominal = LEAKAGE_NOMINAL_EU
        self.gating_residue = cfg.power.gating_residue
        self.temp_ref = cfg.tech.ambient_k + 20.0
        self._act_norm = 1.0 / (cfg.core.decode_width + cfg.core.commit_width)
        # Set True by the simulator when the controller uses the PTHT or
        # the PTB wires, so their overheads are charged.
        self.charge_ptht = False
        self.ptb_overhead_fraction = 0.0

    # -- component models --------------------------------------------------

    def leakage(self, v_scale: float, temp_k: float) -> Watts:
        """Leakage power (EU/cycle): ~V x exp(T)."""
        t_term = _exp((temp_k - self.temp_ref) / LEAKAGE_TEMP_EFOLD_K)
        return self.leak_nominal * v_scale * t_term

    def clock(self, activity: float, v_scale: float) -> Watts:
        """Clock-tree power with imperfect gating, scaled by V^2."""
        g = self.gating_residue
        return self.clock_power * (g + (1.0 - g) * activity) * v_scale * v_scale

    # -- the per-cycle aggregation ------------------------------------------

    def cycle_power(
        self,
        ev: CycleEvents,
        v_scale: float = 1.0,
        temp_k: float | None = None,
    ) -> Watts:
        """Total power of one core for one cycle, in EU.

        The same float operations as :meth:`leakage`, :meth:`clock` and
        the event sum written out in full, with two exact shortcuts: a
        zero event term is not added (every term is non-negative, so
        ``x + 0.0 == x``), and the attribute loads are hoisted.
        """
        temp = self.temp_ref if temp_k is None else temp_k
        leak = self.leak_nominal * v_scale * _exp(
            (temp - self.temp_ref) / LEAKAGE_TEMP_EFOLD_K)
        v2 = v_scale * v_scale
        occupancy = ev.rob_occupancy
        if not ev.active:
            # Frequency-scaled skipped cycle: only gated clock, occupancy
            # hold power and leakage.
            return (
                self.clock_power * self.gating_residue * v2
                + occupancy * self.token_unit * v2 * 0.5
                + leak
            )
        s = self.struct
        # Summed in a fixed order; a term is skipped only when it is 0.0.
        dyn = ev.fetched_energy * FETCH_FRAC
        x = ev.completed_energy
        if x:
            dyn += x * COMPLETE_FRAC
        x = ev.committed_energy
        if x:
            dyn += x * COMMIT_FRAC
        x = ev.n_branches
        if x:
            dyn += x * s.bpred_access
        x = ev.l2_accesses
        if x:
            dyn += x * s.l2_access
        x = ev.mem_accesses
        if x:
            dyn += x * s.mem_access
        x = ev.flit_hops
        if x:
            dyn += x * s.noc_flit_hop
        x = ev.invalidations
        if x:
            dyn += x * s.invalidation
        if occupancy:
            dyn += occupancy * self.token_unit
        n_fetched = ev.n_fetched
        if n_fetched and self.charge_ptht:
            dyn += n_fetched * s.ptht_access
        activity = (n_fetched + occupancy * 0.02) * self._act_norm * 2.0
        if activity > 1.0:
            activity = 1.0
        g = self.gating_residue
        clock = self.clock_power * (g + (1.0 - g) * activity) * v_scale * v_scale
        total = dyn * v2 + clock + leak
        overhead = self.ptb_overhead_fraction
        if overhead:
            total *= 1.0 + overhead
        return total

    # -- derived constants ----------------------------------------------------

    @cached_property
    def mean_busy_base_energy(self) -> Joules:
        """Average base energy of a busy-mix instruction (EU)."""
        from ..trace.phases import DEFAULT_MIX

        # A left fold, not sum(): the float total is then the same on
        # every interpreter (CPython 3.12 compensates float sums).
        total = 0.0
        for k, f in DEFAULT_MIX.items():
            total += BASE_ENERGY[k] * f
        return total

    @cached_property
    def peak_core_power(self) -> Watts:
        """Sustained peak per-core power (EU/cycle) at nominal V/f.

        Architectural peak: full-width issue of *expensive* (FP-heavy)
        instructions — modelled as 1.75x the average busy instruction
        cost — with a half-full window, full clock activity and nominal
        leakage.  Calibrated so a 50% budget sits a little *below* the
        average busy-phase core power: busy cores hover just over their
        local share with bursts well above it, which is the regime the
        paper's mechanisms operate in (frequent moderate overshoot, not
        sustained 2x overload).
        """
        c = self.cfg.core
        events = (
            c.decode_width * 1.75 * self.mean_busy_base_energy
            + self.struct.bpred_access * c.decode_width * 0.15
        )
        occupancy = 0.5 * c.rob_entries * self.token_unit
        return (
            events
            + occupancy
            + self.clock(1.0, 1.0)
            + self.leakage(1.0, self.temp_ref)
        )

    @cached_property
    def uncontrollable_power(self) -> Watts:
        """Power a core burns even when fully gated (EU/cycle)."""
        return (
            self.clock_power * self.gating_residue
            + self.leakage(1.0, self.temp_ref)
        )

    def global_peak_power(self, num_cores: int) -> Watts:
        return self.peak_core_power * num_cores

    # -- token/EU exchange -----------------------------------------------------

    def tokens_to_eu(self, tokens: Tokens) -> Watts:
        """Token count -> per-cycle power (the declared exchange point)."""
        return tokens * self.token_unit

    def eu_to_tokens(self, eu: Watts) -> Tokens:
        """Per-cycle power -> token count (the declared exchange point)."""
        return eu / self.token_unit
