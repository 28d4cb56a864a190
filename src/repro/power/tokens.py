"""Power tokens and the Power Token History Table (PTHT).

The paper (Section III.B) accounts per-instruction dynamic power in
*power tokens*: one token is the energy of one instruction occupying
the ROB for one cycle.  An instruction's total cost is

    tokens(instr) = base_tokens(class(instr)) + cycles_in_ROB(instr)

where the base cost is quantized to one of 8 K-means classes
(:mod:`repro.isa.kmeans`).

The PTHT is an 8K-entry, direct-mapped, PC-indexed table holding each
static instruction's cost on its *last* execution; it is updated at
commit and read at fetch, which lets a core predict the cost of the
work it is about to admit into the pipeline without performance
counters.
"""

from __future__ import annotations

from typing import List

from ..isa.kmeans import TokenClassMap
from ..units import Cycles, Tokens


def residency_tokens(rob_cycles: Cycles) -> Tokens:
    """ROB residency converted to tokens.

    One token per ROB-resident cycle is the paper's token *definition*
    (Section III.B), so the exchange rate is exactly 1 — but the two
    sides are different dimensions, and every crossing must go through
    this function so the dimension checker can see it is deliberate.
    """
    return rob_cycles  # simcheck: disable=UNIT004 - the declared exchange


class PowerTokenHistoryTable:
    """Direct-mapped, PC-indexed table of last-execution token costs."""

    __slots__ = ("_entries", "_mask", "_tags", "_costs", "default_cost",
                 "hits", "misses", "updates")

    def __init__(self, entries: int, default_cost: Tokens = 24) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("PTHT entries must be a positive power of two")
        self._entries = entries
        self._mask = entries - 1
        self._tags: List[int] = [-1] * entries
        self._costs: List[Tokens] = [default_cost] * entries
        self.default_cost = default_cost
        self.hits = 0
        self.misses = 0
        self.updates = 0

    @property
    def entries(self) -> int:
        return self._entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> Tokens:
        """Token cost of the instruction at ``pc`` per its last run."""
        i = self._index(pc)
        if self._tags[i] == pc:
            self.hits += 1
            return self._costs[i]
        self.misses += 1
        return self.default_cost

    def update(self, pc: int, tokens: Tokens) -> None:
        """Record the observed cost at commit (Section III.B)."""
        i = self._index(pc)
        self._tags[i] = pc
        self._costs[i] = tokens
        self.updates += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TokenAccountant:
    """Per-core, per-cycle power-token bookkeeping.

    Tracks two quantities every cycle:

    * ``consumed`` — tokens actually burned this cycle: one per
      ROB-resident instruction (the residency component) plus the base
      class tokens of each instruction fetched this cycle (the base
      component, charged up-front at fetch as the paper does).
    * ``predicted`` — the PTHT-predicted cost of the instructions
      fetched this cycle, used by controllers to act *before* the
      energy is spent.

    ``Core.step`` and its fetch paths do the same integer arithmetic
    inline, so on the hot path only injected sync instructions call
    :meth:`on_fetch`.  These methods stay the reference semantics:
    tests/test_tokens.py checks them, tests/test_pipeline.py replays
    every core-cycle of a run through them and compares, and the
    per-core state hashes in tests/test_sim_regression.py were recorded
    while the core still called them.
    """

    __slots__ = ("token_map", "ptht", "consumed", "predicted",
                 "total_consumed", "_cycle_base", "_cycle_pred",
                 "_telemetry")

    def __init__(self, token_map: TokenClassMap, ptht_entries: int) -> None:
        self.token_map = token_map
        self.ptht = PowerTokenHistoryTable(ptht_entries)
        self.consumed: Tokens = 0       # burned in the current cycle
        self.predicted: Tokens = 0      # PTHT prediction, current cycle
        self.total_consumed: Tokens = 0
        self._cycle_base: Tokens = 0
        self._cycle_pred: Tokens = 0
        #: Optional per-core cost :class:`repro.telemetry.Histogram`.
        self._telemetry = None

    def begin_cycle(self, rob_occupancy: int) -> None:
        self._cycle_base = rob_occupancy  # residency component
        self._cycle_pred = 0

    def on_fetch(self, pc: int, kind: int) -> Tokens:
        """Charge base tokens for a fetched instruction.

        Returns the base class tokens (stored in the ROB entry so the
        commit-time PTHT update can add the residency).
        """
        base = self.token_map.class_tokens[self.token_map.kind_class[kind]]
        self._cycle_base += base
        self._cycle_pred += self.ptht.predict(pc)
        return base

    def on_commit(
        self, pc: int, base_tokens: Tokens, rob_cycles: Cycles
    ) -> Tokens:
        """Record an instruction's final cost in the PTHT at commit."""
        total = base_tokens + residency_tokens(rob_cycles)
        self.ptht.update(pc, total)
        if self._telemetry is not None:
            self._telemetry.observe(total)
        return total

    def end_cycle(self) -> Tokens:
        """Finalize the cycle; returns tokens consumed this cycle."""
        self.consumed = self._cycle_base
        self.predicted = self._cycle_pred
        self.total_consumed += self.consumed
        return self.consumed
