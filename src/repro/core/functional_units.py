"""Functional-unit pool scheduling.

Table 1 gives each core 6 IntALU, 2 IntMult, 4 FPALU and 4 FPMult
units.  Loads/stores/atomics share the load-store ports (modelled as
the IntALU AGU ports); branches use IntALUs.

The pipeline assigns execution start times at dispatch, so the pool
tracks, per unit, the earliest cycle it is next free.  ALUs and FP
units are pipelined (new op every cycle, ``occupancy=1``); the integer
multiplier and atomics hold their unit for the full latency.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import CoreConfig
from ..isa.instructions import Kind

#: Kind -> FU pool name.
_POOL_OF: Dict[int, str] = {
    int(Kind.INT_ALU): "int_alu",
    int(Kind.INT_MULT): "int_mult",
    int(Kind.FP_ALU): "fp_alu",
    int(Kind.FP_MULT): "fp_mult",
    int(Kind.LOAD): "int_alu",    # AGU shares the integer ports
    int(Kind.STORE): "int_alu",
    int(Kind.BRANCH): "int_alu",
    int(Kind.ATOMIC): "int_alu",
    int(Kind.NOP): "int_alu",
}

#: Pools whose units are NOT pipelined (occupy for the full latency).
_UNPIPELINED = frozenset(("int_mult", "fp_mult"))


class FunctionalUnitPool:
    """Earliest-free-unit tracking for all FU pools of one core."""

    __slots__ = ("_pools", "_by_kind", "structural_stalls")

    def __init__(self, cfg: CoreConfig) -> None:
        self._pools: Dict[str, List[int]] = {
            "int_alu": [0] * cfg.int_alu,
            "int_mult": [0] * cfg.int_mult,
            "fp_alu": [0] * cfg.fp_alu,
            "fp_mult": [0] * cfg.fp_mult,
        }
        #: Kind code -> (that kind's pool, is the pool unpipelined?).
        self._by_kind: List[Tuple[List[int], bool]] = [
            (self._pools[_POOL_OF[k]], _POOL_OF[k] in _UNPIPELINED)
            for k in Kind
        ]
        self.structural_stalls = 0

    def schedule(self, kind: int, ready: int, latency: int) -> int:
        """Book a unit for an instruction ready at cycle ``ready``.

        Returns the cycle execution *starts* (>= ready); completion is
        ``start + latency`` as computed by the caller.
        """
        pool, unpipelined = self._by_kind[kind]
        # The earliest-free unit, the lowest-numbered one on a tie (pools
        # are tiny: 2-6 entries).
        free = min(pool)
        if ready >= free:
            start = ready
        else:
            start = free
            self.structural_stalls += 1
        pool[pool.index(free)] = start + (latency if unpipelined else 1)
        return start
