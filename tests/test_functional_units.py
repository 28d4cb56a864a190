"""Tests for functional-unit pool scheduling."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CoreConfig
from repro.core.functional_units import FunctionalUnitPool
from repro.isa.instructions import Kind


@pytest.fixture
def fus():
    return FunctionalUnitPool(CoreConfig())


class TestScheduling:
    def test_ready_unit_starts_immediately(self, fus):
        assert fus.schedule(int(Kind.INT_ALU), ready=10, latency=1) == 10

    def test_six_int_alus_pipeline_freely(self, fus):
        # Pipelined ALUs accept a new op every cycle per unit.
        starts = [
            fus.schedule(int(Kind.INT_ALU), ready=0, latency=1)
            for _ in range(6)
        ]
        assert starts == [0] * 6

    def test_seventh_alu_op_same_cycle_delayed(self, fus):
        for _ in range(6):
            fus.schedule(int(Kind.INT_ALU), ready=0, latency=1)
        start = fus.schedule(int(Kind.INT_ALU), ready=0, latency=1)
        assert start == 1
        assert fus.structural_stalls == 1

    def test_two_int_mults_unpipelined(self, fus):
        # Table 1: 2 IntMult units; they hold their unit for the full
        # 4-cycle latency.
        a = fus.schedule(int(Kind.INT_MULT), ready=0, latency=4)
        b = fus.schedule(int(Kind.INT_MULT), ready=0, latency=4)
        c = fus.schedule(int(Kind.INT_MULT), ready=0, latency=4)
        assert a == 0 and b == 0
        assert c == 4  # waits for a unit to free

    def test_fp_units_are_pipelined(self, fus):
        starts = [
            fus.schedule(int(Kind.FP_ALU), ready=0, latency=3)
            for _ in range(8)
        ]
        # 4 FP ALUs -> two ops per unit, second wave one cycle later.
        assert starts.count(0) == 4
        assert starts.count(1) == 4

    def test_loads_share_integer_ports(self, fus):
        for _ in range(6):
            fus.schedule(int(Kind.LOAD), ready=0, latency=1)
        start = fus.schedule(int(Kind.INT_ALU), ready=0, latency=1)
        assert start == 1

    def test_later_ready_takes_precedence(self, fus):
        assert fus.schedule(int(Kind.FP_MULT), ready=100, latency=5) == 100

    def test_unpipelined_backlog_accumulates(self, fus):
        starts = [
            fus.schedule(int(Kind.FP_MULT), ready=0, latency=5)
            for _ in range(10)
        ]
        # 4 FP mult units, 5-cycle occupancy: waves at 0,0,0,0,5,5,5,5,10,10
        assert starts == [0, 0, 0, 0, 5, 5, 5, 5, 10, 10]

    def test_ties_book_the_lowest_numbered_unit(self, fus):
        fus.schedule(int(Kind.INT_ALU), ready=0, latency=1)
        fus.schedule(int(Kind.LOAD), ready=0, latency=1)
        assert fus._pools["int_alu"] == [1, 1, 0, 0, 0, 0]


class _ReferencePool:
    """The earliest-free scan as first written: a strict ``<`` loop over
    each pool, so ties go to the lowest-numbered unit.  REPLAY's
    certificate depends on that tie-break: the int_alu pool alternates
    between two unit triples in a steady spin loop."""

    POOL_OF = {
        int(Kind.INT_ALU): "int_alu",
        int(Kind.INT_MULT): "int_mult",
        int(Kind.FP_ALU): "fp_alu",
        int(Kind.FP_MULT): "fp_mult",
        int(Kind.LOAD): "int_alu",
        int(Kind.STORE): "int_alu",
        int(Kind.BRANCH): "int_alu",
        int(Kind.ATOMIC): "int_alu",
        int(Kind.NOP): "int_alu",
    }
    UNPIPELINED = ("int_mult", "fp_mult")

    def __init__(self, cfg: CoreConfig) -> None:
        self.pools = {
            "int_alu": [0] * cfg.int_alu,
            "int_mult": [0] * cfg.int_mult,
            "fp_alu": [0] * cfg.fp_alu,
            "fp_mult": [0] * cfg.fp_mult,
        }
        self.structural_stalls = 0

    def schedule(self, kind: int, ready: int, latency: int) -> int:
        pool_name = self.POOL_OF[kind]
        pool = self.pools[pool_name]
        best_i = 0
        best_t = pool[0]
        for i in range(1, len(pool)):
            if pool[i] < best_t:
                best_t = pool[i]
                best_i = i
        start = ready if ready >= best_t else best_t
        if start > ready:
            self.structural_stalls += 1
        occupancy = latency if pool_name in self.UNPIPELINED else 1
        pool[best_i] = start + occupancy
        return start


_ops = st.lists(
    st.tuples(
        st.integers(0, len(Kind) - 1),    # kind
        st.integers(0, 40),               # ready
        st.integers(1, 6),                # latency
    ),
    max_size=120,
)


class TestMatchesReferenceScan:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=_ops,
        sizes=st.tuples(*(st.integers(1, 6) for _ in range(4))),
        sorted_ready=st.booleans(),
    )
    def test_same_starts_pools_and_stalls(self, ops, sizes, sorted_ready):
        cfg = replace(CoreConfig(), int_alu=sizes[0], int_mult=sizes[1],
                      fp_alu=sizes[2], fp_mult=sizes[3])
        if sorted_ready:
            # Dispatch order: ready cycles never go back, as in the core.
            ops = sorted(ops, key=lambda op: op[1])
        fus = FunctionalUnitPool(cfg)
        ref = _ReferencePool(cfg)
        for kind, ready, latency in ops:
            assert (fus.schedule(kind, ready, latency)
                    == ref.schedule(kind, ready, latency))
            assert fus._pools == ref.pools
            assert fus.structural_stalls == ref.structural_stalls
