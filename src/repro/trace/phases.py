"""Phase-structured thread programs.

A synthetic workload is described per-thread as a list of *phases*:

* :class:`ComputePhase` — a loop nest executing a given dynamic
  instruction count with a given kind mix, working-set size and branch
  behaviour.  Misses and mispredictions are *not* injected directly: the
  phase only chooses addresses and branch patterns; the cache hierarchy
  and the gshare predictor produce misses/mispredictions on their own.
* :class:`LockPhase` — acquire a (possibly contended) spinlock, run a
  critical-section compute phase, release.
* :class:`BarrierPhase` — join a named barrier with all threads.

This mirrors how the paper's workloads stress the system: what matters
to PTB is the synchronization structure and the power unbalance it
creates, not the numerical output of the original benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

from ..isa.instructions import Kind

#: A default, compute-bound kind mix (fractions must sum to 1).
DEFAULT_MIX: Dict[Kind, float] = {
    Kind.INT_ALU: 0.40,
    Kind.INT_MULT: 0.04,
    Kind.FP_ALU: 0.10,
    Kind.FP_MULT: 0.04,
    Kind.LOAD: 0.22,
    Kind.STORE: 0.08,
    Kind.BRANCH: 0.12,
}

#: A floating-point heavy mix (scientific kernels: ocean, tomcatv, water).
FP_MIX: Dict[Kind, float] = {
    Kind.INT_ALU: 0.22,
    Kind.INT_MULT: 0.02,
    Kind.FP_ALU: 0.28,
    Kind.FP_MULT: 0.14,
    Kind.LOAD: 0.20,
    Kind.STORE: 0.06,
    Kind.BRANCH: 0.08,
}

#: An integer/memory mix (radix sort, x264 entropy coding).
INT_MEM_MIX: Dict[Kind, float] = {
    Kind.INT_ALU: 0.38,
    Kind.INT_MULT: 0.02,
    Kind.FP_ALU: 0.02,
    Kind.FP_MULT: 0.00,
    Kind.LOAD: 0.30,
    Kind.STORE: 0.14,
    Kind.BRANCH: 0.14,
}


def validate_mix(mix: Dict[Kind, float]) -> None:
    # A left fold, not sum(): the float total is then the same on every
    # interpreter (CPython 3.12 compensates float sums).
    total = 0.0
    for v in mix.values():
        total += v
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"instruction mix must sum to 1, got {total}")
    if any(v < 0 for v in mix.values()):
        raise ValueError("mix fractions must be non-negative")


class SyncKind(Enum):
    """Synchronization operations a thread can request."""

    ACQUIRE = "acquire"
    RELEASE = "release"
    BARRIER = "barrier"


@dataclass(frozen=True)
class SyncOp:
    """A synchronization marker in an instruction stream."""

    kind: SyncKind
    obj_id: int


@dataclass(frozen=True)
class ComputePhase:
    """A stretch of useful computation.

    Attributes
    ----------
    instructions:
        Dynamic instruction count of the phase.
    mix:
        Kind mix; branches close loop bodies (backward, mostly taken).
    footprint_lines:
        Size of the phase's working set in cache lines.  Larger than L1
        -> L1 misses; larger than L2 -> memory traffic.
    shared_fraction:
        Fraction of memory accesses touching globally shared data (the
        rest go to thread-private addresses).  Shared lines bounce
        between cores through the MOESI protocol.
    loop_body:
        Static loop-body length in instructions; sets PC reuse (and thus
        PTHT/branch-predictor locality).
    branch_bias:
        Probability that a *non-loop* conditional branch goes the same
        way as last time (predictability).  Loop back-edges are taken
        until the loop exits.
    ilp:
        Rough instruction-level parallelism: probability that an
        instruction is independent of the previous one.  Lower ilp ->
        longer dependence chains -> lower IPC -> lower power.
    """

    instructions: int
    mix: Dict[Kind, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    footprint_lines: int = 2048
    shared_fraction: float = 0.05
    loop_body: int = 64
    branch_bias: float = 0.92
    ilp: float = 0.7

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError("instruction count must be >= 0")
        if self.loop_body <= 0:
            raise ValueError("loop body must be positive")
        if not (0.0 <= self.shared_fraction <= 1.0):
            raise ValueError("shared fraction must be in [0,1]")
        if not (0.0 <= self.ilp <= 1.0):
            raise ValueError("ilp must be in [0,1]")
        validate_mix(self.mix)


@dataclass(frozen=True)
class LockPhase:
    """Acquire ``lock_id``, execute the critical section, release."""

    lock_id: int
    critical_section: ComputePhase

    def __post_init__(self) -> None:
        if self.lock_id < 0:
            raise ValueError("lock id must be >= 0")


@dataclass(frozen=True)
class BarrierPhase:
    """Join barrier ``barrier_id`` together with every other thread."""

    barrier_id: int

    def __post_init__(self) -> None:
        if self.barrier_id < 0:
            raise ValueError("barrier id must be >= 0")


Phase = ComputePhase | LockPhase | BarrierPhase


@dataclass(frozen=True)
class ThreadProgram:
    """Ordered phases executed by one thread."""

    thread_id: int
    phases: Tuple[Phase, ...]

    def total_instructions(self) -> int:
        """Dynamic instructions excluding spin-loop iterations."""
        total = 0
        for ph in self.phases:
            if isinstance(ph, ComputePhase):
                total += ph.instructions
            elif isinstance(ph, LockPhase):
                total += ph.critical_section.instructions
        return total


@dataclass(frozen=True)
class ParallelProgram:
    """A complete multithreaded workload: one program per core."""

    name: str
    threads: Tuple[ThreadProgram, ...]

    def __post_init__(self) -> None:
        ids = [t.thread_id for t in self.threads]
        if ids != list(range(len(ids))):
            raise ValueError("thread ids must be 0..n-1 in order")

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def total_instructions(self) -> int:
        return sum(t.total_instructions() for t in self.threads)
