"""Byte-identical SimResult regression guard for hot-loop perf fixes.

The allocation and attribute-load fixes in ``sim/cmp.py``,
``budget/ptb.py`` and ``budget/controller.py`` (hoisted attribute chains,
reused scratch buffers, incremental pledge accounting, module-constant
technique tuples) are pure mechanical rewrites: they must not perturb a
single bit of simulator output.  If a future "perf-neutral" refactor changes these
hashes, it was not neutral.

The hashes were re-captured once, deliberately, when the end-of-run
off-by-one in ``CMPSimulator.run`` was fixed (the run loop used to burn
one extra all-idle cycle after the last thread finished, so every run
reported one cycle too many): the reference behaviour change moved
``SEED_CYCLES`` from 1995 to 1994 and shifted every accumulator by one
gated cycle.

Both engines must reproduce the hashes bit-for-bit — the ``fast``
parametrization is the regression anchor for ``repro.sim.engine``
(tests/test_engine_equivalence.py covers the broader matrix).

The program is small but exercises every subsystem the rewrites touched:
compute phases (DVFS + 2-level throttles), a contended lock (spin power),
barriers (sync domain / priority boost) and all three PTB distribution
policies (latency pipe, pledge escrow, grant bookkeeping).
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.config import CMPConfig
from repro.sim.cmp import run_simulation
from repro.trace.phases import (
    BarrierPhase,
    ComputePhase,
    LockPhase,
    ParallelProgram,
    ThreadProgram,
)

# sha256 of pickle.dumps(result, protocol=4) after the end-of-run
# off-by-one fix (see module docstring).
SEED_HASHES = {
    "toall": "a4c5585e82c5778a5cfb451d46a2246fdec3efebfe2d51d05b4e02e96d6b60cd",
    "toone": "2b4931b2781de75af1025b75f4aa7b0a2c2da49530860b56cdc20ba6a79e41d3",
    "dynamic": "f97849664942ed52a7ca162fc5120e76b0f035bccb26e5925c56182662ab2c38",
}
SEED_CYCLES = 1994


def _make_program(num_threads: int, work: int) -> ParallelProgram:
    threads = []
    for t in range(num_threads):
        phases = []
        for b in range(2):
            phases.append(
                ComputePhase(instructions=work, footprint_lines=512)
            )
            phases.append(
                LockPhase(
                    lock_id=0,
                    critical_section=ComputePhase(
                        instructions=40, footprint_lines=512
                    ),
                )
            )
            phases.append(BarrierPhase(b))
        threads.append(ThreadProgram(thread_id=t, phases=tuple(phases)))
    return ParallelProgram(name="kernel-regression", threads=tuple(threads))


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("policy", sorted(SEED_HASHES))
def test_simresult_pickle_identical_to_seed(policy: str, engine: str) -> None:
    cfg = CMPConfig(num_cores=2)
    result = run_simulation(
        cfg,
        _make_program(2, 600),
        technique="ptb",
        ptb_policy=policy,
        max_cycles=40_000,
        engine=engine,
    )
    assert result.cycles == SEED_CYCLES
    blob = pickle.dumps(result, protocol=4)
    assert hashlib.sha256(blob).hexdigest() == SEED_HASHES[policy]


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_no_idle_tail_cycle_and_exact_boundary_finish(engine: str) -> None:
    """Regression for the end-of-run off-by-one.

    A run must stop on the cycle the last thread finishes (no all-idle
    tail cycle), and a thread finishing exactly at the ``max_cycles``
    boundary must not be misreported as truncated.
    """
    cfg = CMPConfig(num_cores=2)
    prog = _make_program(2, 600)
    full = run_simulation(
        cfg, prog, technique="ptb", ptb_policy="toall",
        max_cycles=40_000, engine=engine,
    )
    assert not full.truncated
    assert full.completed

    # Cap exactly at the natural length: still a complete run.
    exact = run_simulation(
        cfg, prog, technique="ptb", ptb_policy="toall",
        max_cycles=full.cycles, engine=engine,
    )
    assert exact.cycles == full.cycles
    assert not exact.truncated
    assert exact.completed

    # One cycle short: now it *is* truncated, with the warning.
    with pytest.warns(RuntimeWarning, match="truncated"):
        short = run_simulation(
            cfg, prog, technique="ptb", ptb_policy="toall",
            max_cycles=full.cycles - 1, engine=engine,
        )
    assert short.truncated
    assert short.cycles == full.cycles - 1
