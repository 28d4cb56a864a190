"""Fast-engine equivalence matrix.

The contract of :class:`repro.sim.engine.FastEngine` is *byte identity*:
for any run the fast engine must produce a ``SimResult`` whose pickle
(protocol 4) hashes identically to the reference lock-step loop's.  Not
"statistically close" — the same floats accumulated in the same IEEE
order, the same per-core counters, the same trace rows.

Two synthetic programs probe the two regimes the engine treats
differently:

* ``spin_heavy`` — deliberately imbalanced (thread 0 does ~10x the
  work), so the other cores spend most of their cycles spinning on the
  lock and barriers.  This is where SKIP/REPLAY fast-forwarding does
  almost all the stepping and every certification / wake-guard path is
  exercised (lock hand-off grants, barrier releases, invalidation
  epochs).
* ``compute_heavy`` — balanced compute with large footprints: little
  spinning, so the engine mostly runs real cycles and the SoA
  accounting plane is what's under test.

Both run under every technique (and every PTB policy), at the default
budget and at a quarter of peak power, plus a truncated run that stops
mid-spin — the end-of-run flush must materialise
fast-forwarded cores exactly as the reference left them.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.config import CMPConfig
from repro.sim.cmp import CMPSimulator, run_simulation
from repro.trace.phases import (
    BarrierPhase,
    ComputePhase,
    LockPhase,
    ParallelProgram,
    ThreadProgram,
)

CORES = 4
MAX_CYCLES = 60_000

#: (technique, ptb_policy) — every supported combination.
COMBOS = [
    ("none", None),
    ("dvfs", None),
    ("dfs", None),
    ("2level", None),
    ("ptb", "toall"),
    ("ptb", "toone"),
    ("ptb", "dynamic"),
    ("ptb-spingate", None),
]


def spin_heavy(n: int) -> ParallelProgram:
    """Imbalanced: long lock/barrier spins on every core but thread 0."""
    threads = []
    for t in range(n):
        ph = []
        for b in range(3):
            ph.append(ComputePhase(instructions=80 + 900 * (t == 0),
                                   footprint_lines=256))
            ph.append(LockPhase(
                lock_id=0,
                critical_section=ComputePhase(
                    instructions=30 + 200 * (t == 0), footprint_lines=128),
            ))
            ph.append(BarrierPhase(b))
        threads.append(ThreadProgram(thread_id=t, phases=tuple(ph)))
    return ParallelProgram(name="spin-heavy", threads=tuple(threads))


def compute_heavy(n: int) -> ParallelProgram:
    """Balanced compute phases: the engine should mostly run real cycles."""
    threads = []
    for t in range(n):
        ph = [
            ComputePhase(instructions=1500, footprint_lines=1024),
            BarrierPhase(0),
            ComputePhase(instructions=800, footprint_lines=512),
            BarrierPhase(1),
        ]
        threads.append(ThreadProgram(thread_id=t, phases=tuple(ph)))
    return ParallelProgram(name="compute-heavy", threads=tuple(threads))


def _digest(program, technique, policy, engine, max_cycles=MAX_CYCLES,
            budget_fraction=0.5):
    result = run_simulation(
        CMPConfig(num_cores=CORES),
        program,
        technique=technique,
        budget_fraction=budget_fraction,
        ptb_policy=policy,
        max_cycles=max_cycles,
        engine=engine,
    )
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest(), result


@pytest.mark.parametrize("technique,policy", COMBOS,
                         ids=[t if p is None else f"{t}-{p}"
                              for t, p in COMBOS])
@pytest.mark.parametrize("make_program", [spin_heavy, compute_heavy],
                         ids=["spin_heavy", "compute_heavy"])
def test_fast_engine_byte_identical(make_program, technique, policy):
    ref, ref_result = _digest(make_program(CORES), technique, policy,
                              "reference")
    fast, fast_result = _digest(make_program(CORES), technique, policy,
                                "fast")
    assert ref_result.completed and not ref_result.truncated
    assert fast == ref


@pytest.mark.parametrize("technique,policy", COMBOS,
                         ids=[t if p is None else f"{t}-{p}"
                              for t, p in COMBOS])
@pytest.mark.parametrize("make_program", [spin_heavy, compute_heavy],
                         ids=["spin_heavy", "compute_heavy"])
def test_fast_engine_byte_identical_low_budget(make_program, technique,
                                               policy):
    """At a quarter of peak the controllers leave their steady path:
    compute_heavy makes 14-20 DVFS mode transitions per run, and 2level
    and PTB throttle for hundreds to thousands of cycles."""
    ref, ref_result = _digest(make_program(CORES), technique, policy,
                              "reference", budget_fraction=0.25)
    fast, _ = _digest(make_program(CORES), technique, policy, "fast",
                      budget_fraction=0.25)
    assert ref_result.completed and not ref_result.truncated
    assert fast == ref


def test_fast_engine_byte_identical_truncated():
    """A run cut off mid-spin: the flush path must match the reference."""
    with pytest.warns(RuntimeWarning, match="truncated"):
        ref, ref_result = _digest(spin_heavy(CORES), "ptb", "toall",
                                  "reference", max_cycles=900)
    with pytest.warns(RuntimeWarning, match="truncated"):
        fast, fast_result = _digest(spin_heavy(CORES), "ptb", "toall",
                                    "fast", max_cycles=900)
    assert ref_result.truncated and fast_result.truncated
    assert fast == ref


def test_controller_fallbacks_count_unsteady_cycles():
    """``FastEngine.stats["controller_fallbacks"]`` is the controller's
    count of cycles its ``end_cycle`` spent off the steady path, the
    same on both engines."""
    from repro.sim.engine import FastEngine

    counts = {}
    for engine in ("reference", "fast"):
        sim = CMPSimulator(
            CMPConfig(num_cores=CORES).with_engine(engine),
            compute_heavy(CORES), technique="2level", budget_fraction=0.25,
        )
        if engine == "fast":
            fast = FastEngine(sim)
            result = fast.run(MAX_CYCLES)
            assert fast.stats["controller_fallbacks"] == (
                sim.controller.unsteady_cycles
            )
        else:
            sim.run(MAX_CYCLES)
        counts[engine] = sim.controller.unsteady_cycles
    assert counts["fast"] == counts["reference"]
    # Every closing DVFS window leaves the steady path, and so does
    # every cycle that engages a throttle on some core.
    windows = result.cycles // sim.cfg.dvfs.window_cycles
    engaged = -(-result.throttled_cycles // CORES)
    assert counts["fast"] >= max(windows, engaged) > 0
    assert counts["fast"] < result.cycles


def test_telemetry_run_takes_reference_path(monkeypatch):
    """Telemetry attaches per-cycle hooks the fast engine skips, so the
    dispatcher must fall back to the reference loop even when the config
    asks for the fast engine."""
    from repro.sim import engine as engine_mod

    def _boom(self, sim):
        raise AssertionError("FastEngine must not run with telemetry on")

    monkeypatch.setattr(engine_mod.FastEngine, "__init__", _boom)
    # The sanity run below needs sanitizers off: REPRO_SANITIZE=1 would
    # send it to the reference loop too.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    # Sanity: without telemetry the patched engine would be reached.
    plain = CMPSimulator(CMPConfig(num_cores=2, engine="fast"),
                         spin_heavy(2))
    with pytest.raises(AssertionError, match="must not run"):
        plain.run(max_cycles=2_000)

    sim = CMPSimulator(CMPConfig(num_cores=2, engine="fast", telemetry=True),
                       spin_heavy(2))
    assert sim.telemetry is not None
    result = sim.run(max_cycles=MAX_CYCLES)
    assert result.completed
