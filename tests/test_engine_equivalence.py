"""Fast-forward equivalence matrix.

:class:`repro.sim.engine.FastEngine` holds the one cycle loop.  With
``engine="reference"`` it steps every core every cycle; with
``engine="fast"`` it fast-forwards cycles whose outcome is already
known.  The contract between the two is *byte identity*: for any run
the ``SimResult`` pickle (protocol 4) must hash identically with
fast-forward on and off.  Not "statistically close" — the same floats
accumulated in the same IEEE order, the same per-core counters, the
same trace rows.

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
mid-spin — the end-of-run flush must materialise fast-forwarded cores
exactly as a stepped run leaves them.  Observers ride the same loop:
a sanitized run fast-forwards, a traced run steps every core-cycle,
and neither changes a byte.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import replace

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


@pytest.mark.parametrize("observer", ["telemetry", "sanitize"])
def test_observed_fast_run_pickles_identically(monkeypatch, observer):
    """Observers ride the one loop without changing a byte.  Sanitizer
    checks fire on component events, so a sanitized ``engine="fast"``
    run still fast-forwards; telemetry samples every core's phase and
    ROB each cycle, so a traced one steps every core-cycle."""
    from repro.sim.engine import FastEngine

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    runs = []
    for observed in (False, True):
        cfg = replace(CMPConfig(num_cores=CORES, engine="fast"),
                      **{observer: observed})
        engine = FastEngine(CMPSimulator(cfg, spin_heavy(CORES),
                                         technique="ptb", ptb_policy="toall"))
        result = engine.run(MAX_CYCLES)
        blob = pickle.dumps(result, protocol=4)
        runs.append((hashlib.sha256(blob).hexdigest(), result, engine.stats))
    (plain_hash, _, plain), (observed_hash, result, stats) = runs
    assert result.completed
    assert plain["skip_cycles"] + plain["replay_cycles"] > 0
    if observer == "telemetry":
        assert stats["skip_cycles"] == stats["replay_cycles"] == 0
    else:
        assert stats["skip_cycles"] + stats["replay_cycles"] > 0
    assert observed_hash == plain_hash


def test_reference_engine_steps_every_core_every_cycle(monkeypatch):
    """``engine="reference"`` makes one ``Core.step`` or
    ``Core.idle_cycle`` call per core per cycle, finished cores
    included; the fast engine makes fewer."""
    from repro.core.pipeline import Core

    calls = {"all": 0, "done": 0}

    def counting(fn):
        def counted(self, *args):
            calls["all"] += 1
            calls["done"] += self.done
            return fn(self, *args)
        return counted

    monkeypatch.setattr(Core, "step", counting(Core.step))
    monkeypatch.setattr(Core, "idle_cycle", counting(Core.idle_cycle))
    stepped = {}
    for engine in ("reference", "fast"):
        calls.update(all=0, done=0)
        result = run_simulation(
            CMPConfig(num_cores=CORES), spin_heavy(CORES), technique="ptb",
            ptb_policy="toall", max_cycles=MAX_CYCLES, engine=engine,
        )
        assert result.completed
        stepped[engine] = dict(calls)
    assert stepped["reference"]["all"] == result.cycles * CORES
    assert stepped["reference"]["done"] > 0
    assert stepped["fast"]["all"] < result.cycles * CORES
