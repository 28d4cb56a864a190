"""Byte-identical SimResult regression guard for hot-loop perf fixes.

The allocation and attribute-load fixes in ``sim/cmp.py``,
``budget/ptb.py`` and ``budget/controller.py`` (hoisted attribute chains,
reused scratch buffers, incremental pledge accounting, module-constant
technique tuples) are pure mechanical rewrites, and so is the flattened
stepped core-cycle:

* ``core/pipeline.py`` does the ``TokenAccountant`` begin/fetch/commit/
  end-of-cycle arithmetic and the PTHT reads and updates inline, keeps
  the fetch cursor and counters in locals, compares ``_sync_state``
  against plain int constants and keeps ``is_spinning`` as an attribute;
* ``core/functional_units.py`` picks the earliest-free unit with
  ``min()`` + ``list.index()`` from a per-kind table (same first-minimum
  tie-break);
* ``power/model.py``'s ``cycle_power`` hoists its attribute loads and
  skips event terms that are 0.0.

None of them may perturb a single bit of simulator output.  If a future
"perf-neutral" refactor changes these hashes, it was not neutral.

``SimResult`` bytes do not cover the per-core state that never reaches
a result but that ``FastEngine`` certifies REPLAY on and rebuilds at
replay exit: the token accountant, the PTHT rows, the FU pools and the
gshare table.  ``CORE_STATE_HASHES`` pins that state as well.  Nor do
they cover the caches and the directory: ``HIERARCHY_INIT_HASH`` and
``HIERARCHY_RUN_HASH`` pin every way, LRU stamp and line state after
set-up (the L2 prewarm) and after the run.

The hashes were re-captured once, deliberately, when the end-of-run
off-by-one in ``CMPSimulator.run`` was fixed (the run loop used to burn
one extra all-idle cycle after the last thread finished, so every run
reported one cycle too many): the reference behaviour change moved
the PTB runs' ``SEED_CYCLES`` from 1995 to 1994 and shifted every
accumulator by one gated cycle.

``LOW_BUDGET_PINS`` runs the same program at ``budget_fraction=0.25``
under every controller: at the default budget no DVFS mode ever
changes, so only these pins cover mode transitions on both engines.

Both engine settings must reproduce the hashes bit-for-bit: they run
the one cycle loop in ``repro.sim.engine`` with fast-forward off and
on.  With no second loop to compare against, these hashes and
``bench/golden.json`` are what pin the bytes
(tests/test_engine_equivalence.py covers the broader matrix).

The program is small but exercises every subsystem the rewrites touched:
compute phases (DVFS + 2-level throttles), a contended lock (spin power),
barriers (sync domain / priority boost) and all three PTB distribution
policies (latency pipe, pledge escrow, grant bookkeeping).
"""

from __future__ import annotations

import builtins
import hashlib
import math
import pickle
import sys

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

# sha256 of pickle.dumps(result, protocol=4) after the end-of-run
# off-by-one fix (see module docstring), and each run's cycle count.
# Keyed by PTB policy; "2level" (DVFS + microarchitectural techniques,
# no PTB) was recorded before the stepped core-cycle was flattened.
SEED_HASHES = {
    "toall": "a4c5585e82c5778a5cfb451d46a2246fdec3efebfe2d51d05b4e02e96d6b60cd",
    "toone": "2b4931b2781de75af1025b75f4aa7b0a2c2da49530860b56cdc20ba6a79e41d3",
    "dynamic": "f97849664942ed52a7ca162fc5120e76b0f035bccb26e5925c56182662ab2c38",
    "2level": "cc301803a244bf0cc783bbe6d407c0665147ff82138402260337db586e55281f",
}
SEED_CYCLES = {"toall": 1994, "toone": 1994, "dynamic": 1994, "2level": 1991}

# sha256 of each core's end-of-run state (see core_state_digest), recorded
# before the token bookkeeping was inlined into Core.step.  All three PTB
# policies leave the cores in the same state on this program: the grants
# move the AoPB budget lines, not what the cores execute.
_PTB_CORE_STATE = (
    "e86ffb869f3c8fc50b62ea78d8c751889da3cdbd6dbd8e42e40bae4e98a774b6",
    "2c558ee8d1bf787757360e8d0976569210a1ed3270ab3113dc09580e970a749e",
)
CORE_STATE_HASHES = {
    "toall": _PTB_CORE_STATE,
    "toone": _PTB_CORE_STATE,
    "dynamic": _PTB_CORE_STATE,
    "2level": (
        "0eab7f8b016da3b11b82cef837ca6c01f8747200392c9d9da6c98b88c58cce2b",
        "fe506f137900c6086823a97e7f17038d34e8a4bc9b2d3cf71d7e0a9894fa738c",
    ),
}

# sha256 of the memory hierarchy (see hierarchy_digest) right after
# CMPSimulator.__init__ and after the run, recorded on the one-list-per-set
# cache layout.  Every case and both engines leave the same state.
HIERARCHY_INIT_HASH = (
    "1dcd19a2873882f265b8fbd0801a194c1aaca6056b1ce201e6da327f8b0ce689"
)
HIERARCHY_RUN_HASH = (
    "3617d7d8d359ac72f4a5241230b3808044a9a0a775c57e8977ca3e91f90acac7"
)


# Runs at budget_fraction=0.25, recorded before the DVFS and throttle
# state moved into the controllers' banks.  At the default 0.5 no run
# above changes a DVFS mode; here every run makes several mode
# transitions and 2level and PTB throttle for 1,540-1,698 cycles, so
# these pin the controllers' slow paths.  Per case: cycles, result hash,
# core-state digests, hierarchy digest after the run, and each core's
# DVFS transition count.
_PTB_LOW_CORE_0 = (
    "2b2c496fc70259cc254fc4661287d42420e459021a37f94a50e24cdd4cad9295"
)
_PTB_LOW_CORE_1 = (
    "6678ccb89a338e288e95dddcf3708bb6bdba79a096461aa5f27e9806cfad1e7e"
)
_PTB_LOW_HIERARCHY = (
    "169d8fba19ab0fae86d6ca4d4e084b90591952f6ce926fa1ccdc2d1ee2be7b81"
)
LOW_BUDGET_PINS = {
    ("dvfs", None): (
        2009,
        "c7f2ff0f34f55bb76b8e0fdd2e7b8b20e6ca07e2a78ca9e43981a4011cdbea14",
        ("8fde1830f60e157b1c6af5d61eb0b5433b30853256479fd00f8017848a123aa8",
         "5a554bd5a599a9dbaab6fcfee4409d2eaea03f5aa203e8fbdb7be9bd402be459"),
        "d9439ee9073289a04d9ba4d10106206911354921062a42f0c9523bdc4c679bbb",
        [5, 4],
    ),
    ("dfs", None): (
        2043,
        "f7ce8cd55c2781d4d7cf29630abd0418d46985c67c33be572fef37ba569ba121",
        ("37218b3f7abbd3273087a6107e01f1af3ec99e1f19910480a3e78f3e2db97af0",
         "cb28af9e0d4b61fbe8830e4dcb4bd619d8aea675f3f8f507aca3f716676419ed"),
        "4b0aa4b593eb339d72757dda476276b520a32cc1660d5e10c3369df02415bb63",
        [4, 4],
    ),
    ("2level", None): (
        2267,
        "23f3dc520d14516f330f9df274eeed2939c27557913e246ae7c5b4e3d2c9f9e8",
        ("2fef3be25b384fa7c84b77e7e48c72f0f45036a99140bd57db5b3552a6897d7b",
         "ee2d046dd3c8d5cbecc44f7dd8880f3bdd8223e3ff3bcdd4a0323cda8bb9bf7c"),
        "2fd694bdbe7e658ced091ba6ef151e863a065d58fe2af0032700bf0a0ccea699",
        [3, 4],
    ),
    ("ptb", "toall"): (
        2406,
        "a2ad28efb7b69aafd8bcbaa6d188f653f85849f499ecf6ff940d1cecfc59e9b6",
        (_PTB_LOW_CORE_0, _PTB_LOW_CORE_1),
        _PTB_LOW_HIERARCHY,
        [2, 2],
    ),
    ("ptb", "toone"): (
        2406,
        "beca14618f905dc019bb8e485007e73998026db0259a73319fb60e133e8ec697",
        (_PTB_LOW_CORE_0,
         "939779c51e4b5bf7b0525c8a1a54e7700a25583543ba9b8870029e2a4b660469"),
        _PTB_LOW_HIERARCHY,
        [2, 2],
    ),
    ("ptb", "dynamic"): (
        2406,
        "407a7975e67c29f50facb02569d9d68a2f91ec569aec336b90cba27f1073818b",
        (_PTB_LOW_CORE_0, _PTB_LOW_CORE_1),
        _PTB_LOW_HIERARCHY,
        [2, 2],
    ),
    ("ptb-spingate", None): (
        2406,
        "874489fadcd87d327ba1e17c12f532bfa15c00a00bee6f0dd68272a89efd298c",
        (_PTB_LOW_CORE_0, _PTB_LOW_CORE_1),
        _PTB_LOW_HIERARCHY,
        [2, 2],
    ),
}


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


def core_state_digest(core) -> str:
    """sha256 of one core's end-of-run state that no ``SimResult`` holds:
    token accountant, PTHT, FU pools, gshare predictor and core counters."""
    acc = core.accountant
    ptht = acc.ptht
    pred = core.predictor
    fus = core.fus
    h = hashlib.sha256()
    h.update(repr((
        acc.consumed, acc.predicted, acc.total_consumed,
        ptht._tags, ptht._costs, ptht.hits, ptht.misses, ptht.updates,
        sorted(fus._pools.items()), fus.structural_stalls,
        pred.history, pred.lookups, pred.mispredictions,
        core.committed, core.executed_cycles, core.spin_iterations,
        core.mem_stall_cycles,
    )).encode())
    h.update(bytes(pred._table))
    return h.hexdigest()


def _cache_ways(cache) -> list:
    """(tag, LRU stamp) of every way in (set, way) order.  The only reader
    of a cache's storage layout: a layout change rewrites this helper,
    never the recorded hashes."""
    # Flat storage: way w of set s at index s * assoc + w.
    return list(zip(cache._tags, cache._lru))


def hierarchy_digest(hierarchy) -> str:
    """sha256 of the memory-hierarchy state no ``SimResult`` holds: every
    L1I, L1D and L2 way with its LRU stamp and counters, the directory's
    entries and each core's line states (in dict order)."""
    h = hashlib.sha256()
    for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        for cache in level:
            h.update(repr((
                _cache_ways(cache), cache._tick,
                cache.hits, cache.misses, cache.evictions,
            )).encode())
    d = hierarchy.directory
    h.update(repr([
        (line, e.owner, sorted(e.sharers), e.dirty)
        for line, e in d._entries.items()
    ]).encode())
    h.update(repr([
        [(line, int(st)) for line, st in view.items()]
        for view in d._core_state
    ]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("policy", sorted(SEED_HASHES))
def test_simresult_pickle_identical_to_seed(policy: str, engine: str) -> None:
    technique, ptb_policy = (
        ("2level", None) if policy == "2level" else ("ptb", policy)
    )
    sim = CMPSimulator(
        CMPConfig(num_cores=2).with_engine(engine),
        _make_program(2, 600),
        technique=technique,
        ptb_policy=ptb_policy,
    )
    assert hierarchy_digest(sim.hierarchy) == HIERARCHY_INIT_HASH
    result = sim.run(40_000)
    assert hierarchy_digest(sim.hierarchy) == HIERARCHY_RUN_HASH
    assert result.cycles == SEED_CYCLES[policy]
    blob = pickle.dumps(result, protocol=4)
    assert hashlib.sha256(blob).hexdigest() == SEED_HASHES[policy]
    digests = tuple(core_state_digest(core) for core in sim.cores)
    assert digests == CORE_STATE_HASHES[policy]


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "technique,policy", sorted(LOW_BUDGET_PINS, key=str),
    ids=[t if p is None else f"{t}-{p}"
         for t, p in sorted(LOW_BUDGET_PINS, key=str)],
)
def test_low_budget_pickle_identical_to_seed(
    technique: str, policy, engine: str
) -> None:
    cycles, result_hash, core_states, hierarchy, transitions = (
        LOW_BUDGET_PINS[(technique, policy)]
    )
    sim = CMPSimulator(
        CMPConfig(num_cores=2).with_engine(engine),
        _make_program(2, 600),
        technique=technique,
        ptb_policy=policy,
        budget_fraction=0.25,
    )
    assert hierarchy_digest(sim.hierarchy) == HIERARCHY_INIT_HASH
    result = sim.run(40_000)
    assert hierarchy_digest(sim.hierarchy) == hierarchy
    assert result.cycles == cycles
    blob = pickle.dumps(result, protocol=4)
    assert hashlib.sha256(blob).hexdigest() == result_hash
    assert tuple(core_state_digest(core) for core in sim.cores) == core_states
    assert sim.controller.dvfs.transitions == transitions


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


# --------------------------------------------------------------------------- #
# Interpreter independence: CPython 3.12's compensated float sum()            #
# --------------------------------------------------------------------------- #

#: A 4-core PTB/ToAll run: with three or more cores the thermal model's
#: mean is a float total whose last bit 3.12's ``sum()`` can change (the
#: 2-core pins above cannot show it: a two-term sum rounds the same).
ORACLE_CORES = 4
ORACLE_CYCLES = 2792
ORACLE_HASH = (
    "cecebbc93927e2ccfd2f6f3a42a4eb5f1120763adc986eb58170780d8e920241"
)

_C_LONG = (-(1 << 63), (1 << 63) - 1)


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()``, which compensates float additions.

    Follows ``builtin_sum_impl``: while the total is an int, ints and
    bools add exactly.  Once it is a float, items of exact type
    ``float`` add with Neumaier's compensation term, C-long ints add
    plainly, and any other item folds the compensation in and continues
    with ``+``.
    """
    it = iter(iterable)
    total = start
    if type(total) is int:
        for item in it:
            if type(item) is int or type(item) is bool:
                total += item
            else:
                total = total + item
                break
        else:
            return total
    if type(total) is not float:
        for item in it:
            total = total + item
        return total
    f, c = total, 0.0
    for item in it:
        if type(item) is float:
            t = f + item
            if abs(f) >= abs(item):
                c += (f - t) + item
            else:
                c += (item - t) + f
            f = t
        elif isinstance(item, int) and _C_LONG[0] <= item <= _C_LONG[1]:
            f += float(item)
        else:
            if c and math.isfinite(c):
                f += c
            total = f + item
            for item in it:
                total = total + item
            return total
    if c and math.isfinite(c):
        f += c
    return f


def test_float_sums_are_interpreter_independent(monkeypatch):
    """A pinned run reaches no ``sum()`` that returns a float, every
    ``sum()`` it does reach returns the same value under 3.12's
    compensated algorithm, and the run keeps its pinned hash.

    Float totals that feed results are explicit left folds
    (``ThermalModel._step``'s mean, ``validate_mix``'s total,
    ``EnergyModel.mean_busy_base_energy``), so they round the same on
    every interpreter by construction.  The ``sum()`` calls left are
    integer totals, which 3.12 adds exactly as 3.11 does; a new float
    ``sum()`` fails here even while it happens to round the same.
    """
    native = builtins.sum
    # The emulation really compensates (3.11 gives 0.9999999999999999
    # and 0.0 here).
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    calls = []
    differ = []
    floats = []

    def oracle(iterable, /, start=0):
        items = list(iterable)
        old = native(items, start)
        new = compensated_sum(items, start)
        calls.append(type(new))
        caller = sys._getframe(1)
        where = f"{caller.f_code.co_filename}:{caller.f_lineno}"
        if type(old) is float or type(new) is float:
            floats.append(f"{where}: {new!r}")
        if (type(old), repr(old)) != (type(new), repr(new)):
            differ.append(f"{where}: {old!r} -> {new!r}")
        return new

    monkeypatch.setattr(builtins, "sum", oracle)
    sim = CMPSimulator(
        CMPConfig(num_cores=ORACLE_CORES).with_engine("fast"),
        _make_program(ORACLE_CORES, 600),
        technique="ptb",
        ptb_policy="toall",
    )
    result = sim.run(40_000)
    monkeypatch.setattr(builtins, "sum", native)
    assert calls, "the oracle never ran"
    assert floats == []
    assert differ == []
    assert result.cycles == ORACLE_CYCLES
    blob = pickle.dumps(result, protocol=4)
    assert hashlib.sha256(blob).hexdigest() == ORACLE_HASH
