"""Tests for the out-of-order core model (repro.core.pipeline)."""

import copy
from dataclasses import replace

import pytest

from repro.config import CMPConfig
from repro.core.pipeline import (
    _ACQ_SPIN,
    _BAR_SPIN,
    _BASE_TOK,
    _DISPATCH,
    _KIND,
    _PC,
    Core,
    SyncPhase,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.noc.mesh import Mesh2D
from repro.sim.cmp import CMPSimulator
from repro.sync.primitives import SyncDomain
from repro.trace.generator import ThreadTraceGenerator
from repro.trace.phases import (
    BarrierPhase,
    ComputePhase,
    LockPhase,
    ParallelProgram,
    ThreadProgram,
)
from repro.isa.instructions import Kind


def make_core(phases, cfg=None, token_map=None, core_id=0, n_cores=2,
              shared=None):
    cfg = cfg or CMPConfig(num_cores=n_cores)
    mesh = Mesh2D(n_cores, cfg.net)
    hier = shared[0] if shared else MemoryHierarchy(cfg, mesh)
    dom = shared[1] if shared else SyncDomain(n_cores, mesh)
    if token_map is None:
        from repro.isa.kmeans import default_token_classes
        from repro.power.model import TOKEN_UNIT_EU

        token_map = default_token_classes(token_unit=TOKEN_UNIT_EU)
    gen = ThreadTraceGenerator(
        ThreadProgram(thread_id=core_id, phases=tuple(phases)), seed=3
    )
    return Core(core_id, cfg, token_map, hier, dom, gen), hier, dom


def run_to_completion(core, max_cycles=100_000, **stepkw):
    cycle = 0
    while not core.done and cycle < max_cycles:
        core.step(cycle, **stepkw)
        cycle += 1
    return cycle


class TestBasicExecution:
    def test_completes_compute_program(self, token_map):
        core, _, _ = make_core([ComputePhase(2000, footprint_lines=128)],
                               token_map=token_map)
        cycles = run_to_completion(core)
        assert core.done
        assert core.committed == 2000
        assert 0 < cycles < 50_000

    def test_rob_never_overflows(self, token_map):
        core, _, _ = make_core([ComputePhase(3000, footprint_lines=128)],
                               token_map=token_map)
        cycle = 0
        while not core.done and cycle < 50_000:
            core.step(cycle)
            assert core.rob_occupancy <= core.rob_entries
            cycle += 1

    def test_high_ilp_runs_faster(self, token_map):
        fast, _, _ = make_core(
            [ComputePhase(4000, ilp=1.0, footprint_lines=64,
                          mix={Kind.INT_ALU: 1.0})],
            token_map=token_map,
        )
        slow, _, _ = make_core(
            [ComputePhase(4000, ilp=0.0, footprint_lines=64,
                          mix={Kind.INT_ALU: 1.0})],
            token_map=token_map,
        )
        assert run_to_completion(fast) < run_to_completion(slow)

    def test_fetch_gating_stops_progress(self, token_map):
        core, _, _ = make_core([ComputePhase(1000)], token_map=token_map)
        for cycle in range(200):
            core.step(cycle, fetch_allowed=False)
        assert core.committed == 0

    def test_idle_cycle_consumes_nothing(self, token_map):
        core, _, _ = make_core([ComputePhase(100)], token_map=token_map)
        core.idle_cycle(0)
        assert core.events.n_fetched == 0
        assert not core.events.active

    def test_events_populated_during_execution(self, token_map):
        core, _, _ = make_core([ComputePhase(2000, footprint_lines=64)],
                               token_map=token_map)
        run_to_completion(core)
        # Tokens were consumed and PTHT was exercised.
        assert core.accountant.total_consumed > 0
        assert core.accountant.ptht.updates > 0


class TestSynchronization:
    def test_two_cores_pass_a_barrier(self, token_map):
        cfg = CMPConfig(num_cores=2)
        mesh = Mesh2D(2, cfg.net)
        hier = MemoryHierarchy(cfg, mesh)
        dom = SyncDomain(2, mesh)
        phases = [ComputePhase(200, footprint_lines=64), BarrierPhase(0)]
        cores = []
        for tid in range(2):
            c, _, _ = make_core(phases, cfg=cfg, token_map=token_map,
                                core_id=tid, n_cores=2, shared=(hier, dom))
            cores.append(c)
        cycle = 0
        while not all(c.done for c in cores) and cycle < 100_000:
            for c in cores:
                if not c.done:
                    c.step(cycle)
            cycle += 1
        assert all(c.done for c in cores)
        assert dom.barrier(0).episodes == 1

    def test_unbalanced_barrier_creates_spin(self, token_map):
        cfg = CMPConfig(num_cores=2)
        mesh = Mesh2D(2, cfg.net)
        hier = MemoryHierarchy(cfg, mesh)
        dom = SyncDomain(2, mesh)
        fast, _, _ = make_core(
            [ComputePhase(100, footprint_lines=64), BarrierPhase(0)],
            cfg=cfg, token_map=token_map, core_id=0, shared=(hier, dom))
        slow, _, _ = make_core(
            [ComputePhase(6000, footprint_lines=64), BarrierPhase(0)],
            cfg=cfg, token_map=token_map, core_id=1, shared=(hier, dom))
        spin_cycles = 0
        cycle = 0
        while not (fast.done and slow.done) and cycle < 100_000:
            for c in (fast, slow):
                if not c.done:
                    c.step(cycle)
            if fast.is_spinning:
                spin_cycles += 1
            cycle += 1
        assert spin_cycles > 100
        assert fast.spin_iterations > 10

    def test_lock_mutual_exclusion(self, token_map):
        cfg = CMPConfig(num_cores=2)
        mesh = Mesh2D(2, cfg.net)
        hier = MemoryHierarchy(cfg, mesh)
        dom = SyncDomain(2, mesh)
        phases = [
            LockPhase(0, ComputePhase(300, footprint_lines=64)),
            LockPhase(0, ComputePhase(300, footprint_lines=64)),
        ]
        cores = []
        for tid in range(2):
            c, _, _ = make_core(phases, cfg=cfg, token_map=token_map,
                                core_id=tid, shared=(hier, dom))
            cores.append(c)
        cycle = 0
        while not all(c.done for c in cores) and cycle < 200_000:
            for c in cores:
                if not c.done:
                    c.step(cycle)
            # Mutual exclusion: the domain never has two owners.
            lk = dom.lock(0)
            assert lk.owner is None or isinstance(lk.owner, int)
            cycle += 1
        assert all(c.done for c in cores)
        assert dom.lock(0).acquires == 4

    def test_sync_phase_tracking(self, token_map):
        cfg = CMPConfig(num_cores=2)
        mesh = Mesh2D(2, cfg.net)
        hier = MemoryHierarchy(cfg, mesh)
        dom = SyncDomain(2, mesh)
        phases = [
            LockPhase(0, ComputePhase(400, footprint_lines=64)),
            BarrierPhase(0),
        ]
        cores = []
        for tid in range(2):
            c, _, _ = make_core(phases, cfg=cfg, token_map=token_map,
                                core_id=tid, shared=(hier, dom))
            cores.append(c)
        seen = set()
        cycle = 0
        while not all(c.done for c in cores) and cycle < 200_000:
            for c in cores:
                if not c.done:
                    c.step(cycle)
                    seen.add(c.sync_phase)
            cycle += 1
        assert SyncPhase.BUSY in seen
        assert SyncPhase.LOCK_ACQ in seen
        assert SyncPhase.BARRIER in seen


class TestSpinFlag:
    def test_is_spinning_tracks_sync_state_every_step(self, token_map):
        """``is_spinning`` is an attribute set at the two spin entries and
        cleared at the two spin exits; it must always agree with the
        sync-unit state it summarises."""
        n = 4
        cfg = CMPConfig(num_cores=n)
        mesh = Mesh2D(n, cfg.net)
        hier = MemoryHierarchy(cfg, mesh)
        dom = SyncDomain(n, mesh)
        cores = []
        for tid in range(n):
            phases = []
            for b in range(3):
                # Thread 0 is slow, so the others spin at every barrier;
                # all four contend for one lock, so some spin on it.
                phases.append(ComputePhase(60 + 500 * (tid == 0),
                                           footprint_lines=64))
                phases.append(LockPhase(0, ComputePhase(
                    40, footprint_lines=64)))
                phases.append(BarrierPhase(b))
            c, _, _ = make_core(phases, cfg=cfg, token_map=token_map,
                                core_id=tid, n_cores=n, shared=(hier, dom))
            cores.append(c)
        spun = set()
        cycle = 0
        while not all(c.done for c in cores) and cycle < 200_000:
            for c in cores:
                if not c.done:
                    c.step(cycle)
                    spinning = c._sync_state in (_ACQ_SPIN, _BAR_SPIN)
                    assert c.is_spinning == spinning
                    if spinning:
                        spun.add(c._sync_state)
            cycle += 1
        assert all(c.done for c in cores)
        assert spun == {_ACQ_SPIN, _BAR_SPIN}


def _shadow_accountant(core, stats):
    """Replay every cycle of ``core`` through a copy of its accountant.

    ``Core.step`` does ``TokenAccountant``'s arithmetic inline.  This
    wraps ``step`` and ``idle_cycle`` on the instance, feeds a copy of
    the accountant the cycle's commits and fetches, as read off the ROB,
    through ``begin_cycle``/``on_commit``/``on_fetch``/``end_cycle``,
    and asserts the two agree after every cycle.  It also asserts that
    every ROB entry is a tuple after each step: entries are never
    mutated, so the fast engine's snapshots hold them by reference.
    """
    ref = copy.deepcopy(core.accountant)
    rob = core.rob
    step, idle_cycle, sync_commit = core.step, core.idle_cycle, core._sync_commit
    early = []

    def check() -> None:
        acc = core.accountant
        assert (acc.consumed, acc.predicted, acc.total_consumed) == (
            ref.consumed, ref.predicted, ref.total_consumed)
        p, q = acc.ptht, ref.ptht
        assert (p.hits, p.misses, p.updates) == (q.hits, q.misses, q.updates)
        assert p._tags == q._tags
        assert p._costs == q._costs

    def on_sync_commit(now):
        n = len(rob)
        sync_commit(now)
        early.extend(list(rob)[n:])

    def on_step(now, fetch_allowed=True, issue_width=None):
        before = list(rob)
        del early[:]
        step(now, fetch_allowed, issue_width)
        assert all(type(e) is tuple for e in rob)
        stats["gated"] += not fetch_allowed
        stats["narrowed"] += issue_width is not None
        kept = {id(e) for e in rob}
        committed = [e for e in before if id(e) not in kept]
        for e in committed:
            ref.on_commit(e[_PC], e[_BASE_TOK], now - e[_DISPATCH])
        # A sync instruction injected while another commits (the last
        # barrier arrival's sense-flip store) is fetched before the
        # cycle's residency is set, which drops its base and predicted
        # tokens: the order Core.step has always had.
        for e in early:
            assert ref.on_fetch(e[_PC], e[_KIND]) == e[_BASE_TOK]
        stats["early"] += len(early)
        ref.begin_cycle(len(before) - len(committed) + len(early))
        old = {id(e) for e in before} | {id(e) for e in early}
        for e in rob:
            if id(e) not in old:
                assert ref.on_fetch(e[_PC], e[_KIND]) == e[_BASE_TOK]
                stats["fetched"] += 1
        ref.end_cycle()
        check()

    def on_idle_cycle(now):
        idle_cycle(now)
        stats["idle"] += 1
        ref.begin_cycle(len(rob))
        ref.end_cycle()
        check()

    core.step = on_step
    core.idle_cycle = on_idle_cycle
    core._sync_commit = on_sync_commit


class TestInlineTokenBookkeeping:
    @pytest.mark.parametrize("technique,policy",
                             [("ptb", "toall"), ("2level", None)])
    def test_matches_accountant_methods_every_cycle(self, technique, policy):
        """The inlined token and PTHT bookkeeping equals the
        ``TokenAccountant`` methods cycle by cycle, on a run whose
        controller gates fetch and narrows issue.  A 64-row PTHT makes
        rows alias, so tag replacement is exercised too."""
        n = 4
        cfg = CMPConfig(num_cores=n).with_engine("reference")
        cfg = replace(cfg, power=replace(cfg.power, ptht_entries=64))
        threads = []
        for tid in range(n):
            phases = []
            for b in range(3):
                phases.append(ComputePhase(300 + 600 * (tid == 0),
                                           footprint_lines=256))
                phases.append(LockPhase(0, ComputePhase(
                    40, footprint_lines=64)))
                phases.append(BarrierPhase(b))
            threads.append(ThreadProgram(thread_id=tid, phases=tuple(phases)))
        program = ParallelProgram(name="token-replay", threads=tuple(threads))
        sim = CMPSimulator(cfg, program, technique=technique,
                           budget_fraction=0.3, ptb_policy=policy)
        stats = dict.fromkeys(
            ("idle", "gated", "narrowed", "early", "fetched"), 0)
        for core in sim.cores:
            _shadow_accountant(core, stats)
        result = sim.run(100_000)
        assert result.completed
        assert stats["gated"] and stats["narrowed"] and stats["early"]
        assert stats["idle"] and stats["fetched"]
        assert sum(c.spin_iterations for c in sim.cores)


class TestSpinPowerSignature:
    def test_spinning_cheaper_than_computing(self, token_map):
        """The Figure 6 property: spin power below busy power."""
        cfg = CMPConfig(num_cores=2)
        mesh = Mesh2D(2, cfg.net)
        hier = MemoryHierarchy(cfg, mesh)
        dom = SyncDomain(2, mesh)
        from repro.power.model import EnergyModel

        energy = EnergyModel(cfg)
        fast, _, _ = make_core(
            [ComputePhase(50, footprint_lines=64), BarrierPhase(0)],
            cfg=cfg, token_map=token_map, core_id=0, shared=(hier, dom))
        slow, _, _ = make_core(
            [ComputePhase(20000, footprint_lines=64), BarrierPhase(0)],
            cfg=cfg, token_map=token_map, core_id=1, shared=(hier, dom))
        spin_p, spin_n, busy_p, busy_n = 0.0, 0, 0.0, 0
        for cycle in range(12_000):
            for c in (fast, slow):
                if not c.done:
                    c.step(cycle)
            if fast.is_spinning and cycle > 2000:
                spin_p += energy.cycle_power(fast.events)
                spin_n += 1
            if not slow.done and cycle > 2000:
                busy_p += energy.cycle_power(slow.events)
                busy_n += 1
        assert spin_n > 0 and busy_n > 0
        assert spin_p / spin_n < 0.8 * (busy_p / busy_n)
