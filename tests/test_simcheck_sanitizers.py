"""Runtime sanitizers: each one fires on an injected violation and
stays silent across a clean 2-core smoke simulation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import CMPConfig, NetworkConfig
from repro.budget.ptb import PTBLoadBalancer
from repro.mem.coherence import Directory, State
from repro.noc.mesh import Mesh2D
from repro.sim.cmp import CMPSimulator
from repro.sim.engine import FastEngine
from repro.simcheck import (
    CoherenceSanitizer,
    NoCProgressSanitizer,
    PipelineSanitizer,
    SanitizerViolation,
    TokenSanitizer,
    sanitize_enabled,
)

from .conftest import make_program


def violation(excinfo, name):
    v = excinfo.value
    assert v.sanitizer == name
    return v


# --------------------------------------------------------------------------- #
# TokenSanitizer                                                              #
# --------------------------------------------------------------------------- #


class TestTokenSanitizer:
    def test_minted_tokens_fire(self):
        ts = TokenSanitizer()
        ts.now = 42
        with pytest.raises(SanitizerViolation) as ei:
            ts.check_distribution(10, [6, 6])
        v = violation(ei, "TokenSanitizer")
        assert v.cycle == 42
        assert "minted" in str(v)

    def test_negative_grant_fires(self):
        ts = TokenSanitizer()
        with pytest.raises(SanitizerViolation) as ei:
            ts.check_distribution(10, [12, -2])
        assert violation(ei, "TokenSanitizer").core == 1

    def test_conserving_distribution_passes(self):
        ts = TokenSanitizer()
        ts.check_distribution(10, [4, 6])
        ts.check_distribution(10, [0, 3])
        assert ts.checks == 2
        assert ts.total_granted <= ts.total_pool

    def test_report_invariants_fire(self):
        ts = TokenSanitizer()
        budget, gbudget = 10.0, 20.0
        with pytest.raises(SanitizerViolation):  # negative spare
            ts.check_reports([1, 1], [-1, 0], [0, 0], budget, gbudget)
        with pytest.raises(SanitizerViolation):  # donor and requester at once
            ts.check_reports([1, 1], [2, 0], [3, 0], budget, gbudget)
        with pytest.raises(SanitizerViolation):  # spent+spare > allotment
            ts.check_reports([8, 1], [5, 0], [0, 0], budget, gbudget)
        with pytest.raises(SanitizerViolation):  # sum(spares) > global budget
            ts.check_reports([0, 0], [15, 15], [0, 0], budget, gbudget)
        ts.check_reports([8, 2], [2, 8], [0, 0], budget, gbudget)  # clean

    def test_fires_through_balancer_hook(self):
        """A buggy balancer that mints tokens is caught by the hook in
        :meth:`PTBLoadBalancer.cycle` itself."""

        class MintingBalancer(PTBLoadBalancer):
            def distribute(self, pool, overs, policy, priority=None):
                return [pool + 1] + [0] * (len(overs) - 1)

        bal = MintingBalancer(2, latency=0)
        bal._sanitizer = TokenSanitizer()
        with pytest.raises(SanitizerViolation):
            bal.cycle([3, 0], [0, 2], "toall")

    def test_honest_balancer_through_hook(self):
        bal = PTBLoadBalancer(2, latency=1)
        ts = TokenSanitizer()
        bal._sanitizer = ts
        for _ in range(6):
            bal.cycle([4, 0], [0, 3], "toone")
        assert ts.checks > 0
        assert ts.total_granted <= ts.total_pool


# --------------------------------------------------------------------------- #
# CoherenceSanitizer                                                          #
# --------------------------------------------------------------------------- #


def make_directory(num_cores=2):
    mesh = Mesh2D(num_cores, NetworkConfig())
    return Directory(num_cores, mesh, memory_latency=100)


class TestCoherenceSanitizer:
    def test_forged_second_modified_copy_fires(self):
        d = make_directory()
        line = 0x40
        d.write_miss(0, line)  # core 0 now holds M
        san = CoherenceSanitizer(d)
        san.check_line(0, line)  # legal state passes
        d._core_state[1][line] = State.M  # forge a second M copy
        with pytest.raises(SanitizerViolation) as ei:
            san.check_line(0, line)
        assert "M/O/E" in str(violation(ei, "CoherenceSanitizer"))

    def test_forged_orphan_sharer_fires(self):
        d = make_directory()
        line = 0x80
        d.read_miss(0, line)
        d.read_miss(1, line)
        san = CoherenceSanitizer(d)
        san.check_line(1, line)
        del d._core_state[1][line]  # cached copy vanishes, directory stale
        with pytest.raises(SanitizerViolation) as ei:
            san.check_line(0, line)
        assert "no cached copy" in str(ei.value)

    def test_forged_dirty_without_owner_fires(self):
        d = make_directory()
        line = 0xC0
        d.read_miss(0, line)
        entry = d._entries[line]
        entry.dirty = True  # dirty data with no M/O owner anywhere
        san = CoherenceSanitizer(d)
        with pytest.raises(SanitizerViolation) as ei:
            san.check_line(0, line)
        assert "dirty" in str(ei.value)

    def test_protocol_traffic_stays_clean(self):
        d = make_directory(4)
        san = CoherenceSanitizer(d)
        lines = [0x40 * i for i in range(1, 9)]
        for line in lines:
            d.read_miss(0, line)
            d.read_miss(1, line)
            d.write_miss(2, line)
            d.read_miss(3, line)
        d.evict(3, lines[0])
        d.write_miss(1, lines[1])
        san.check_all()
        assert san.checks >= len(lines)


# --------------------------------------------------------------------------- #
# NoCProgressSanitizer                                                        #
# --------------------------------------------------------------------------- #


class TestNoCProgressSanitizer:
    def make(self, nodes=4):
        return NoCProgressSanitizer(nodes, NetworkConfig())

    def test_stuck_message_fires_watchdog(self):
        san = self.make()
        san.on_inject(hops=2, flits=16, deliver_override=10**9)
        limit = san.watchdog_limit(16)
        san.on_cycle(limit)  # at the limit: still tolerated
        with pytest.raises(SanitizerViolation) as ei:
            san.on_cycle(limit + 1)
        assert "deadlock" in str(violation(ei, "NoCProgressSanitizer"))

    def test_credit_exhaustion_fires(self):
        san = self.make()
        with pytest.raises(SanitizerViolation) as ei:
            san.on_inject(hops=1, flits=san.credit_capacity + 1)
        assert "credits" in str(ei.value)

    def test_delivered_messages_restore_credits(self):
        san = self.make()
        for _ in range(10):
            san.on_inject(hops=3, flits=16)
        assert san.credits == san.credit_capacity - 160
        san.on_cycle(san.expected_latency(3, 16))
        assert san.credits == san.credit_capacity
        assert san.delivered == 10
        # Much later, nothing in flight: no bark.
        san.on_cycle(10**6)

    def test_mesh_hook_records_inflight(self):
        mesh = Mesh2D(4, NetworkConfig())
        san = self.make()
        mesh._sanitizer = san
        mesh.record_message(hops=2, payload_bytes=64)
        assert san.checks == 1
        assert san.credits < san.credit_capacity


# --------------------------------------------------------------------------- #
# PipelineSanitizer                                                           #
# --------------------------------------------------------------------------- #


class TestPipelineSanitizer:
    def test_commit_before_complete_fires(self):
        san = PipelineSanitizer()
        with pytest.raises(SanitizerViolation) as ei:
            san.on_commit(core_id=0, dispatch_cycle=5, complete_cycle=20, now=10)
        assert violation(ei, "PipelineSanitizer").core == 0

    def test_out_of_program_order_commit_fires(self):
        san = PipelineSanitizer()
        san.on_commit(0, dispatch_cycle=8, complete_cycle=9, now=10)
        with pytest.raises(SanitizerViolation) as ei:
            san.on_commit(0, dispatch_cycle=5, complete_cycle=9, now=11)
        assert "program order" in str(ei.value)
        # Independent cores do not interfere.
        san.on_commit(1, dispatch_cycle=1, complete_cycle=2, now=12)

    def test_rob_overflow_fires(self):
        san = PipelineSanitizer()
        with pytest.raises(SanitizerViolation) as ei:
            san.check_rob(0, now=3, occupancy=129, capacity=128,
                          dispatch_cycles=[])
        assert "occupancy" in str(ei.value)

    def test_rob_window_disorder_fires(self):
        san = PipelineSanitizer()
        san.check_rob(0, now=3, occupancy=3, capacity=128,
                      dispatch_cycles=[1, 2, 3])
        with pytest.raises(SanitizerViolation):
            san.check_rob(0, now=3, occupancy=3, capacity=128,
                          dispatch_cycles=[1, 3, 2])


# --------------------------------------------------------------------------- #
# Enablement and clean end-to-end smoke                                       #
# --------------------------------------------------------------------------- #


class TestEnablement:
    def test_config_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled(CMPConfig(num_cores=2))
        assert sanitize_enabled(replace(CMPConfig(num_cores=2), sanitize=True))

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled(None)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled(None)

    def test_off_by_default_no_suite(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = CMPSimulator(CMPConfig(num_cores=2), make_program(2, work=200,
                                                                barriers=1))
        assert sim.sanitizers is None
        assert sim.mesh._sanitizer is None


class TestCleanSmoke:
    """Sanitizers stay silent on a run that steps every core-cycle."""

    engine = "reference"

    def _run(self, program, **kw):
        cfg = replace(CMPConfig(num_cores=2), sanitize=True)
        sim = CMPSimulator(cfg.with_engine(self.engine), program, **kw)
        engine = FastEngine(sim)
        result = engine.run(60_000)
        assert result.completed
        stats = engine.stats
        fast_forwarded = stats["skip_cycles"] + stats["replay_cycles"]
        assert (fast_forwarded > 0) == (self.engine == "fast")
        return sim

    @pytest.mark.parametrize("policy", ["toall", "toone"])
    def test_two_core_ptb_smoke_is_violation_free(self, policy):
        prog = make_program(2, work=600, barriers=2, lock_ops=2, cs_len=40)
        sim = self._run(prog, technique="ptb", ptb_policy=policy)
        suite = sim.sanitizers
        assert suite is not None
        # Every sanitizer actually exercised its checks.
        for s in suite.all:
            assert s.checks > 0, s.name
        assert suite.tokens.total_granted <= suite.tokens.total_pool
        assert suite.noc.delivered > 0
        suite.coherence.check_all()

    def test_uncontrolled_smoke_is_violation_free(self):
        sim = self._run(make_program(2, work=400, barriers=1),
                        technique="none")
        assert sim.sanitizers.pipeline.checks > 0


class TestCleanSmokeFast(TestCleanSmoke):
    """The same runs with fast-forward on: frozen spans raise no
    component event, so sanitized runs keep it on, and every sanitizer
    still checks the stepped cycles."""

    engine = "fast"


def test_minting_balancer_raises_out_of_fast_forwarded_run(monkeypatch):
    """A token-minting ``PTBLoadBalancer.distribute`` is caught on the
    fast engine: the violation escapes ``run()`` after cores have
    already been fast-forwarded."""

    def mint(pool, overs, policy, priority=None):
        return [pool + 1] + [0] * (len(overs) - 1)

    monkeypatch.setattr(PTBLoadBalancer, "distribute", staticmethod(mint))
    prog = make_program(2, work=600, barriers=2, lock_ops=2, cs_len=40)
    cfg = replace(CMPConfig(num_cores=2), sanitize=True).with_engine("fast")
    fast = FastEngine(CMPSimulator(cfg, prog, technique="ptb",
                                   ptb_policy="toall"))
    with pytest.raises(SanitizerViolation) as ei:
        fast.run(60_000)
    v = violation(ei, "TokenSanitizer")
    assert "minted" in str(v)
    assert v.cycle > 0
    assert fast.stats["skip_entries"] > 0
