"""Tests for budget controllers (naive split and PTB)."""

import pytest

from repro.budget import make_controller
from repro.budget.controller import BudgetController, LocalBudgetController
from repro.budget.ptb import PTBController
from repro.config import CMPConfig
from repro.noc.mesh import Mesh2D
from repro.power.microarch import Technique
from repro.power.model import EnergyModel
from repro.sync.primitives import SyncDomain


@pytest.fixture
def env():
    cfg = CMPConfig(num_cores=4)
    energy = EnergyModel(cfg)
    budget = 0.5 * energy.global_peak_power(4)
    return cfg, energy, budget


def tok(energy, power):
    over = power - energy.uncontrollable_power
    return int(energy.eu_to_tokens(over)) if over > 0 else 0


class TestFactory:
    def test_all_techniques(self, env):
        cfg, energy, budget = env
        for name, cls in [
            ("none", BudgetController),
            ("dvfs", LocalBudgetController),
            ("dfs", LocalBudgetController),
            ("2level", LocalBudgetController),
            ("ptb", PTBController),
        ]:
            ctl = make_controller(name, cfg, energy, budget)
            assert isinstance(ctl, cls)
            assert ctl.name == name

    def test_unknown_rejected(self, env):
        cfg, energy, budget = env
        with pytest.raises(ValueError):
            make_controller("magic", cfg, energy, budget)

    def test_ptht_flags(self, env):
        cfg, energy, budget = env
        assert not make_controller("dvfs", cfg, energy, budget).uses_ptht
        assert make_controller("2level", cfg, energy, budget).uses_ptht
        assert make_controller("ptb", cfg, energy, budget).uses_ptht


class TestNoControl:
    def test_everything_permitted(self, env):
        cfg, energy, budget = env
        ctl = BudgetController(cfg, energy, budget)
        ctl.end_cycle(0, [0] * 4, [999.0] * 4)
        assert all(ctl.execute)
        assert all(ctl.fetch_allowed)
        assert all(v == 1.0 for v in ctl.v_scale)

    def test_budget_lines_are_equal_share(self, env):
        cfg, energy, budget = env
        ctl = BudgetController(cfg, energy, budget)
        assert ctl.budget_lines == [budget / 4] * 4


class TestNaiveTrigger:
    def test_no_throttle_when_global_under(self, env):
        cfg, energy, budget = env
        ctl = LocalBudgetController(cfg, energy, budget, "2level")
        local = ctl.local_budget
        # One core over local, but the CMP total is under.
        powers = [local * 1.5, 1.0, 1.0, 1.0]
        for cyc in range(5):
            ctl.end_cycle(cyc, [tok(energy, p) for p in powers], powers)
        assert ctl.technique_of(0) == Technique.NONE

    def test_throttles_over_core_when_global_over(self, env):
        cfg, energy, budget = env
        ctl = LocalBudgetController(cfg, energy, budget, "2level")
        local = ctl.local_budget
        powers = [local * 1.6] * 4  # everyone over -> global over
        for cyc in range(5):
            ctl.end_cycle(cyc, [tok(energy, p) for p in powers], powers)
        assert all(
            ctl.technique_of(i) != Technique.NONE for i in range(4)
        )
        assert ctl.throttled_cycles > 0

    def test_deeper_overshoot_harsher_technique(self, env):
        cfg, energy, budget = env
        ctl = LocalBudgetController(cfg, energy, budget, "2level")
        local = ctl.local_budget
        powers = [local * 3.0, local * 1.06, local * 1.06, local * 1.06]
        ctl.end_cycle(0, [tok(energy, p) for p in powers], powers)
        assert ctl.technique_of(0) > ctl.technique_of(1)

    def test_under_core_not_throttled(self, env):
        cfg, energy, budget = env
        ctl = LocalBudgetController(cfg, energy, budget, "2level")
        local = ctl.local_budget
        powers = [local * 2.5, local * 2.5, local * 2.5, local * 0.2]
        ctl.end_cycle(0, [tok(energy, p) for p in powers], powers)
        assert ctl.technique_of(3) == Technique.NONE

    def test_dvfs_only_reacts_at_window_end(self, env):
        cfg, energy, budget = env
        ctl = LocalBudgetController(cfg, energy, budget, "dvfs")
        local = ctl.local_budget
        powers = [local * 2.0] * 4
        for cyc in range(cfg.dvfs.window_cycles - 1):
            ctl.end_cycle(cyc, [0] * 4, powers)
        assert ctl.mode_of(0) == 0  # not yet

    def test_dvfs_engages_after_over_window(self, env):
        cfg, energy, budget = env
        ctl = LocalBudgetController(cfg, energy, budget, "dvfs")
        local = ctl.local_budget
        powers = [local * 2.0] * 4
        for cyc in range(2 * cfg.dvfs.window_cycles + 1):
            ctl.end_cycle(cyc, [0] * 4, powers)
        assert ctl.target_mode_of(0) > 0


class TestPTBController:
    def test_budget_lines_rise_with_grants(self, env):
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="toall")
        local = ctl.local_budget
        # Cores 0-2 spin (low power), core 3 well over its share.
        powers = [local * 0.3] * 3 + [local * 1.6]
        tokens = [tok(energy, p) for p in powers]
        latency = cfg.ptb.round_trip_latency(4)
        for cyc in range(latency + 3):
            ctl.end_cycle(cyc, tokens, powers)
        assert ctl.budget_lines[3] > local
        assert ctl._grants[3] > 0

    def test_grant_conservation(self, env):
        """Granted lines never exceed local shares + reported spares."""
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="toall")
        local = ctl.local_budget
        powers = [local * 0.2] * 2 + [local * 1.8] * 2
        tokens = [tok(energy, p) for p in powers]
        for cyc in range(20):
            ctl.end_cycle(cyc, tokens, powers)
            granted_eu = sum(
                max(0.0, line - local) for line in ctl.budget_lines
            )
            spare_eu = sum(max(0.0, local - p) for p in powers)
            assert granted_eu <= spare_eu * 1.05 + 1e-6

    def test_granted_core_not_throttled(self, env):
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="toall")
        local = ctl.local_budget
        powers = [local * 0.2] * 3 + [local * 1.5]
        tokens = [tok(energy, p) for p in powers]
        for cyc in range(20):
            ctl.end_cycle(cyc, tokens, powers)
        # Enough spare flows that core 3 keeps running unthrottled.
        assert ctl.technique_of(3) == Technique.NONE

    def test_all_over_behaves_like_2level(self, env):
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="toall")
        local = ctl.local_budget
        powers = [local * 1.8] * 4  # nobody has spares
        tokens = [tok(energy, p) for p in powers]
        for cyc in range(20):
            ctl.end_cycle(cyc, tokens, powers)
        assert any(ctl.technique_of(i) != Technique.NONE for i in range(4))

    def test_relaxation_delays_trigger(self, env):
        cfg, energy, budget = env
        strict = PTBController(cfg, energy, budget, policy="toall")
        relaxed_cfg = cfg.with_ptb(relax_threshold=5.0)
        relaxed = PTBController(relaxed_cfg, energy, budget, policy="toall")
        local = strict.local_budget
        powers = [local * 1.4] * 4
        tokens = [tok(energy, p) for p in powers]
        for cyc in range(20):
            strict.end_cycle(cyc, tokens, powers)
            relaxed.end_cycle(cyc, tokens, powers)
        assert strict.throttled_cycles > relaxed.throttled_cycles

    def test_policy_validation(self, env):
        cfg, energy, budget = env
        with pytest.raises(ValueError):
            PTBController(cfg, energy, budget, policy="nope")

    def test_dynamic_policy_follows_sync_state(self, env):
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="dynamic")

        class FakeSync:
            def __init__(self, locks, barriers):
                self._l, self._b = locks, barriers

            def cores_waiting_on_locks(self):
                return self._l

            def cores_waiting_on_barriers(self):
                return self._b

            def contended_lock_holders(self):
                return []

        assert ctl._select_policy(FakeSync(3, 0)) == "toone"
        assert ctl._select_policy(FakeSync(0, 3)) == "toall"
        assert ctl.policy_switches >= 1

    def test_priority_follows_sync_version(self, env):
        """Contended-lock holders are re-read whenever the sync domain's
        ``version`` moves: ToOne serves a priority core even when no
        core is over its allotment."""
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="toone")
        sync = SyncDomain(4, Mesh2D(4, cfg.net))
        spinning = [10] * 4  # every core below the floor: spares only
        powers = [1.0] * 4
        latency = ctl.balancer.latency
        cyc = 0

        def run_round():
            nonlocal cyc
            for _ in range(latency + 1):
                ctl.end_cycle(cyc, spinning, powers, sync)
                cyc += 1

        run_round()
        assert ctl._grants == [0, 0, 0, 0]
        sync.try_acquire(0, core=2, now=cyc)
        sync.try_acquire(0, core=3, now=cyc)  # core 2 now gates core 3
        run_round()
        assert ctl._grants == [0, 0, 1, 0]
        sync.release(0, core=2, now=cyc)
        run_round()
        assert ctl._grants == [0, 0, 0, 0]

    def test_static_policy_ignores_sync_state(self, env):
        cfg, energy, budget = env
        ctl = PTBController(cfg, energy, budget, policy="toall")
        assert ctl._select_policy(None) == "toall"
