"""Tests for the spin-gating extension (the paper's future work)."""

import pytest

from repro.budget import make_controller
from repro.budget.spingate import SpinGatingPTBController
from repro.config import CMPConfig
from repro.power.model import EnergyModel
from repro.sim.cmp import run_simulation
from repro.workloads import build_program


@pytest.fixture
def env():
    cfg = CMPConfig(num_cores=4)
    energy = EnergyModel(cfg)
    return cfg, energy, 0.5 * energy.global_peak_power(4)


class FakeSync:
    #: Never mutated after construction, so its version never moves.
    version = 0

    def __init__(self, spinning):
        self._s = set(spinning)

    def spinning_cores(self):
        return self._s

    def cores_waiting_on_locks(self):
        return len(self._s)

    def cores_waiting_on_barriers(self):
        return 0

    def contended_lock_holders(self):
        return []


class TestController:
    def test_factory(self, env):
        cfg, energy, budget = env
        ctl = make_controller("ptb-spingate", cfg, energy, budget)
        assert isinstance(ctl, SpinGatingPTBController)
        assert ctl.name == "ptb+spingate"

    def test_gates_after_hysteresis(self, env):
        cfg, energy, budget = env
        ctl = SpinGatingPTBController(cfg, energy, budget, policy="toall",
                                      gate_delay=5)
        sync = FakeSync({2})
        for cyc in range(4):
            ctl.end_cycle(cyc, [10, 10, 10, 10], [20.0] * 4, sync)
            assert ctl.fetch_allowed[2]  # not yet
        ctl.end_cycle(4, [10, 10, 10, 10], [20.0] * 4, sync)
        assert not ctl.fetch_allowed[2]
        assert ctl.gate_events == 1

    def test_non_spinners_never_gated(self, env):
        cfg, energy, budget = env
        ctl = SpinGatingPTBController(cfg, energy, budget, policy="toall",
                                      gate_delay=0)
        sync = FakeSync({1})
        for cyc in range(10):
            ctl.end_cycle(cyc, [10] * 4, [20.0] * 4, sync)
        assert ctl.fetch_allowed[0]
        assert ctl.fetch_allowed[3]
        assert not ctl.fetch_allowed[1]

    def test_wake_clears_gate(self, env):
        cfg, energy, budget = env
        ctl = SpinGatingPTBController(cfg, energy, budget, policy="toall",
                                      gate_delay=0)
        ctl.end_cycle(0, [10] * 4, [20.0] * 4, FakeSync({3}))
        assert not ctl.fetch_allowed[3]
        ctl.end_cycle(1, [10] * 4, [20.0] * 4, FakeSync(set()))
        assert ctl.fetch_allowed[3]
        assert ctl._spin_streak[3] == 0

    def test_no_sync_domain_is_safe(self, env):
        cfg, energy, budget = env
        ctl = SpinGatingPTBController(cfg, energy, budget, policy="toall")
        ctl.end_cycle(0, [10] * 4, [20.0] * 4, None)
        assert all(ctl.fetch_allowed)

    def test_validation(self, env):
        cfg, energy, budget = env
        with pytest.raises(ValueError):
            SpinGatingPTBController(cfg, energy, budget, gate_delay=-1)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def runs(self):
        cfg = CMPConfig(num_cores=4)
        prog = build_program("unstructured", 4, scale="tiny")
        return {
            "base": run_simulation(cfg, prog, "none"),
            "ptb": run_simulation(cfg, prog, "ptb", ptb_policy="toall"),
            "gated": run_simulation(cfg, prog, "ptb-spingate",
                                    ptb_policy="toall"),
        }

    def test_completes(self, runs):
        assert all(r.completed for r in runs.values())

    def test_saves_energy_on_lock_bound_code(self, runs):
        """The paper's future-work claim: disabling spinners saves energy."""
        assert runs["gated"].total_energy < runs["ptb"].total_energy
        assert runs["gated"].total_energy < runs["base"].total_energy

    def test_does_not_slow_down(self, runs):
        assert runs["gated"].cycles <= runs["ptb"].cycles * 1.05

    def test_no_deadlock_on_barrier_heavy_code(self):
        cfg = CMPConfig(num_cores=4)
        prog = build_program("ocean", 4, scale="tiny")
        r = run_simulation(cfg, prog, "ptb-spingate", ptb_policy="toall")
        assert r.completed
