"""Tests for the DVFS/DFS bank (one core per bank here)."""

import pytest

from repro.config import DVFSConfig
from repro.power.dvfs import DVFSBank


def tick(bank, power, budget):
    """One cycle of the bank's single core; True = it executes."""
    bank.tick([power], budget)
    return bank.execute[0]


def run_window(bank, power, budget, cycles=None):
    """Feed constant power for one full window."""
    cycles = cycles if cycles is not None else bank.window_cycles
    executed = 0
    for _ in range(cycles):
        if tick(bank, power, budget):
            executed += 1
    return executed


class TestModeSelection:
    def test_stays_at_full_speed_under_budget(self):
        bank = DVFSBank(DVFSConfig(), 1)
        run_window(bank, power=10.0, budget=100.0)
        assert bank.mode[0] == 0

    def test_steps_down_when_over_budget(self):
        bank = DVFSBank(DVFSConfig(), 1)
        run_window(bank, power=50.0, budget=40.0)
        assert bank.target_mode[0] > 0

    def test_selects_mode_that_fits(self):
        bank = DVFSBank(DVFSConfig(), 1)
        # Need scale <= 0.6 -> mode 4 (0.9^2*0.65 = 0.527).
        run_window(bank, power=100.0, budget=60.0)
        assert bank.target_mode[0] == 4

    def test_picks_mildest_sufficient_mode(self):
        bank = DVFSBank(DVFSConfig(), 1)
        # Need scale <= 0.9 -> mode 1 (0.857) suffices.
        run_window(bank, power=100.0, budget=90.0)
        assert bank.target_mode[0] == 1

    def test_steps_back_up_when_budget_relaxes(self):
        bank = DVFSBank(DVFSConfig(transition_cycles_per_step=1), 1)
        run_window(bank, power=100.0, budget=55.0)
        for _ in range(10):
            tick(bank, 40.0, float("inf"))
        run_window(bank, power=40.0, budget=float("inf"))
        # allow the transition to complete
        for _ in range(20):
            tick(bank, 40.0, float("inf"))
        assert bank.mode[0] == 0


class TestTransitions:
    def test_transition_latency_proportional_to_steps(self):
        cfg = DVFSConfig(transition_cycles_per_step=10)
        bank = DVFSBank(cfg, 1)
        run_window(bank, power=100.0, budget=55.0)  # target mode 4
        assert bank.in_transition(0)
        assert bank.mode[0] == 0
        for _ in range(4 * 10):
            tick(bank, 100.0, 55.0)
        assert not bank.in_transition(0)
        assert bank.mode[0] == 4

    def test_transition_pays_higher_voltage(self):
        bank = DVFSBank(DVFSConfig(), 1)
        run_window(bank, power=100.0, budget=55.0)
        assert bank.in_transition(0)
        assert bank.v_scale[0] == max(bank.modes[0][0], bank.modes[4][0])
        assert bank.f_scale[0] == min(bank.modes[0][1], bank.modes[4][1])

    def test_transitions_counted(self):
        bank = DVFSBank(DVFSConfig(), 1)
        run_window(bank, power=100.0, budget=55.0)
        assert bank.transitions[0] == 1


class TestFrequencySkipping:
    def test_full_speed_executes_every_cycle(self):
        bank = DVFSBank(DVFSConfig(), 1)
        assert run_window(bank, 1.0, 100.0, cycles=100) == 100

    def test_low_mode_skips_cycles(self):
        bank = DVFSBank(DVFSConfig(transition_cycles_per_step=0), 1)
        bank.force_mode(0, 4)  # f = 0.65
        executed = run_window(bank, 1.0, float("inf"), cycles=1000)
        assert executed == pytest.approx(650, abs=10)

    def test_mode2_rate(self):
        # Window larger than the measurement so the bank holds mode 2.
        bank = DVFSBank(DVFSConfig(window_cycles=4096), 1)
        bank.force_mode(0, 2)  # f = 0.90
        executed = run_window(bank, 1.0, float("inf"), cycles=1000)
        assert executed == pytest.approx(900, abs=10)


class TestDFS:
    def test_dfs_never_lowers_voltage(self):
        bank = DVFSBank(DVFSConfig(), 1, dfs=True)
        run_window(bank, power=100.0, budget=55.0)
        for _ in range(100):
            tick(bank, 100.0, 55.0)
        assert bank.v_scale[0] == 1.0

    def test_dfs_has_less_headroom(self):
        """DFS's deepest mode only reaches 65% power; DVFS reaches ~53%."""
        dvfs = DVFSBank(DVFSConfig(), 1)
        dfs = DVFSBank(DVFSConfig(), 1, dfs=True)
        v, f = dvfs.modes[-1]
        assert v * v * f == pytest.approx(0.527, abs=0.01)
        v, f = dfs.modes[-1]
        assert v * v * f == pytest.approx(0.65, abs=0.01)

    def test_force_mode_validation(self):
        bank = DVFSBank(DVFSConfig(), 1)
        with pytest.raises(ValueError):
            bank.force_mode(0, 9)


class TestBank:
    def test_cores_select_independently(self):
        """One shared window, one mode per core's own average power."""
        bank = DVFSBank(DVFSConfig(), 3)
        for _ in range(bank.window_cycles):
            bank.tick([100.0, 10.0, 80.0], 60.0)
        assert bank.target_mode == [4, 0, 2]
        assert bank.transitions == [1, 0, 1]
        assert bank.window_left == bank.window_cycles

    def test_directive_lists_written_in_place(self):
        execute = [True, True]
        v_scale = [1.0, 1.0]
        bank = DVFSBank(DVFSConfig(transition_cycles_per_step=0), 2,
                        execute=execute, v_scale=v_scale)
        bank.force_mode(1, 4)
        changed = bank.tick([1.0, 1.0], float("inf"))
        assert changed
        assert bank.execute is execute and bank.v_scale is v_scale
        assert v_scale == [1.0, 0.9]
        assert execute == [True, False]  # 0.65 credit: not yet a step

    def test_tick_reports_voltage_changes_only(self):
        bank = DVFSBank(DVFSConfig(window_cycles=4), 1)
        assert bank.tick([1.0], float("inf"))  # first tick publishes
        assert not any(bank.tick([1.0], float("inf")) for _ in range(8))
