"""Differential tests: the actuator banks against per-core objects.

``DVFSBank`` and ``ThrottleBank`` hold every core's DVFS and throttle
state as one list per field, with one window counter and one duty phase
shared by all cores.  They replaced one ``DVFSController`` and one
``MicroarchThrottle`` object per core.  The classes below are copies of
those per-core objects, kept here as the reference semantics: Hypothesis
drives a bank and one reference object per core through the same
cycles (windows that close, transitions that start and finish, every
technique engaged and released) and compares every directive and counter
after each cycle.
"""

from __future__ import annotations

from typing import Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DVFSConfig
from repro.power.dvfs import DVFSBank
from repro.power.microarch import Technique, ThrottleBank

INF = float("inf")


class DVFSController:
    """Reference: one core's window-averaged mode selection."""

    def __init__(self, cfg: DVFSConfig, dfs: bool = False) -> None:
        self.cfg = cfg
        if dfs:
            self.modes: Tuple[Tuple[float, float], ...] = tuple(
                (1.0, f) for _, f in cfg.modes
            )
        else:
            self.modes = cfg.modes
        self.mode = 0
        self.target_mode = 0
        self._window_energy = 0.0
        self._window_left = cfg.window_cycles
        self._transition_left = 0
        self.transitions = 0
        self.f_credit = 0.0

    @property
    def v_scale(self) -> float:
        if self._transition_left > 0:
            return max(self.modes[self.mode][0], self.modes[self.target_mode][0])
        return self.modes[self.mode][0]

    @property
    def f_scale(self) -> float:
        if self._transition_left > 0:
            return min(self.modes[self.mode][1], self.modes[self.target_mode][1])
        return self.modes[self.mode][1]

    def tick(self, core_power: float, local_budget: float) -> bool:
        if self._transition_left > 0:
            self._transition_left -= 1
            if self._transition_left == 0:
                self.mode = self.target_mode

        self._window_energy += core_power
        self._window_left -= 1
        if self._window_left <= 0:
            avg = self._window_energy / self.cfg.window_cycles
            self._select_mode(avg, local_budget)
            self._window_energy = 0.0
            self._window_left = self.cfg.window_cycles

        self.f_credit += self.f_scale
        if self.f_credit >= 1.0:
            self.f_credit -= 1.0
            return True
        return False

    def _select_mode(self, avg_power: float, budget: float) -> None:
        if self._transition_left > 0:
            return
        if avg_power <= 0:
            target = 0
        else:
            cur_v, cur_f = self.modes[self.mode]
            cur_scale = cur_v * cur_v * cur_f
            target = len(self.modes) - 1
            for i, (v, f) in enumerate(self.modes):
                scale = v * v * f
                predicted = avg_power * (scale / cur_scale)
                if predicted <= budget:
                    target = i
                    break
        if target != self.mode:
            steps = abs(target - self.mode)
            self._transition_left = steps * self.cfg.transition_cycles_per_step
            self.target_mode = target
            self.transitions += 1

    def force_mode(self, mode: int) -> None:
        self.mode = mode
        self.target_mode = mode
        self._transition_left = 0


class MicroarchThrottle:
    """Reference: one core's second-level actuator."""

    def __init__(self) -> None:
        self.technique = Technique.NONE
        self._phase = 0
        self.engaged_cycles = 0
        self.by_technique = [0] * (max(Technique) + 1)

    def set(self, technique: Technique) -> None:
        self.technique = technique

    def tick(self) -> None:
        self._phase = (self._phase + 1) & 3
        if self.technique != Technique.NONE:
            self.engaged_cycles += 1
            self.by_technique[self.technique] += 1

    @property
    def fetch_allowed(self) -> bool:
        t = self.technique
        if t == Technique.NONE:
            return True
        if t == Technique.FETCH_LIGHT:
            return self._phase != 0
        if t == Technique.FETCH_THROTTLE:
            return (self._phase & 1) == 0
        return False

    def issue_width(self, full_width: int) -> int:
        t = self.technique
        if t == Technique.ISSUE_HALF:
            return max(1, full_width // 2)
        if t == Technique.PIPELINE_GATE:
            return 0
        return full_width


# -- DVFS -------------------------------------------------------------------

#: Per-cycle budgets: unbounded (the CMP is under budget) or a local
#: budget tight enough to push a core several modes down.
budgets = st.one_of(st.just(INF), st.floats(5.0, 120.0))
powers = st.floats(0.0, 150.0)


@st.composite
def dvfs_runs(draw):
    cores = draw(st.integers(1, 4))
    cfg = DVFSConfig(
        window_cycles=draw(st.integers(1, 12)),
        transition_cycles_per_step=draw(st.integers(0, 4)),
    )
    cycles = draw(st.lists(
        st.tuples(
            st.lists(powers, min_size=cores, max_size=cores),
            budgets,
            # Occasionally force one core's mode (warm start).
            st.one_of(st.none(), st.tuples(st.integers(0, cores - 1),
                                           st.integers(0, 4))),
        ),
        min_size=1, max_size=120,
    ))
    return cores, cfg, draw(st.booleans()), cycles


class TestDVFSBankMatchesPerCoreControllers:
    @settings(max_examples=150, deadline=None)
    @given(dvfs_runs())
    def test_every_cycle(self, run):
        cores, cfg, dfs, cycles = run
        bank = DVFSBank(cfg, cores, dfs=dfs)
        refs = [DVFSController(cfg, dfs=dfs) for _ in range(cores)]
        for core_powers, budget, force in cycles:
            if force is not None:
                core, mode = force
                bank.force_mode(core, mode)
                refs[core].force_mode(mode)
            v_before = list(bank.v_scale)
            changed = bank.tick(core_powers, budget)
            executes = [ref.tick(p, budget)
                        for ref, p in zip(refs, core_powers)]
            assert bank.execute == executes
            assert bank.v_scale == [ref.v_scale for ref in refs]
            assert bank.f_scale == [ref.f_scale for ref in refs]
            if bank.v_scale != v_before:
                assert changed
            for i, ref in enumerate(refs):
                assert bank.mode[i] == ref.mode
                assert bank.target_mode[i] == ref.target_mode
                assert bank.transitions[i] == ref.transitions
                assert bank.f_credit[i] == ref.f_credit
                assert bank.transition_left[i] == ref._transition_left
                assert bank.window_energy[i] == ref._window_energy
                assert bank.window_left == ref._window_left
            assert bank.moving == sum(
                ref._transition_left > 0 for ref in refs
            )

    def test_runs_reach_every_path(self):
        """Short windows and tight budgets, as the strategy draws them,
        start transitions down and back up and finish them."""
        cfg = DVFSConfig(window_cycles=3, transition_cycles_per_step=2)
        bank = DVFSBank(cfg, 2)
        seen_moving = False
        for cycle in range(48):
            budget = 20.0 if (cycle // 12) % 2 == 0 else INF
            bank.tick([100.0, 30.0], budget)
            seen_moving |= bank.moving > 0
        assert seen_moving
        assert bank.transitions[0] >= 2 and bank.mode[0] == 0


# -- throttles -------------------------------------------------------------

techniques = st.sampled_from(list(Technique))


@st.composite
def throttle_runs(draw):
    cores = draw(st.integers(1, 5))
    cycles = draw(st.lists(
        st.tuples(
            st.one_of(
                st.none(),  # every core NONE: the bank's release() path
                st.lists(techniques, min_size=cores, max_size=cores),
            ),
            # Cores an extension gates after the bank acted.
            st.lists(st.booleans(), min_size=cores, max_size=cores),
        ),
        min_size=1, max_size=60,
    ))
    return cores, draw(st.integers(1, 8)), cycles


class TestThrottleBankMatchesPerCoreThrottles:
    @settings(max_examples=150, deadline=None)
    @given(throttle_runs())
    def test_every_cycle(self, run):
        cores, full_width, cycles = run
        bank = ThrottleBank(cores, full_width)
        refs = [MicroarchThrottle() for _ in range(cores)]
        issue_techniques = (Technique.ISSUE_HALF, Technique.PIPELINE_GATE)
        for chosen, gated in cycles:
            if chosen is None:
                bank.release()
                chosen = [Technique.NONE] * cores
            else:
                bank.apply(list(chosen))
            for ref, t in zip(refs, chosen):
                ref.set(t)
                ref.tick()
            assert bank.fetch_allowed == [ref.fetch_allowed for ref in refs]
            assert bank.issue_width == [
                ref.issue_width(full_width)
                if ref.technique in issue_techniques else None
                for ref in refs
            ]
            assert bank.technique == [ref.technique for ref in refs]
            assert bank.engaged == sum(t != Technique.NONE for t in chosen)
            assert bank.engaged_cycles == [r.engaged_cycles for r in refs]
            assert bank.by_technique == [r.by_technique for r in refs]
            assert bank.phase == refs[0]._phase
            # The next cycle must overwrite these, whatever the bank did.
            for i, g in enumerate(gated):
                if g:
                    bank.fetch_allowed[i] = False
