"""Tests for the second-level microarchitectural throttles."""

import pytest

from repro.power.microarch import (
    Technique,
    ThrottleBank,
    select_technique,
)


class TestSelection:
    def test_no_overshoot_no_technique(self):
        assert select_technique(0.0) == Technique.NONE
        assert select_technique(-0.5) == Technique.NONE

    def test_tiny_overshoot_light_throttle(self):
        assert select_technique(0.03) == Technique.FETCH_LIGHT

    def test_moderate_overshoot_fetch_throttle(self):
        assert select_technique(0.10) == Technique.FETCH_THROTTLE

    def test_large_overshoot_fetch_gate(self):
        assert select_technique(0.20) == Technique.FETCH_GATE

    def test_severe_overshoot_issue_half(self):
        assert select_technique(0.40) == Technique.ISSUE_HALF

    def test_extreme_overshoot_pipeline_gate(self):
        assert select_technique(0.80) == Technique.PIPELINE_GATE

    def test_selection_monotonic(self):
        levels = [select_technique(x / 100) for x in range(0, 100, 2)]
        assert levels == sorted(levels)


def one_core(full_width=4):
    return ThrottleBank(1, full_width)


class TestThrottleActuation:
    def test_none_always_fetches(self):
        bank = one_core()
        allowed = []
        for _ in range(8):
            bank.release()
            allowed.append(bank.fetch_allowed[0])
        assert all(allowed)

    def test_fetch_light_skips_quarter(self):
        bank = one_core()
        allowed = []
        for _ in range(16):
            bank.apply([Technique.FETCH_LIGHT])
            allowed.append(bank.fetch_allowed[0])
        assert allowed.count(False) == 4

    def test_fetch_throttle_alternates(self):
        bank = one_core()
        allowed = []
        for _ in range(16):
            bank.apply([Technique.FETCH_THROTTLE])
            allowed.append(bank.fetch_allowed[0])
        assert allowed.count(True) == 8

    def test_fetch_gate_blocks_all(self):
        bank = one_core()
        for _ in range(8):
            bank.apply([Technique.FETCH_GATE])
            assert not bank.fetch_allowed[0]

    def test_issue_half_width(self):
        bank = one_core(full_width=4)
        bank.apply([Technique.ISSUE_HALF])
        assert bank.issue_width[0] == 2
        narrow = one_core(full_width=1)
        narrow.apply([Technique.ISSUE_HALF])
        assert narrow.issue_width[0] == 1  # never zero

    def test_pipeline_gate_zero_issue(self):
        bank = one_core()
        bank.apply([Technique.PIPELINE_GATE])
        assert bank.issue_width[0] == 0
        assert not bank.fetch_allowed[0]

    def test_full_width_when_not_issue_limited(self):
        bank = one_core()
        bank.apply([Technique.FETCH_GATE])
        assert bank.issue_width[0] is None  # None = full width

    def test_engagement_statistics(self):
        bank = one_core()
        for _ in range(5):
            bank.apply([Technique.FETCH_GATE])
        for _ in range(5):
            bank.release()
        assert bank.engaged_cycles[0] == 5
        assert bank.by_technique[0][Technique.FETCH_GATE] == 5


class TestBank:
    def test_release_restores_every_directive(self):
        fetch = [True, True, True]
        issue = [None, None, None]
        bank = ThrottleBank(3, 4, fetch, issue)
        bank.apply([Technique.NONE, Technique.ISSUE_HALF,
                    Technique.PIPELINE_GATE])
        assert bank.engaged == 2
        assert fetch == [True, False, False]
        assert issue == [None, 2, 0]
        fetch[0] = False  # an extension gating a core after the bank
        bank.release()
        assert bank.fetch_allowed is fetch and bank.issue_width is issue
        assert fetch == [True, True, True]
        assert issue == [None, None, None]
        assert bank.technique == [Technique.NONE] * 3
        assert bank.engaged == 0

    def test_one_duty_phase_for_every_core(self):
        bank = ThrottleBank(2, 4)
        seen = []
        for _ in range(4):
            bank.apply([Technique.FETCH_LIGHT, Technique.FETCH_THROTTLE])
            seen.append((bank.phase, tuple(bank.fetch_allowed)))
        assert seen == [
            (1, (True, False)), (2, (True, True)),
            (3, (True, False)), (0, (False, True)),
        ]

    @pytest.mark.parametrize("technique", list(Technique))
    def test_apply_counts_engaged_cores(self, technique):
        bank = ThrottleBank(4, 4)
        bank.apply([technique, Technique.NONE, technique, Technique.NONE])
        expected = 0 if technique == Technique.NONE else 2
        assert bank.engaged == expected
        assert sum(bank.engaged_cycles) == expected
