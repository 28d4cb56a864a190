"""Microarchitectural power-saving techniques (the "second level").

The 2-level approach of Cebrián et al. [2] first applies DVFS to bring
average power near the budget, then engages fine-grained
microarchitectural techniques to shave the remaining power spikes.
Which technique fires depends on how far over the budget the core is —
deeper overshoot, more aggressive mechanism:

=====================  =============================================
overshoot (fraction)   technique
=====================  =============================================
<= 10%                 fetch throttling (fetch every other cycle)
<= 25%                 fetch gating (no fetch this cycle)
<= 50%                 fetch gating + issue-width halving
>  50%                 pipeline gating (no fetch, no issue)
=====================  =============================================

These all act within a single cycle (no transition latency), which is
what makes the second level accurate where DVFS is not.
"""

from __future__ import annotations

from enum import IntEnum


class Technique(IntEnum):
    """Second-level mechanisms, ordered by aggressiveness."""

    NONE = 0
    FETCH_LIGHT = 1      # skip fetch one cycle in four
    FETCH_THROTTLE = 2   # fetch on alternate cycles
    FETCH_GATE = 3       # no fetch
    ISSUE_HALF = 4       # no fetch + half issue width
    PIPELINE_GATE = 5    # no fetch, no issue (drain/commit only)


#: The techniques that narrow the issue width.  A module constant so the
#: controllers' per-core actuator loops don't rebuild the tuple every
#: cycle.
ISSUE_TECHNIQUES = (Technique.ISSUE_HALF, Technique.PIPELINE_GATE)

#: Overshoot thresholds (fractions over the local budget) selecting each
#: technique, scanned in order.
_THRESHOLDS = (
    (0.05, Technique.FETCH_LIGHT),
    (0.12, Technique.FETCH_THROTTLE),
    (0.25, Technique.FETCH_GATE),
    (0.50, Technique.ISSUE_HALF),
)


def select_technique(overshoot_fraction: float) -> Technique:
    """Choose the mechanism for a given relative overshoot.

    ``overshoot_fraction`` is ``(power - budget) / budget``; values <= 0
    need no mechanism.
    """
    if overshoot_fraction <= 0.0:
        return Technique.NONE
    for limit, tech in _THRESHOLDS:
        if overshoot_fraction <= limit:
            return tech
    return Technique.PIPELINE_GATE


class MicroarchThrottle:
    """Per-core actuator applying the selected technique each cycle."""

    __slots__ = ("technique", "_phase", "engaged_cycles", "by_technique")

    def __init__(self) -> None:
        self.technique = Technique.NONE
        self._phase = 0
        self.engaged_cycles = 0
        self.by_technique = [0] * (max(Technique) + 1)

    def set(self, technique: Technique) -> None:
        self.technique = technique

    def tick(self) -> None:
        """Advance internal state; call once per executed cycle."""
        self._phase = (self._phase + 1) & 3
        if self.technique != Technique.NONE:
            self.engaged_cycles += 1
            self.by_technique[self.technique] += 1

    def advance(self, cycles: int) -> None:
        """``cycles`` deferred ticks while the technique is ``NONE``."""
        self._phase = (self._phase + cycles) & 3

    @property
    def fetch_allowed(self) -> bool:
        t = self.technique
        if t == Technique.NONE:
            return True
        if t == Technique.FETCH_LIGHT:
            return self._phase != 0
        if t == Technique.FETCH_THROTTLE:
            return (self._phase & 1) == 0
        return False  # FETCH_GATE, ISSUE_HALF, PIPELINE_GATE

    def issue_width(self, full_width: int) -> int:
        t = self.technique
        if t == Technique.ISSUE_HALF:
            return max(1, full_width // 2)
        if t == Technique.PIPELINE_GATE:
            return 0
        return full_width
