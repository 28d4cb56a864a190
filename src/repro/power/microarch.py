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
from typing import List, Optional


class Technique(IntEnum):
    """Second-level mechanisms, ordered by aggressiveness."""

    NONE = 0
    FETCH_LIGHT = 1      # skip fetch one cycle in four
    FETCH_THROTTLE = 2   # fetch on alternate cycles
    FETCH_GATE = 3       # no fetch
    ISSUE_HALF = 4       # no fetch + half issue width
    PIPELINE_GATE = 5    # no fetch, no issue (drain/commit only)


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


#: Fetch permission per duty phase (0-3), indexed by technique: light
#: throttling skips phase 0, throttling fetches on even phases, gating
#: and the harsher techniques never fetch.
_FETCH = tuple(
    (True, phase != 0, (phase & 1) == 0, False, False, False)
    for phase in range(4)
)


class ThrottleBank:
    """Per-core actuators applying each core's technique every cycle.

    Struct of arrays: one list per per-core field.  Every core's
    actuator ticks once per cycle, so one duty ``phase`` (0-3) serves
    them all.  ``fetch_allowed`` and ``issue_width`` are the
    controller's directive lists, written in place (``None`` = full
    issue width).
    """

    __slots__ = (
        "num_cores", "technique", "phase", "engaged", "engaged_cycles",
        "by_technique", "fetch_allowed", "issue_width",
        "_issue", "_none", "_open", "_full", "_telemetry",
    )

    def __init__(
        self,
        num_cores: int,
        full_width: int,
        fetch_allowed: Optional[List[bool]] = None,
        issue_width: Optional[List[Optional[int]]] = None,
    ) -> None:
        n = num_cores
        self.num_cores = n
        self.technique: List[int] = [Technique.NONE] * n
        self.phase = 0
        #: Cores whose technique is not NONE.
        self.engaged = 0
        self.engaged_cycles = [0] * n
        self.by_technique = [[0] * (max(Technique) + 1) for _ in range(n)]
        self.fetch_allowed = (
            fetch_allowed if fetch_allowed is not None else [True] * n
        )
        self.issue_width = (
            issue_width if issue_width is not None else [None] * n
        )
        #: Issue-width directive per technique.
        self._issue = (None, None, None, None, max(1, full_width // 2), 0)
        self._none = [Technique.NONE] * n
        self._open = [True] * n
        self._full = [None] * n
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    def release(self) -> None:
        """One cycle with every core's technique ``NONE``."""
        self.phase = (self.phase + 1) & 3
        if self.engaged:
            self.technique[:] = self._none
            self.issue_width[:] = self._full
            self.engaged = 0
        self.fetch_allowed[:] = self._open
        telemetry = self._telemetry
        if telemetry is not None:
            for i in range(self.num_cores):
                telemetry.on_throttle(i, 0)

    def apply(self, techniques: List[int]) -> None:
        """One cycle with core ``i`` under ``techniques[i]``.

        The bank keeps the list as its ``technique`` array.
        """
        self.phase = phase = (self.phase + 1) & 3
        fetch = _FETCH[phase]
        issue = self._issue
        fetch_allowed = self.fetch_allowed
        issue_width = self.issue_width
        engaged = 0
        for i, t in enumerate(techniques):
            if t:
                engaged += 1
                self.engaged_cycles[i] += 1
                self.by_technique[i][t] += 1
            fetch_allowed[i] = fetch[t]
            issue_width[i] = issue[t]
        self.technique = techniques
        self.engaged = engaged
        telemetry = self._telemetry
        if telemetry is not None:
            for i, t in enumerate(techniques):
                telemetry.on_throttle(i, int(t))
