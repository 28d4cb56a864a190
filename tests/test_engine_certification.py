"""REPLAY certification: the miss-gate skips only windows that cannot pass.

``FastEngine._track`` feeds a spinning core's certification window one
stepped cycle at a time.  It takes no snapshot, and counts no failure,
on a cycle whose last spin load missed (``_spin_next > cycle + 2``: a
hit sets it to ``now + 2``, a miss to the load's completion).  A window
holding such a cycle cannot certify: either the L1D-miss counter moved
inside it, or ``_spin_next`` advanced by less than the period (DESIGN.md
section 10 has the argument).

These tests run the equivalence matrix (both programs, every technique
and policy, budgets 0.5 and 0.25) twice: on ``FastEngine`` and on a
subclass carrying the ``_track`` the engine had before the gate.  The
gate must leave every byte alone, must never have been the reason a
window failed, and must only drop attempts that were bound to fail.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import NamedTuple

import pytest

from repro.config import CMPConfig
from repro.sim.cmp import CMPSimulator
from repro.sim.engine import _CERT_FAIL_LIMIT, _CERT_PAUSE, FastEngine

from .test_engine_equivalence import (
    COMBOS,
    CORES,
    MAX_CYCLES,
    compute_heavy,
    spin_heavy,
)

PROGRAMS = {"spin_heavy": spin_heavy, "compute_heavy": compute_heavy}
BUDGETS = (0.5, 0.25)


class UngatedEngine(FastEngine):
    """``FastEngine`` with no miss-gate in ``_track``.

    Records the cycles the gate would skip, and for every certified
    window how many of them it holds.
    """

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.missed = set()
        self.certified = []

    def _track(self, st, i, core, cyc) -> None:
        # The gate-free ``_track``, plus the ``missed`` bookkeeping.
        if st.pause > cyc:
            return
        if core.predictor.history != self._hist_full:
            if st.win:
                del st.win[:]
            return
        if core._spin_next > cyc + 2:
            self.missed.add((i, cyc))
        win = st.win
        if win and win[-1][0] != cyc - 1:
            del win[:]
        win.append((cyc, self._snapshot(i, core)))
        if len(win) > 5:
            del win[0]
        nwin = len(win)
        if nwin >= 3 and self._certify(i, win[-3][1], win[-1][1], 2):
            self._enter_replay(st, i, core, 2, cyc)
        elif nwin == 5 and self._certify(i, win[0][1], win[4][1], 4):
            self._enter_replay(st, i, core, 4, cyc)
        elif nwin >= 3:
            self.stats["cert_failures"] += 1
            st.fail += 1
            if st.fail >= _CERT_FAIL_LIMIT:
                st.pause = cyc + _CERT_PAUSE
                st.fail = 0
                del win[:]

    def _enter_replay(self, st, i, core, period, cyc) -> None:
        window = [c for c, _ in st.win[-(period + 1):]]
        self.certified.append(sum((i, c) in self.missed for c in window))
        super()._enter_replay(st, i, core, period, cyc)

    def _exit_replay(self, st, i, cyc) -> None:
        super()._exit_replay(st, i, cyc)
        assert all(type(e) is tuple for e in self.cores[i].rob)


class Case(NamedTuple):
    """One matrix cell run with and without the gate."""

    name: tuple
    gated_hash: str
    gated: dict
    ungated_hash: str
    ungated: dict
    #: Per window the ungated engine certified: gated cycles it holds.
    certified: list
    #: Cycles the gate would have skipped in the ungated run.
    missed: int


def _run(engine_cls, make_program, technique, policy, budget):
    sim = CMPSimulator(
        CMPConfig(num_cores=CORES).with_engine("fast"),
        make_program(CORES),
        technique=technique,
        budget_fraction=budget,
        ptb_policy=policy,
    )
    engine = engine_cls(sim)
    result = engine.run(MAX_CYCLES)
    assert result.completed
    digest = hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()
    return digest, engine


@pytest.fixture(scope="module")
def matrix():
    """Per program: one :class:`Case` per combo and budget."""
    cases = {}
    for name, make_program in PROGRAMS.items():
        cases[name] = []
        for technique, policy in COMBOS:
            for budget in BUDGETS:
                args = (make_program, technique, policy, budget)
                gated_hash, gated = _run(FastEngine, *args)
                ungated_hash, ungated = _run(UngatedEngine, *args)
                cases[name].append(Case(
                    (technique, policy, budget), gated_hash, gated.stats,
                    ungated_hash, ungated.stats, ungated.certified,
                    len(ungated.missed),
                ))
    return cases


def _total(cases, side, key):
    return sum(getattr(case, side)[key] for case in cases)


@pytest.mark.parametrize("program", PROGRAMS)
def test_no_certified_window_holds_a_missed_spin_load(matrix, program):
    """Without the gate, every window that certified was free of the
    cycles the gate skips, so the gate cannot block an entry."""
    cases = matrix[program]
    certified = [n for case in cases for n in case.certified]
    assert len(certified) == _total(cases, "ungated", "replay_entries") > 0
    assert sum(case.missed for case in cases) > 0
    assert [n for n in certified if n] == []


@pytest.mark.parametrize("program", PROGRAMS)
def test_gate_keeps_every_byte_and_drops_only_failures(matrix, program):
    cases = matrix[program]
    for case in cases:
        assert case.gated_hash == case.ungated_hash, case.name
    assert (_total(cases, "gated", "cert_failures")
            < _total(cases, "ungated", "cert_failures"))


@pytest.mark.parametrize("program", PROGRAMS)
def test_gate_keeps_the_fast_forwarded_cycles(matrix, program):
    """SKIP is untouched.  REPLAY may start a little earlier or later:
    gated cycles no longer count towards the certification pause."""
    cases = matrix[program]
    for case in cases:
        assert (case.gated["skip_cycles"]
                == case.ungated["skip_cycles"]), case.name
    gated_replay = _total(cases, "gated", "replay_cycles")
    ungated_replay = _total(cases, "ungated", "replay_cycles")
    assert ungated_replay > 0
    assert abs(gated_replay - ungated_replay) <= 0.02 * ungated_replay
