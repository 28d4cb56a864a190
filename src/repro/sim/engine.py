"""The cycle loop: SoA accounting plane + idle/spin fast-forward.

:class:`FastEngine` runs every :meth:`repro.sim.cmp.CMPSimulator.run`.
With fast-forward off it is the plain lock-step loop: every core steps
every cycle, a finished one through ``Core.idle_cycle``.  With
fast-forward on it skips the per-cycle work on cores that cannot change
architectural state, and its ``SimResult`` pickles stay byte-identical
(every float is accumulated in the same IEEE order, every counter
follows the same sequence of integer updates).  The hashes recorded in
tests/test_sim_regression.py and bench/golden.json pin those bytes.

Fast-forward is on when the engine setting resolves to ``"fast"`` and
telemetry is off.  Telemetry samples every core's phase and ROB
occupancy each cycle, so a traced run steps every core-cycle.
Sanitizer checks fire on component events (commits, coherence misses,
mesh injections, balancer distributions), and a frozen span raises
none, so sanitized runs fast-forward.

Per core the engine runs a four-mode state machine:

* ``REAL`` — delegate to ``Core.step``/``Core.idle_cycle``.  With
  fast-forward on, after every real cycle the engine classifies the
  core's next-cycle behaviour and may promote it to a cheaper mode.
* ``DONE`` — the thread finished.  A post-completion idle cycle mutates
  nothing observable (empty ROB, zero token residency), so the engine
  charges the cached gated-cycle power until voltage or temperature
  change; with fast-forward off it still calls ``Core.idle_cycle``.
* ``SKIP`` — timed quiescence: the core provably freezes until a known
  wake-up cycle (draining a long-latency ROB head, a fetch-redirect
  stall, a full ROB, or a spin loop gated by ``_spin_next``).  Each
  skipped cycle charges the frozen cycle's power and bumps the frozen
  per-cycle counters; the deferred integer side effects
  (``executed_cycles``, ``mem_stall_cycles``, token residency) are
  restored in closed form at exit.  Lock/barrier hand-offs are polled
  every skipped cycle — the one dict probe a stepped core's own poll
  would perform — so a grant or release wakes the core on exactly the
  cycle a stepped run would.
* ``REPLAY`` — certified periodic spinning.  While a spinner's
  microarchitectural state (ROB contents, FU pool, gshare row, PTHT
  rows, events vector) repeats with period 2 or 4, the engine stops
  stepping the core and replays the certified per-phase power vector.
  Any invalidation of the watched spin line (``Directory.watch_lines``)
  bumps the core's disturb epoch and forces an exit *before* the poll
  could observe the change; the certificate refuses entry while a grant
  or release is already pending.  At exit the full state is
  reconstructed by shifting the certified snapshots forward in time.

The budget controller's ``end_cycle`` runs every cycle (its own steady
path keeps that cheap), and the engine only skips hooks a controller
does not override.  Cached per-core powers are re-read when the
controller's ``v_epoch`` moves or the thermal model steps.  See
DESIGN.md section 10 for the legality arguments.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional

from ..budget.controller import BudgetController
from ..core.pipeline import (
    _ACQ_SPIN,
    _BAR_SPIN,
    _COMPLETE,
    _NO_SYNC,
    _SPIN_PC,
    Core,
)
from ..power.model import CycleEvents, EnergyModel
from ..sync.primitives import SyncDomain

if TYPE_CHECKING:
    from .cmp import CMPSimulator

__all__ = ["FastEngine", "engine_default", "resolve_engine"]

#: Engine names accepted by :func:`resolve_engine` (besides ``auto``).
ENGINES = ("reference", "fast")

#: Environment variable consulted when ``cfg.engine == "auto"``.
ENGINE_ENV = "REPRO_ENGINE"


def engine_default() -> str:
    """Engine used for ``auto``: the ``REPRO_ENGINE`` env var or reference."""
    # Literal name (= ENGINE_ENV) so the purity pass can resolve the read.
    return os.environ.get("REPRO_ENGINE", "reference")


def resolve_engine(setting: Optional[str]) -> str:
    """Resolve an engine setting (``None``/``auto`` -> environment default)."""
    engine = engine_default() if setting is None or setting == "auto" else setting
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES} (or 'auto'), got {engine!r}"
        )
    return engine


# Core modes.
_REAL, _DONE, _SKIP, _REPLAY = range(4)

#: Sentinel wake-up beyond any reachable cycle count.
_FAR = 1 << 62

#: Minimum number of frozen cycles worth entering SKIP for.
_MIN_SKIP = 2

#: Consecutive certification failures before pausing the attempts, and
#: the pause length (cycles).  Bounds snapshot overhead on aperiodic
#: spins (e.g. a spin whose ROB still holds a long-latency program load).
_CERT_FAIL_LIMIT = 48
_CERT_PAUSE = 384

# Snapshot tuple layout (see FastEngine._snapshot).
(
    _S_ROB, _S_IA, _S_OTHER, _S_SN, _S_LC, _S_FSU, _S_IM, _S_HIST,
    _S_BYTE, _S_PTHT, _S_CNT, _S_SIG, _S_EPOCH, _S_LRU, _S_CONS,
    _S_PRED, _S_EV,
) = range(17)

# Indices into the counter vector (_S_CNT) whose per-period delta must
# be zero for a replay certificate (no misses: the spin loop must be a
# pure L1 hit pattern).
_CI_L1D_MISSES = 11
_CI_L2_HITS = 14
_CI_L2_MISSES = 15


class _CoreState:
    """Per-core fast-forward state (struct-of-scalars, one per core)."""

    __slots__ = (
        "mode",
        # SKIP bookkeeping.
        "start", "wake", "occ", "stall_flag", "phase_idx", "spin_flag",
        "poll_lock", "poll_bar", "poll_gen", "poll_wake",
        # Cached frozen/gated cycle power, keyed by (v_scale, temp).
        # ``pe`` short-circuits the key check: it tracks the engine's
        # power-epoch counter, bumped only when v_scale or temps could
        # have changed (real end_cycle / thermal step).
        "p", "p_v", "p_t", "pe",
        # Replay certification window.
        "win", "fail", "pause",
        # Replay playback state.
        "period", "rs", "base_cycle", "bases", "deltas", "im_delta",
        "epoch_ref", "pvec", "pv_v", "pv_t", "pv_pe",
    )

    def __init__(self) -> None:
        self.mode = _REAL
        self.start = 0
        self.wake = 0
        self.occ = 0
        self.stall_flag = False
        self.phase_idx = 0
        self.spin_flag = False
        self.poll_lock = None
        self.poll_bar = None
        self.poll_gen = -1
        self.poll_wake = None
        self.p = 0.0
        self.p_v = None
        self.p_t = None
        self.pe = -1
        self.win: list = []
        self.fail = 0
        self.pause = 0
        self.period = 0
        self.rs = 0
        self.base_cycle = 0
        self.bases = ()
        self.deltas = ()
        self.im_delta = 0
        self.epoch_ref = 0
        self.pvec: list = []
        self.pv_v = None
        self.pv_t = None
        self.pv_pe = -1


class FastEngine:
    """The cycle loop of one :class:`repro.sim.cmp.CMPSimulator` run."""

    def __init__(self, sim: CMPSimulator) -> None:
        self.sim = sim
        cfg = sim.cfg
        n = cfg.num_cores
        # Annotated so simcheck's purity walk follows the loop into the
        # components it steps.
        self.cores: List[Core] = sim.cores
        self.sync: SyncDomain = sim.sync_domain
        self.energy: EnergyModel = sim.energy
        self.mesh = sim.mesh
        hierarchy = sim.hierarchy
        self.l1d = hierarchy.l1d
        self.directory = hierarchy.directory
        self.epochs = self.directory.disturb_epochs
        self._offset_bits = cfg.mem.l1d.offset_bits
        self._scratch = CycleEvents()
        #: Gshare row index component of the spin branch (PC part; the
        #: history part is XORed in per snapshot).
        self._spin_idx = (_SPIN_PC + 8) >> 2
        #: Steady spin saturates the gshare history to all-ones (every
        #: iteration is a taken branch); until then each iteration writes
        #: a different table row, so certification cannot succeed and
        #: snapshotting would be wasted work.
        self._hist_full = self.cores[0].predictor._hist_mask
        ptht_mask = self.cores[0].accountant.ptht._mask
        self._ptht_idxs = tuple(
            (pc >> 2) & ptht_mask
            for pc in (_SPIN_PC, _SPIN_PC + 4, _SPIN_PC + 8)
        )
        # Fixed-order (object, attribute) list of every integer counter a
        # replayed spin cycle would have advanced; restored in closed
        # form at replay exit.
        refs = []
        for i in range(n):
            core = self.cores[i]
            acc = core.accountant
            ptht = acc.ptht
            pred = core.predictor
            l1d = hierarchy.l1d[i]
            l2 = hierarchy.l2[i]
            refs.append((
                (core, "committed"), (core, "executed_cycles"),
                (core, "spin_iterations"), (core, "mem_stall_cycles"),
                (acc, "total_consumed"),
                (ptht, "hits"), (ptht, "misses"), (ptht, "updates"),
                (pred, "lookups"), (pred, "mispredictions"),
                (l1d, "hits"), (l1d, "misses"), (l1d, "_tick"),
                (core.fus, "structural_stalls"),
                (l2, "hits"), (l2, "misses"),
            ))
        self._counter_refs = refs
        self.states = [_CoreState() for _ in range(n)]
        #: Cold-path diagnostics (all bumped at mode entry/exit, never in
        #: the per-cycle hot loop): how much work each layer absorbed.
        #: ``controller_fallbacks`` is the run's count of the controller's
        #: ``unsteady_cycles``, cycles its ``end_cycle`` left its steady
        #: path.
        self.stats = {
            "skip_entries": 0, "skip_cycles": 0,
            "replay_entries": 0, "replay_cycles": 0,
            "cert_failures": 0, "controller_fallbacks": 0,
        }

    # ------------------------------------------------------------------ #
    # SKIP: timed quiescence                                             #
    # ------------------------------------------------------------------ #

    def _classify(self, st: _CoreState, i: int, core, cyc: int) -> None:
        """Decide whether the core is frozen until a known wake cycle.

        A cycle is *frozen* when ``Core.step`` would mutate nothing but
        the repeat-per-cycle bookkeeping (events vector, ``executed_cycles``,
        ``mem_stall_cycles``, token residency): no commit (ROB head not
        complete), no fetch (stalled / blocked / ROB full) and no spin
        iteration (``_spin_next`` gate).  ``wake`` is the first cycle
        any of those gates can open.
        """
        sync = core._sync_state
        nxt = cyc + 1
        rob = core.rob
        poll_lock = None
        poll_bar = None
        if sync == _NO_SYNC:
            if len(rob) >= core.rob_entries:
                # ROB full: _fetch bails out before any side effect.
                wake = rob[0][_COMPLETE]
            else:
                fsu = core._fetch_stall_until
                if fsu <= nxt:
                    return
                wake = fsu
                if rob:
                    head = rob[0][_COMPLETE]
                    if head < wake:
                        wake = head
        elif core.is_spinning:
            head = rob[0][_COMPLETE] if rob else _FAR
            spin = (
                core._spin_next
                if len(rob) < core.rob_entries - 3
                else _FAR
            )
            wake = head if head < spin else spin
            if wake >= _FAR:
                return
            if sync == _ACQ_SPIN:
                poll_lock = self.sync.lock(core._sync_obj)
            else:
                poll_bar = self.sync.barrier(core._sync_obj)
        else:
            # Sync instruction in flight (ACQ_WAIT/ACQ_RETRY/REL_WAIT/
            # BAR_WAIT/BAR_FLIP): nothing happens before the ROB head
            # commits, and fetch is gated on state NONE.
            if not rob:
                return
            wake = rob[0][_COMPLETE]
        if wake < nxt + _MIN_SKIP:
            return
        self.stats["skip_entries"] += 1
        st.mode = _SKIP
        st.start = nxt
        st.wake = wake
        occ = len(rob)
        st.occ = occ
        st.stall_flag = occ > 0 and occ >= core.rob_entries - core.decode_width
        st.phase_idx = int(core.sync_phase)
        st.spin_flag = poll_lock is not None or poll_bar is not None
        st.poll_lock = poll_lock
        st.poll_bar = poll_bar
        if poll_bar is not None:
            st.poll_gen = core._bar_generation
            st.poll_wake = None
        st.p_v = None
        st.pe = -1

    def _exit_skip(self, st: _CoreState, i: int, cyc: int) -> None:
        """Restore the deferred side effects of the skipped cycles."""
        k = cyc - st.start
        st.mode = _REAL
        st.poll_lock = None
        st.poll_bar = None
        if k <= 0:
            return
        self.stats["skip_cycles"] += k
        self._phase_cycles[i][st.phase_idx] += k
        core = self.cores[i]
        core.executed_cycles += k
        if st.stall_flag:
            core.mem_stall_cycles += k
        acc = core.accountant
        occ = st.occ
        acc.total_consumed += occ * k
        acc.consumed = occ
        acc.predicted = 0

    # ------------------------------------------------------------------ #
    # REPLAY: certified periodic spin                                     #
    # ------------------------------------------------------------------ #

    def _spin_line(self, core) -> int:
        if core._sync_state == _ACQ_SPIN:
            addr = self.sync.lock(core._sync_obj).addr
        else:
            addr = self.sync.barrier(core._sync_obj).sense_addr
        return addr >> self._offset_bits

    def _snapshot(self, i: int, core):
        """Capture everything a spin cycle can touch, as one tuple."""
        acc = core.accountant
        ptht = acc.ptht
        pred = core.predictor
        pools = core.fus._pools
        sig = (
            core._sync_state, core._sync_obj,
            core._bar_generation, int(core.sync_phase),
        )
        line = self._spin_line(core)
        lru = self.l1d[i].slot_of(line)
        hist = pred.history
        ptags = ptht._tags
        pcosts = ptht._costs
        i0, i1, i2 = self._ptht_idxs
        ev = core.events
        return (
            tuple(tuple(e) for e in core.rob),
            tuple(pools["int_alu"]),
            (
                tuple(pools["int_mult"]),
                tuple(pools["fp_alu"]),
                tuple(pools["fp_mult"]),
            ),
            core._spin_next,
            core._last_complete,
            core._fetch_stall_until,
            core._inflight_mem,
            hist,
            pred._table[(self._spin_idx ^ hist) & pred._mask],
            (ptags[i0], pcosts[i0], ptags[i1], pcosts[i1],
             ptags[i2], pcosts[i2]),
            tuple(getattr(o, a) for o, a in self._counter_refs[i]),
            sig,
            self.epochs[i],
            lru,
            acc.consumed,
            acc.predicted,
            (ev.fetched_energy, ev.completed_energy, ev.committed_energy,
             ev.n_fetched, ev.n_branches, ev.l2_accesses, ev.mem_accesses,
             ev.flit_hops, ev.invalidations, ev.rob_occupancy, ev.active),
        )

    def _certify(self, i: int, A, C, period: int) -> bool:
        """Is the spin provably periodic between snapshots A and C?

        A and C are ``period`` cycles apart.  Time-anchored state must
        be shifted by exactly ``period``; everything else must be equal;
        the pattern must be a pure L1-hit loop; and no hand-off may
        already be pending (a pending grant/release flips behaviour at a
        known future cycle with no further invalidation to signal it).
        """
        sig = A[_S_SIG]
        if sig != C[_S_SIG]:
            return False
        state = sig[0]
        if state != _ACQ_SPIN and state != _BAR_SPIN:
            return False
        if A[_S_EPOCH] != C[_S_EPOCH] or C[_S_EPOCH] != self.epochs[i]:
            return False
        if A[_S_FSU] != C[_S_FSU]:
            return False
        # _inflight_mem is NOT required equal: a spin LOAD is flagged
        # _F_MEM but _spin_fetch never increments the counter, so every
        # committed spin iteration drifts it down by one.  The drift is
        # exactly periodic (same ROB pattern -> same commits per period),
        # the counter is only *read* by the LSQ gate in _fetch, which a
        # spinning core never reaches, so it replays as a linear counter.
        if A[_S_HIST] != C[_S_HIST] or A[_S_BYTE] != C[_S_BYTE]:
            return False
        if A[_S_PTHT] != C[_S_PTHT]:
            return False
        if A[_S_OTHER] != C[_S_OTHER]:
            return False
        if C[_S_SN] - A[_S_SN] != period:
            return False
        if C[_S_LC] - A[_S_LC] != period:
            return False
        rob_a = A[_S_ROB]
        rob_c = C[_S_ROB]
        if len(rob_a) != len(rob_c):
            return False
        for ea, ec in zip(rob_a, rob_c):
            if (
                ea[0] != ec[0] or ea[1] != ec[1] or ea[2] != ec[2]
                or ea[3] != ec[3] or ea[6] != ec[6]
                or ec[4] - ea[4] != period or ec[5] - ea[5] != period
            ):
                return False
        for ua, uc in zip(A[_S_IA], C[_S_IA]):
            if uc - ua != period:
                return False
        cnt_a = A[_S_CNT]
        cnt_c = C[_S_CNT]
        if (
            cnt_c[_CI_L1D_MISSES] != cnt_a[_CI_L1D_MISSES]
            or cnt_c[_CI_L2_HITS] != cnt_a[_CI_L2_HITS]
            or cnt_c[_CI_L2_MISSES] != cnt_a[_CI_L2_MISSES]
        ):
            return False
        if A[_S_CONS] != C[_S_CONS] or A[_S_PRED] != C[_S_PRED]:
            return False
        if A[_S_EV] != C[_S_EV]:
            return False
        lru = A[_S_LRU]
        if lru is None or lru != C[_S_LRU]:
            return False
        # No pending hand-off: entry is only legal while the next flip
        # can still be signalled by a watched-line invalidation.
        if state == _ACQ_SPIN:
            if self.sync.lock(sig[1]).grant_at.get(i) is not None:
                return False
        else:
            if self.sync.barrier(sig[1]).release.get(sig[2]) is not None:
                return False
        return True

    def _track(self, st: _CoreState, i: int, core, cyc: int) -> None:
        """Feed the certification window with one real spin cycle."""
        if st.pause > cyc:
            return
        if core.predictor.history != self._hist_full:
            if st.win:
                del st.win[:]
            return
        win = st.win
        if win and win[-1][0] != cyc - 1:
            del win[:]
        win.append((cyc, self._snapshot(i, core)))
        if len(win) > 5:
            del win[0]
        nwin = len(win)
        # The int_alu earliest-free scan alternates between two unit
        # triples, so the full microarchitectural period is either one
        # spin gate (2 cycles) or two (4 cycles).
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

    def _enter_replay(
        self, st: _CoreState, i: int, core, period: int, cyc: int
    ) -> None:
        win = st.win
        bases = win[-(period + 1):]
        st.base_cycle = bases[0][0]
        st.bases = tuple(b[1] for b in bases)
        first = st.bases[0][_S_CNT]
        last = st.bases[period][_S_CNT]
        st.deltas = tuple(c - a for a, c in zip(first, last))
        st.im_delta = st.bases[period][_S_IM] - st.bases[0][_S_IM]
        st.period = period
        st.rs = cyc + 1
        st.epoch_ref = self.epochs[i]
        st.phase_idx = int(core.sync_phase)
        # Per-cycle hand-off poll, same as SKIP: a lock release sets
        # grant_at at *commit* time, several cycles after the releasing
        # store's inject-time invalidation already bumped our epoch — a
        # spinner that re-certified inside that gap would never see
        # another invalidation, so the grant itself must be polled.
        if core._sync_state == _ACQ_SPIN:
            st.poll_lock = self.sync.lock(core._sync_obj)
            st.poll_bar = None
        else:
            st.poll_lock = None
            st.poll_bar = self.sync.barrier(core._sync_obj)
            st.poll_gen = core._bar_generation
            st.poll_wake = None
        self.directory.watch_lines[i] = self._spin_line(core)
        st.pv_v = None
        st.pv_pe = -1
        st.mode = _REPLAY
        st.fail = 0
        del win[:]
        self.stats["replay_entries"] += 1

    def _build_pvec(self, st: _CoreState, v: float, t: float) -> None:
        """Per-phase replay powers at the current (v_scale, temp)."""
        cycle_power = self.energy.cycle_power
        sc = self._scratch
        pvec = []
        for base in st.bases[1:]:
            (sc.fetched_energy, sc.completed_energy, sc.committed_energy,
             sc.n_fetched, sc.n_branches, sc.l2_accesses, sc.mem_accesses,
             sc.flit_hops, sc.invalidations, sc.rob_occupancy,
             sc.active) = base[_S_EV]
            pvec.append(cycle_power(sc, v, t))
        st.pvec = pvec
        st.pv_v = v
        st.pv_t = t

    def _exit_replay(self, st: _CoreState, i: int, cyc: int) -> None:
        """Reconstruct the core as if every replayed cycle was stepped.

        The state after cycle ``cyc - 1`` equals the certified snapshot
        of the matching phase shifted forward by a whole number of
        periods: time-anchored values shift by ``delta`` cycles, event
        counters advance by ``rounds`` per-period deltas.
        """
        core = self.cores[i]
        self.stats["replay_cycles"] += cyc - st.rs
        self._phase_cycles[i][st.phase_idx] += cyc - st.rs
        period = st.period
        a = st.base_cycle
        j = ((cyc - 1 - a - 1) % period) + 1
        delta = (cyc - 1) - (a + j)
        rounds = delta // period
        S = st.bases[j]

        rob = core.rob
        rob.clear()
        for e in S[_S_ROB]:
            rob.append([e[0], e[1], e[2], e[3], e[4] + delta,
                        e[5] + delta, e[6]])
        pool = core.fus._pools["int_alu"]
        for k, unit in enumerate(S[_S_IA]):
            pool[k] = unit + delta
        # Other FU pools: certified equal across the period and never
        # touched by the spin loop — already correct.
        core._spin_next = S[_S_SN] + delta
        core._last_complete = S[_S_LC] + delta
        core._fetch_stall_until = S[_S_FSU]
        core._inflight_mem = S[_S_IM] + rounds * st.im_delta
        pred = core.predictor
        hist = S[_S_HIST]
        pred.history = hist
        pred._table[(self._spin_idx ^ hist) & pred._mask] = S[_S_BYTE]
        acc = core.accountant
        ptht = acc.ptht
        i0, i1, i2 = self._ptht_idxs
        p3 = S[_S_PTHT]
        ptags = ptht._tags
        pcosts = ptht._costs
        ptags[i0] = p3[0]
        pcosts[i0] = p3[1]
        ptags[i1] = p3[2]
        pcosts[i1] = p3[3]
        ptags[i2] = p3[4]
        pcosts[i2] = p3[5]
        for (obj, attr), base, d in zip(
            self._counter_refs[i], S[_S_CNT], st.deltas
        ):
            setattr(obj, attr, base + rounds * d)
        # During a pure hit-spin every L1D probe is the spin line's, so
        # its LRU stamp always equals the (just restored) global tick.
        self.l1d[i].restamp(S[_S_LRU])
        acc.consumed = S[_S_CONS]
        acc.predicted = S[_S_PRED]
        st.mode = _REAL
        st.poll_lock = None
        st.poll_bar = None
        self.directory.watch_lines[i] = -1

    # ------------------------------------------------------------------ #
    # the run loop                                                        #
    # ------------------------------------------------------------------ #

    def run(self, max_cycles: int):
        """Run to completion (or ``max_cycles``); see the module docstring."""
        sim = self.sim
        cfg = sim.cfg
        n = cfg.num_cores
        cores = self.cores
        states = self.states
        controller = sim.controller
        energy = self.energy
        thermal = sim.thermal
        budget = sim.global_budget
        sync_domain = self.sync
        epochs = self.epochs
        mesh_hops = self.mesh.hop_count
        mesh_lat = self.mesh.traversal_latency

        execute = controller.execute
        fetch_allowed = controller.fetch_allowed
        issue_width = controller.issue_width
        v_scale = controller.v_scale
        budget_lines = controller.budget_lines
        unctrl = energy.uncontrollable_power
        inv_token_unit = 1.0 / energy.token_unit

        powers = [0.0] * n
        smoothed = [0.0] * n
        alpha = cfg.power.sensor_alpha
        beta = 1.0 - alpha
        tokens = [0] * n
        phase_cycles = [[0, 0, 0, 0] for _ in range(n)]
        # SKIP/REPLAY exits credit whole phase-count spans at once.
        self._phase_cycles = phase_cycles
        spin_energy = 0.0
        total_energy = 0.0
        aopb = 0.0
        aopb_global = 0.0
        max_power = 0.0

        trace: Optional[list] = [] if sim.collect_traces else None
        core_traces: Optional[list] = [] if sim.collect_traces else None

        cycle_power = energy.cycle_power
        temps = thermal.temps
        scratch = self._scratch
        tacc = thermal._energy_acc
        t_interval = thermal.interval
        # Hooks the controller does not override are no-ops: skip them.
        ctype = type(controller)
        begin_cycle = (
            controller.begin_cycle
            if ctype.begin_cycle is not BudgetController.begin_cycle
            else None
        )
        end_cycle = (
            controller.end_cycle
            if ctype.end_cycle is not BudgetController.end_cycle
            else None
        )
        v_epoch = controller.v_epoch
        unsteady_at_start = controller.unsteady_cycles
        sanitizers = sim.sanitizers
        telemetry = sim.telemetry
        # Fast-forward: off on the reference engine, and on traced runs,
        # whose per-cycle sample reads every core's phase and ROB.
        ff = resolve_engine(cfg.engine) == "fast" and telemetry is None

        done_total = 0
        for i in range(n):
            if cores[i].done:
                states[i].mode = _DONE
                states[i].p_v = None
                states[i].pe = -1
                done_total += 1

        # Power epoch: bumped whenever v_scale or temps may have changed
        # (the controller's v_epoch moved, or the thermal model stepped).
        # While it is unchanged every cached per-cycle power stays valid
        # without re-reading v/t.
        pe = 0

        cycle = 0
        while cycle < max_cycles and done_total < n:
            if sanitizers is not None:
                sanitizers.on_cycle(cycle)
            if telemetry is not None:
                telemetry.begin_cycle(cycle)
            if begin_cycle is not None:
                begin_cycle(cycle)
            total = 0.0
            for i in range(n):
                st = states[i]
                m = st.mode
                if m == _SKIP:
                    leave = cycle >= st.wake or not execute[i]
                    if not leave:
                        pl = st.poll_lock
                        if pl is not None:
                            at = pl.grant_at.get(i)
                            if at is not None and cycle >= at:
                                leave = True
                        elif st.poll_bar is not None:
                            rel = st.poll_bar.release.get(st.poll_gen)
                            if rel is not None:
                                wk = st.poll_wake
                                if wk is None:
                                    wk = rel[0] + mesh_lat(
                                        max(1, mesh_hops(rel[1], i))
                                    )
                                    st.poll_wake = wk
                                if cycle >= wk:
                                    leave = True
                    if leave:
                        self._exit_skip(st, i, cycle)
                        m = _REAL
                    else:
                        if st.pe != pe:
                            st.pe = pe
                            v = v_scale[i]
                            t = temps[i]
                            if st.p_v != v or st.p_t != t:
                                scratch.reset()
                                scratch.rob_occupancy = st.occ
                                st.p = cycle_power(scratch, v, t)
                                st.p_v = v
                                st.p_t = t
                        p = st.p
                        if st.spin_flag:
                            spin_energy += p
                elif m == _REPLAY:
                    leave = (
                        epochs[i] != st.epoch_ref
                        or not execute[i]
                        or not fetch_allowed[i]
                    )
                    if not leave:
                        pl = st.poll_lock
                        if pl is not None:
                            at = pl.grant_at.get(i)
                            if at is not None and cycle >= at:
                                leave = True
                        else:
                            rel = st.poll_bar.release.get(st.poll_gen)
                            if rel is not None:
                                wk = st.poll_wake
                                if wk is None:
                                    wk = rel[0] + mesh_lat(
                                        max(1, mesh_hops(rel[1], i))
                                    )
                                    st.poll_wake = wk
                                if cycle >= wk:
                                    leave = True
                    if leave:
                        self._exit_replay(st, i, cycle)
                        m = _REAL
                    else:
                        if st.pv_pe != pe:
                            st.pv_pe = pe
                            v = v_scale[i]
                            t = temps[i]
                            if st.pv_v != v or st.pv_t != t:
                                self._build_pvec(st, v, t)
                        p = st.pvec[(cycle - st.rs) % st.period]
                        spin_energy += p
                if m == _REAL:
                    core = cores[i]
                    if execute[i]:
                        core.step(cycle, fetch_allowed[i], issue_width[i])
                    else:
                        core.idle_cycle(cycle)
                    p = cycle_power(core.events, v_scale[i], temps[i])
                    # A thread that finishes during this step counts now,
                    # so the run stops on the cycle the last one finishes.
                    if core.done:
                        done_total += 1
                        st.mode = _DONE
                        st.p_v = None
                        st.pe = -1
                    else:
                        phase_cycles[i][core.sync_phase] += 1
                        if core.is_spinning:
                            spin_energy += p
                            if ff and execute[i] and fetch_allowed[i]:
                                self._track(st, i, core, cycle)
                            elif st.win:
                                del st.win[:]
                        elif st.win:
                            del st.win[:]
                        if ff and st.mode == _REAL:
                            self._classify(st, i, core, cycle)
                elif m == _DONE:
                    if not ff:
                        cores[i].idle_cycle(cycle)
                    if st.pe != pe:
                        st.pe = pe
                        v = v_scale[i]
                        t = temps[i]
                        if st.p_v != v or st.p_t != t:
                            scratch.reset()
                            scratch.active = False
                            st.p = cycle_power(scratch, v, t)
                            st.p_v = v
                            st.p_t = t
                    p = st.p
                powers[i] = p
                # Power grid/package capacitance integrates switching
                # energy; controllers and the AoPB metric both see the
                # filtered curve (cf. the smooth traces of Figures 1/6).
                ps = smoothed[i] * beta + p * alpha
                smoothed[i] = ps
                if end_cycle is not None:
                    # Control-plane power tokens: the sensor reading in
                    # token currency (the paper's PTHT accounting tracks
                    # true power within 1%, so controller and meter agree).
                    over_floor = ps - unctrl
                    tokens[i] = (
                        int(over_floor * inv_token_unit)
                        if over_floor > 0 else 0
                    )
                total += p
                # AoPB (Figure 1): per-core area above the core's budget
                # line.  PTB raises a receiving core's line with granted
                # tokens, conserving the global sum.
                d = ps - budget_lines[i]
                if d > 0:
                    aopb += d
                tacc[i] += p

            total_energy += total
            total_s = 0.0
            for ps in smoothed:
                total_s += ps
            if total_s > budget:
                aopb_global += total_s - budget
            if total > max_power:
                max_power = total
            thermal._cycles_acc += 1
            if thermal._cycles_acc >= t_interval:
                thermal._step()
                pe += 1
            if telemetry is not None:
                # The smoothed powers and budget lines the AoPB just
                # used, observed before the controller reacts.
                telemetry.sample_cycle(powers, smoothed, budget_lines,
                                       total, total_s)

            if end_cycle is not None:
                end_cycle(cycle, tokens, smoothed, sync_domain)
                if controller.v_epoch != v_epoch:
                    v_epoch = controller.v_epoch
                    pe += 1

            if trace is not None:
                trace.append(total)
                core_traces.append(list(powers))
            cycle += 1

        # Flush fast-forwarded cores so post-run state matches a stepped
        # run exactly (SimResult reads committed/PTHT counters).
        for i in range(n):
            st = states[i]
            if st.mode == _SKIP:
                self._exit_skip(st, i, cycle)
            elif st.mode == _REPLAY:
                self._exit_replay(st, i, cycle)
        self.stats["controller_fallbacks"] = (
            controller.unsteady_cycles - unsteady_at_start
        )

        return sim._finish(
            max_cycles, cycle, done_total, total_energy, aopb, aopb_global,
            spin_energy, max_power, phase_cycles, trace, core_traces,
        )
