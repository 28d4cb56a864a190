"""Cycle-level out-of-order core model.

One :class:`Core` per CMP core.  The model is trace-driven and
dispatch-scheduled: at fetch, every instruction is assigned its
execution start (respecting the statistical dependence chain, FU
availability and memory latency from the cache hierarchy) and its
completion cycle; the commit stage retires completed instructions in
order, up to ``commit_width`` per cycle.  This keeps the per-cycle work
O(width) while still producing the per-cycle power shape the paper's
mechanisms react to: full-width bursts, miss-induced droops, ROB-full
stalls, misprediction bubbles and the characteristic low-power spin
signature of Figure 6.

The core also hosts the per-core *sync unit*: a small state machine
that executes lock acquire/release and barrier arrive operations by
injecting real atomic/store instructions into the pipeline and busy-
waiting with a dependent spin loop (load - compare - backward branch)
whose loads hit the locally cached synchronization line until the
releaser's store invalidates it — exactly the traffic pattern PTB
exploits.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Deque, List, Optional

from ..config import CMPConfig
from ..isa.instructions import BASE_ENERGY, EXEC_LATENCY, Kind
from ..isa.kmeans import TokenClassMap
from ..mem.hierarchy import MemoryHierarchy
from ..power.model import CycleEvents
from ..power.tokens import TokenAccountant
from ..sync.primitives import SyncDomain
from ..trace.generator import InstrBatch, ThreadTraceGenerator
from ..trace.phases import SyncKind, SyncOp
from .branch import GsharePredictor
from .functional_units import FunctionalUnitPool

#: Flattened by-kind-code tables for the hot loop.
_BASE_E: List[float] = [BASE_ENERGY[k] for k in Kind]
_EXEC_LAT: List[int] = [EXEC_LATENCY[k] for k in Kind]

_KIND_LOAD = int(Kind.LOAD)
_KIND_STORE = int(Kind.STORE)
_KIND_ATOMIC = int(Kind.ATOMIC)
_KIND_BRANCH = int(Kind.BRANCH)
_KIND_ALU = int(Kind.INT_ALU)

#: Base energies of the spin loop's load, compare and branch.
_E_LOAD = _BASE_E[_KIND_LOAD]
_E_ALU = _BASE_E[_KIND_ALU]
_E_BRANCH = _BASE_E[_KIND_BRANCH]
#: Wrong-path fetch energy charged on a misprediction.
_WRONG_PATH_E = 2.0 * _E_ALU

#: Front-end depth between fetch and earliest issue (half the 14-stage
#: pipeline lives in front of the scheduler).
_DISPATCH_DELAY = 5
#: Cycles to redirect fetch after a mispredicted branch resolves.
_REDIRECT_CYCLES = 3

#: ROB entry field indices.  Entries are tuples, never mutated once
#: fetched, so a fast-engine snapshot can hold them by reference.
_PC, _KIND, _BASE_EN, _BASE_TOK, _DISPATCH, _COMPLETE, _FLAGS = range(7)

_F_MEM = 1
_F_SYNC = 2


class SyncPhase(IntEnum):
    """What the thread is doing, for the Figure 3 breakdown."""

    BUSY = 0
    LOCK_ACQ = 1
    LOCK_REL = 2
    BARRIER = 3


# Sync-unit states: plain ints, not an IntEnum, because ``step``
# compares ``_sync_state`` against them every cycle.
_NO_SYNC = 0
_ACQ_WAIT = 1    # test&set in flight
_ACQ_SPIN = 2    # lost; spinning on the lock line
_ACQ_RETRY = 3   # granted; winning test&set in flight
_REL_WAIT = 4    # releasing store in flight
_BAR_WAIT = 5    # arrival atomic in flight
_BAR_FLIP = 6    # last arrival's sense-flip store in flight
_BAR_SPIN = 7    # spinning on the sense line


#: Synthetic PCs of injected sync and spin instructions.
_SYNC_PC = 0x5F000000
_SPIN_PC = 0x5E000000


class Core:
    """One out-of-order core plus its sync unit and token accountant."""

    def __init__(
        self,
        core_id: int,
        cfg: CMPConfig,
        token_map: TokenClassMap,
        hierarchy: MemoryHierarchy,
        sync_domain: SyncDomain,
        generator: ThreadTraceGenerator,
    ) -> None:
        self.core_id = core_id
        self.cfg = cfg
        self.hierarchy = hierarchy
        self.sync = sync_domain
        self.gen = generator

        core = cfg.core
        self.rob_entries = core.rob_entries
        self.lsq_entries = core.lsq_entries
        self.decode_width = core.decode_width
        self.commit_width = core.commit_width

        self.rob: Deque[tuple] = deque()
        self.predictor = GsharePredictor(
            core.bp_table_bytes, core.bp_history_bits
        )
        self.fus = FunctionalUnitPool(core)
        self.accountant = TokenAccountant(token_map, cfg.power.ptht_entries)
        self.events = CycleEvents()
        # The hot path does the accountant's per-instruction arithmetic
        # inline (see ``step``): base class tokens by kind code, and the
        # PTHT rows of the three spin-loop PCs.
        self._kind_tokens: List[int] = [token_map.tokens_for_kind(k)
                                        for k in Kind]
        self._spin_tokens = (self._kind_tokens[_KIND_LOAD],
                             self._kind_tokens[_KIND_ALU],
                             self._kind_tokens[_KIND_BRANCH])
        ptht_mask = self.accountant.ptht._mask
        self._spin_ptht = tuple(((pc >> 2) & ptht_mask, pc) for pc in
                                (_SPIN_PC, _SPIN_PC + 4, _SPIN_PC + 8))

        # Batch cursor (filled lazily from the generator).
        self._batch: Optional[InstrBatch] = None
        self._bi = 0

        self._last_complete = 0
        self._inflight_mem = 0
        self._fetch_stall_until = 0
        self._spin_next = 0

        # Sync unit state.
        self._sync_state = _NO_SYNC
        self._sync_obj = -1
        self._bar_generation = -1
        self.sync_phase = SyncPhase.BUSY
        #: True while the sync unit spins (state ACQ_SPIN or BAR_SPIN).
        self.is_spinning = False

        self.done = False
        self.committed = 0
        self.executed_cycles = 0
        self.spin_iterations = 0
        self.mem_stall_cycles = 0

        #: Optional :class:`repro.simcheck.PipelineSanitizer` hook.
        self._sanitizer = None
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    # ------------------------------------------------------------------ #
    # public per-cycle entry points                                      #
    # ------------------------------------------------------------------ #

    def step(
        self,
        now: int,
        fetch_allowed: bool = True,
        issue_width: Optional[int] = None,
    ) -> None:
        """Execute one core cycle at global cycle ``now``.

        The token bookkeeping of :class:`TokenAccountant` (``begin_cycle``,
        ``on_commit``, ``on_fetch``, ``end_cycle``) is inlined here and in
        ``_fetch``/``_spin_fetch`` with the same integer arithmetic; only
        injected sync instructions still go through ``on_fetch``.
        """
        ev = self.events
        ev.reset()
        rob = self.rob
        acc = self.accountant
        san = self._sanitizer
        self.executed_cycles += 1

        # ---- commit stage -------------------------------------------------
        # Commit always proceeds, even under PIPELINE_GATE: gating stops
        # admission (fetch/issue) while the window drains, which is what
        # lets a gated core's occupancy power sink below its budget.
        n_commit = 0
        if rob and rob[0][_COMPLETE] <= now:
            commit_width = self.commit_width
            ptht = acc.ptht
            tags = ptht._tags
            costs = ptht._costs
            mask = ptht._mask
            cost_hist = acc._telemetry
            committed_energy = 0.0
            while rob and n_commit < commit_width:
                e = rob[0]
                if e[_COMPLETE] > now:
                    break
                rob.popleft()
                n_commit += 1
                committed_energy += e[_BASE_EN]
                # on_commit: the PTHT records base tokens + ROB residency
                # (one token per resident cycle, see residency_tokens).
                pc = e[_PC]
                cost = e[_BASE_TOK] + (now - e[_DISPATCH])
                row = (pc >> 2) & mask
                tags[row] = pc
                costs[row] = cost
                if cost_hist is not None:
                    cost_hist.observe(cost)
                if san is not None:
                    san.on_commit(self.core_id, e[_DISPATCH], e[_COMPLETE], now)
                flags = e[_FLAGS]
                if flags & _F_MEM:
                    self._inflight_mem -= 1
                if flags & _F_SYNC:
                    self._sync_commit(now)
            ev.committed_energy = committed_energy
            self.committed += n_commit
            ptht.updates += n_commit

        occupancy = len(rob)
        ev.rob_occupancy = occupancy
        # begin_cycle: the residency component.
        acc._cycle_base = occupancy
        acc._cycle_pred = 0
        if rob and not n_commit and occupancy >= self.rob_entries - self.decode_width:
            self.mem_stall_cycles += 1

        # ---- sync unit polling ---------------------------------------------
        # A spinner that is not handed the lock/barrier keeps its state,
        # so the fetch stage below stays closed to it.
        st = self._sync_state
        if st == _ACQ_SPIN:
            if self.sync.lock_granted(self._sync_obj, self.core_id, now):
                self._inject_sync(now, _KIND_ATOMIC,
                                  self.sync.lock(self._sync_obj).addr)
                self._sync_state = _ACQ_RETRY
                self.is_spinning = False
                if self._telemetry is not None:
                    self._telemetry.on_spin(self.core_id, False, "lock")
            elif fetch_allowed and now >= self._spin_next:
                # A fetch-gated spinner stops issuing its spin loop (the
                # spin-gating extension); it still observes the grant.
                self._spin_fetch(now, self.sync.lock(self._sync_obj).addr)
        elif st == _BAR_SPIN:
            if self.sync.barrier_released(
                self._sync_obj, self.core_id, self._bar_generation, now
            ):
                self._sync_state = _NO_SYNC
                self.is_spinning = False
                self.sync_phase = SyncPhase.BUSY
                if self._telemetry is not None:
                    self._telemetry.on_spin(self.core_id, False, "barrier")
            elif fetch_allowed and now >= self._spin_next:
                self._spin_fetch(
                    now, self.sync.barrier(self._sync_obj).sense_addr
                )

        # ---- fetch stage ----------------------------------------------------
        if (
            fetch_allowed
            and self._sync_state == _NO_SYNC
            and not self.done
            and now >= self._fetch_stall_until
        ):
            self._fetch(now, issue_width)

        if san is not None:
            self._sanitize_rob(san, now)
        # end_cycle.
        consumed = acc._cycle_base
        acc.consumed = consumed
        acc.predicted = acc._cycle_pred
        acc.total_consumed += consumed

    def _sanitize_rob(self, san, now: int) -> None:
        """Window-wide ROB invariant check (sanitizers enabled only)."""
        rob = self.rob
        san.check_rob(
            self.core_id, now, len(rob), self.rob_entries,
            (e[_DISPATCH] for e in rob),
        )

    def idle_cycle(self, now: int) -> None:
        """A frequency-skipped (or post-completion) global cycle."""
        ev = self.events
        ev.reset()
        ev.active = False
        occupancy = len(self.rob)
        ev.rob_occupancy = occupancy
        # begin_cycle + end_cycle with nothing fetched.
        acc = self.accountant
        acc.consumed = occupancy
        acc.predicted = 0
        acc.total_consumed += occupancy

    # ------------------------------------------------------------------ #
    # fetch machinery                                                    #
    # ------------------------------------------------------------------ #

    def _fetch(self, now: int, issue_width: Optional[int]) -> None:
        width = self.decode_width
        if issue_width is not None and issue_width < width:
            width = issue_width
        if width <= 0:
            return
        rob = self.rob
        ev = self.events
        hierarchy = self.hierarchy
        core_id = self.core_id
        schedule = self.fus.schedule
        rob_entries = self.rob_entries
        lsq_entries = self.lsq_entries
        kind_tokens = self._kind_tokens
        acc = self.accountant
        ptht = acc.ptht
        tags = ptht._tags
        costs = ptht._costs
        mask = ptht._mask
        default_cost = ptht.default_cost
        # Cursor, counters and on_fetch sums live in locals and are
        # written back once, below the loop.
        batch = self._batch
        bi = self._bi
        inflight = self._inflight_mem
        last_complete = self._last_complete
        fetched_energy = ev.fetched_energy
        n_fetched = 0
        tokens = 0
        predicted = 0
        hits = 0
        sync_op = None
        first = True
        while width > 0:
            if len(rob) >= rob_entries:
                break
            if batch is None or bi >= batch.n:
                item = self.gen.next_item()
                if item is None:
                    batch = None
                    # _fetch only runs with no sync operation in flight.
                    if not rob:
                        self.done = True
                    break
                if isinstance(item, SyncOp):
                    batch = None
                    sync_op = item
                    break
                batch = item
                bi = 0
            i = bi
            kind = batch.kinds[i]
            is_mem = kind == _KIND_LOAD or kind == _KIND_STORE or kind == _KIND_ATOMIC
            if is_mem and inflight >= lsq_entries:
                break
            pc = batch.pcs[i]
            if first:
                ic = hierarchy.fetch_instr(core_id, pc)
                if ic.latency:
                    ev.l2_accesses += 1
                    if ic.mem_access:
                        ev.mem_accesses += 1
                    self._fetch_stall_until = now + ic.latency
                    break
                first = False

            mem_extra = 0
            if is_mem:
                if kind == _KIND_LOAD:
                    res = hierarchy.load(core_id, batch.addrs[i])
                elif kind == _KIND_STORE:
                    res = hierarchy.store(core_id, batch.addrs[i])
                else:
                    res = hierarchy.atomic(core_id, batch.addrs[i])
                if not res.l1_hit:
                    if res.l2_access:
                        ev.l2_accesses += 1
                    if res.mem_access:
                        ev.mem_accesses += 1
                    ev.flit_hops += res.flit_hops
                    ev.invalidations += res.invalidations
                    mem_extra = res.latency
                inflight += 1

            ready = now + _DISPATCH_DELAY
            if batch.deps[i] and last_complete > ready:
                ready = last_complete
            lat = _EXEC_LAT[kind]
            start = schedule(kind, ready, lat)
            if kind == _KIND_STORE:
                complete = start + 1  # retires from the store buffer
            else:
                complete = start + lat + mem_extra
            base_e = _BASE_E[kind]
            # on_fetch: charge base tokens, read the PTHT prediction.
            base_tok = kind_tokens[kind]
            tokens += base_tok
            row = (pc >> 2) & mask
            if tags[row] == pc:
                hits += 1
                predicted += costs[row]
            else:
                predicted += default_cost
            rob.append(
                (pc, kind, base_e, base_tok, now, complete,
                 _F_MEM if is_mem else 0)
            )
            fetched_energy += base_e
            n_fetched += 1
            last_complete = complete
            bi = i + 1
            width -= 1

            if kind == _KIND_BRANCH:
                ev.n_branches += 1
                mispred = self.predictor.update(pc, bool(batch.takens[i]))
                if mispred:
                    self._fetch_stall_until = complete + _REDIRECT_CYCLES
                    # Wrong-path fetch energy wasted before the redirect.
                    fetched_energy += _WRONG_PATH_E
                    break

        self._batch = batch
        self._bi = bi
        self._inflight_mem = inflight
        self._last_complete = last_complete
        ev.fetched_energy = fetched_energy
        if n_fetched:
            ev.n_fetched += n_fetched
            ptht.hits += hits
            ptht.misses += n_fetched - hits
            acc._cycle_base += tokens
            acc._cycle_pred += predicted
        # Only now: _inject_sync reads _last_complete and _inflight_mem and
        # adds its fetch energy after this group's.
        if sync_op is not None:
            self._start_sync(now, sync_op)

    def _spin_fetch(self, now: int, spin_addr: int) -> None:
        """Fetch one dependent spin-loop iteration (load-test-branch).

        The caller has checked that ``_spin_next`` has passed.
        """
        if len(self.rob) >= self.rob_entries - 3:
            return
        ev = self.events
        rob = self.rob
        self.spin_iterations += 1

        res = self.hierarchy.load(self.core_id, spin_addr)
        mem_extra = 0
        if not res.l1_hit:
            if res.l2_access:
                ev.l2_accesses += 1
            if res.mem_access:
                ev.mem_accesses += 1
            ev.flit_hops += res.flit_hops
            mem_extra = res.latency

        ready = now + _DISPATCH_DELAY
        schedule = self.fus.schedule
        start = schedule(_KIND_LOAD, ready, 1)
        c_load = start + 1 + mem_extra
        start = schedule(_KIND_ALU, c_load, 1)
        c_alu = start + 1
        start = schedule(_KIND_BRANCH, c_alu, 1)
        c_br = start + 1

        t_load, t_alu, t_br = self._spin_tokens
        rob.append((_SPIN_PC, _KIND_LOAD, _E_LOAD, t_load, now, c_load,
                    _F_MEM))
        rob.append((_SPIN_PC + 4, _KIND_ALU, _E_ALU, t_alu, now, c_alu, 0))
        rob.append((_SPIN_PC + 8, _KIND_BRANCH, _E_BRANCH, t_br, now, c_br,
                    0))
        # Left to right: the same float additions as one += per instruction.
        ev.fetched_energy = ev.fetched_energy + _E_LOAD + _E_ALU + _E_BRANCH
        ev.n_fetched += 3
        ev.n_branches += 1
        # on_fetch for the three instructions.
        acc = self.accountant
        ptht = acc.ptht
        tags = ptht._tags
        costs = ptht._costs
        predicted = 0
        hits = 0
        for row, pc in self._spin_ptht:
            if tags[row] == pc:
                hits += 1
                predicted += costs[row]
            else:
                predicted += ptht.default_cost
        ptht.hits += hits
        ptht.misses += 3 - hits
        acc._cycle_base += t_load + t_alu + t_br
        acc._cycle_pred += predicted
        self.predictor.update(_SPIN_PC + 8, True)
        # The predictor knows the loop: while the line hits in L1 the
        # next iteration issues right behind the load-use chain; when
        # the line was invalidated (release!), the re-read gates it.
        self._spin_next = now + 2 if mem_extra == 0 else c_load
        self._last_complete = c_br

    # ------------------------------------------------------------------ #
    # sync unit                                                           #
    # ------------------------------------------------------------------ #

    def _start_sync(self, now: int, op: SyncOp) -> None:
        self._sync_obj = op.obj_id
        if op.kind == SyncKind.ACQUIRE:
            self.sync_phase = SyncPhase.LOCK_ACQ
            self._sync_state = _ACQ_WAIT
            self._inject_sync(now, _KIND_ATOMIC, self.sync.lock(op.obj_id).addr)
        elif op.kind == SyncKind.RELEASE:
            self.sync_phase = SyncPhase.LOCK_REL
            self._sync_state = _REL_WAIT
            self._inject_sync(now, _KIND_STORE, self.sync.lock(op.obj_id).addr)
        else:  # BARRIER
            self.sync_phase = SyncPhase.BARRIER
            self._sync_state = _BAR_WAIT
            self._inject_sync(
                now, _KIND_ATOMIC, self.sync.barrier(op.obj_id).count_addr
            )

    def _inject_sync(self, now: int, kind: int, addr: int) -> None:
        """Dispatch one synchronization instruction into the pipeline."""
        ev = self.events
        if kind == _KIND_STORE:
            res = self.hierarchy.store(self.core_id, addr)
        else:
            res = self.hierarchy.atomic(self.core_id, addr)
        mem_extra = 0
        if not res.l1_hit:
            if res.l2_access:
                ev.l2_accesses += 1
            if res.mem_access:
                ev.mem_accesses += 1
            ev.flit_hops += res.flit_hops
            ev.invalidations += res.invalidations
            mem_extra = res.latency
        ready = now + _DISPATCH_DELAY
        if self._last_complete > ready:
            ready = self._last_complete
        lat = _EXEC_LAT[kind]
        start = self.fus.schedule(kind, ready, lat)
        complete = start + lat + mem_extra
        base_e = _BASE_E[kind]
        base_tok = self.accountant.on_fetch(_SYNC_PC + self._sync_obj * 4, kind)
        self.rob.append(
            (_SYNC_PC + self._sync_obj * 4, kind, base_e, base_tok, now,
             complete, _F_MEM | _F_SYNC)
        )
        ev.fetched_energy += base_e
        ev.n_fetched += 1
        self._inflight_mem += 1
        self._last_complete = complete

    def _sync_commit(self, now: int) -> None:
        """An injected sync instruction just committed."""
        st = self._sync_state
        if st == _ACQ_WAIT:
            if self.sync.try_acquire(self._sync_obj, self.core_id, now):
                self._sync_state = _NO_SYNC
                self.sync_phase = SyncPhase.BUSY
            else:
                self._sync_state = _ACQ_SPIN
                self.is_spinning = True
                self._spin_next = now + 1
                if self._telemetry is not None:
                    self._telemetry.on_spin(self.core_id, True, "lock")
        elif st == _ACQ_RETRY:
            # Ownership was transferred by ``lock_granted``; the winning
            # test&set has now committed.
            self._sync_state = _NO_SYNC
            self.sync_phase = SyncPhase.BUSY
        elif st == _REL_WAIT:
            self.sync.release(self._sync_obj, self.core_id, now)
            self._sync_state = _NO_SYNC
            self.sync_phase = SyncPhase.BUSY
        elif st == _BAR_WAIT:
            self._bar_generation = self.sync.barrier(self._sync_obj).generation
            if self.sync.barrier_arrive(self._sync_obj, self.core_id, now):
                # Last arrival: flip the sense line (wakes the spinners).
                self._sync_state = _BAR_FLIP
                self._inject_sync(
                    now, _KIND_STORE, self.sync.barrier(self._sync_obj).sense_addr
                )
            else:
                self._sync_state = _BAR_SPIN
                self.is_spinning = True
                self._spin_next = now + 1
                if self._telemetry is not None:
                    self._telemetry.on_spin(self.core_id, True, "barrier")
        elif st == _BAR_FLIP:
            self._sync_state = _NO_SYNC
            self.sync_phase = SyncPhase.BUSY

    # ------------------------------------------------------------------ #
    # introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def rob_occupancy(self) -> int:
        return len(self.rob)
