"""MOESI directory coherence protocol.

A directory-based MOESI protocol keeps the per-core private cache
hierarchies coherent (Table 1: "Coherence Protocol: MOESI").  The
directory is distributed across the mesh by address interleaving; a
request travels to the line's *home node*, which forwards/invalidate
as the protocol requires.

States (per line, per core):

* ``M`` (Modified)  — only copy, dirty.
* ``O`` (Owned)     — dirty, shared; this core supplies data.
* ``E`` (Exclusive) — only copy, clean.
* ``S`` (Shared)    — clean copy, possibly many.
* ``I`` (Invalid)   — not present.

The protocol here is atomic-transaction (no transient races): the
simulator serialises coherence transactions within a cycle, which is
the standard simplification for trace-driven power studies — the
*latency* of each transaction is still modelled in full (directory
indirection, forwarding hop, invalidation round-trips) through the
mesh model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterable, List, Set, Tuple

from ..units import Cycles


class State(IntEnum):
    I = 0
    S = 1
    E = 2
    O = 3
    M = 4


@dataclass
class DirEntry:
    """Directory knowledge about one line."""

    owner: int = -1            # core holding M/O/E, -1 if none
    sharers: Set[int] = field(default_factory=set)
    dirty: bool = False        # memory copy stale (some core in M/O)

    def is_uncached(self) -> bool:
        return self.owner == -1 and not self.sharers


@dataclass(frozen=True)
class CoherenceResult:
    """Outcome of one coherence transaction.

    ``latency`` is in cycles *beyond* the local cache lookup;
    ``hops`` counts mesh link traversals (for NoC energy);
    ``invalidations`` counts remote copies killed (for L1 energy);
    ``from_cache`` is True for cache-to-cache transfers (vs. memory).
    """

    latency: Cycles
    hops: int
    invalidations: int
    from_cache: bool


class Directory:
    """Distributed MOESI directory over a mesh of ``num_cores`` nodes.

    The caller (the memory hierarchy) tells the directory about every
    miss and upgrade on *shared* lines; the directory returns the
    resulting state for the requester and the transaction cost.  Private
    lines never generate coherence traffic, so the hierarchy bypasses
    the directory for them.
    """

    def __init__(self, num_cores: int, mesh, memory_latency: Cycles) -> None:
        self.num_cores = num_cores
        self.mesh = mesh
        self.memory_latency = memory_latency
        self._entries: Dict[int, DirEntry] = {}
        # Per-core line -> State view (the L2-level coherence state; L1s
        # are kept inclusive by the hierarchy).
        self._core_state: List[Dict[int, State]] = [
            {} for _ in range(num_cores)
        ]
        self.transactions = 0
        self.cache_to_cache = 0
        self.memory_fetches = 0
        self.invalidations_sent = 0
        self.writebacks = 0
        #: Fast-engine wake hooks (repro.sim.engine): while core *i* is
        #: fast-forwarded through a spin loop, ``watch_lines[i]`` holds
        #: the line its spin load polls (-1 = not watching) and any
        #: invalidation of that line bumps ``disturb_epochs[i]``, which
        #: forces the engine back to real per-cycle stepping before the
        #: poll can observe the change.  Pure bookkeeping: no effect on
        #: coherence behaviour.
        self.watch_lines: List[int] = [-1] * num_cores
        self.disturb_epochs: List[int] = [0] * num_cores
        #: Optional :class:`repro.simcheck.CoherenceSanitizer` hook —
        #: when set, every transaction re-validates the touched line.
        self._sanitizer = None
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    # -- helpers ---------------------------------------------------------

    def home_of(self, line: int) -> int:
        """Home node of a line (address-interleaved)."""
        return line % self.num_cores

    def state_of(self, core: int, line: int) -> State:
        return self._core_state[core].get(line, State.I)

    def _entry(self, line: int) -> DirEntry:
        e = self._entries.get(line)
        if e is None:
            e = DirEntry()
            self._entries[line] = e
        return e

    def _set_state(self, core: int, line: int, state: State) -> None:
        if state == State.I:
            self._core_state[core].pop(line, None)
        else:
            self._core_state[core][line] = state

    def add_sharer(self, core: int, lines: Iterable[int]) -> None:
        """Enter ``core`` as a clean sharer (S) of every line of ``lines``
        it does not hold yet; lines it holds keep their state.

        The coherence side of an L2 prewarm: no transaction, latency,
        counter, sanitizer or telemetry event.  Entries and line states
        are created in the order of ``lines``, as one ``state_of`` /
        ``_entry`` / ``_set_state`` step per line would, from any state.
        """
        view = self._core_state[core]
        new = dict.fromkeys(lines, State.S)
        # Lines the core holds, in any state but I (I is never stored).
        for line in view.keys() & new.keys():
            del new[line]
        view.update(new)
        entries = self._entries
        for line in new:
            entry = entries.get(line)
            if entry is None:
                entries[line] = DirEntry(sharers={core})
            else:
                entry.sharers.add(core)

    def _dir_hops(self, requester: int, line: int) -> int:
        return self.mesh.hop_count(requester, self.home_of(line))

    # -- protocol transactions -------------------------------------------

    def read_miss(self, core: int, line: int) -> CoherenceResult:
        """Core issues GetS (load miss in its private hierarchy)."""
        self.transactions += 1
        entry = self._entry(line)
        home_hops = self._dir_hops(core, line)
        lat = self.mesh.traversal_latency(home_hops)  # request to home
        hops = home_hops

        if entry.owner != -1 and entry.owner != core:
            # Forward to owner; owner supplies data and downgrades:
            # M -> O (MOESI keeps the dirty copy on-chip), E -> S.
            owner = entry.owner
            fwd_hops = self.mesh.hop_count(self.home_of(line), owner)
            data_hops = self.mesh.hop_count(owner, core)
            lat += self.mesh.traversal_latency(fwd_hops)
            lat += self.mesh.traversal_latency(data_hops)
            hops += fwd_hops + data_hops
            ost = self.state_of(owner, line)
            if ost in (State.M, State.O):
                self._set_state(owner, line, State.O)
                entry.dirty = True
            else:  # E (or stale directory info treated as clean)
                self._set_state(owner, line, State.S)
                entry.owner = -1
                entry.sharers.add(owner)
            entry.sharers.add(core)
            self._set_state(core, line, State.S)
            self.cache_to_cache += 1
            if self._sanitizer is not None:
                self._sanitizer.check_line(core, line)
            if self._telemetry is not None:
                self._telemetry.on_moesi("GetS", core, line, lat)
            return CoherenceResult(lat, hops, 0, True)

        if entry.sharers - {core}:
            # Clean sharers exist: home supplies data (from its L2/memory
            # image); requester joins the sharer set.
            back_hops = self.mesh.hop_count(self.home_of(line), core)
            lat += self.mesh.traversal_latency(back_hops)
            hops += back_hops
            entry.sharers.add(core)
            self._set_state(core, line, State.S)
            self.cache_to_cache += 1
            if self._sanitizer is not None:
                self._sanitizer.check_line(core, line)
            if self._telemetry is not None:
                self._telemetry.on_moesi("GetS", core, line, lat)
            return CoherenceResult(lat, hops, 0, True)

        # Uncached anywhere else: fetch from memory, grant E.
        back_hops = self.mesh.hop_count(self.home_of(line), core)
        lat += self.memory_latency + self.mesh.traversal_latency(back_hops)
        hops += back_hops
        entry.owner = core
        entry.sharers = {core}
        entry.dirty = False
        self._set_state(core, line, State.E)
        self.memory_fetches += 1
        if self._sanitizer is not None:
            self._sanitizer.check_line(core, line)
        if self._telemetry is not None:
            self._telemetry.on_moesi("GetS", core, line, lat)
        return CoherenceResult(lat, hops, 0, False)

    def write_miss(self, core: int, line: int) -> CoherenceResult:
        """Core issues GetM (store/atomic miss or upgrade from S/O)."""
        self.transactions += 1
        entry = self._entry(line)
        my_state = self.state_of(core, line)
        home_hops = self._dir_hops(core, line)
        lat = self.mesh.traversal_latency(home_hops)
        hops = home_hops
        invals = 0

        # Invalidate every other copy.  Sorted iteration: the loop body is
        # order-independent today, but hash order must never decide stat
        # or latency outcomes (SIM002 determinism rule).
        others = (entry.sharers | ({entry.owner} if entry.owner != -1 else set())) - {core}
        max_inval_hops = 0
        for other in sorted(others):
            h = self.mesh.hop_count(self.home_of(line), other)
            max_inval_hops = max(max_inval_hops, h)
            self._set_state(other, line, State.I)
            if line == self.watch_lines[other]:
                self.disturb_epochs[other] += 1
            invals += 1
        if invals:
            # Invalidations go in parallel; wait for the farthest ack.
            lat += 2 * self.mesh.traversal_latency(max_inval_hops)
            self.invalidations_sent += invals

        from_cache = False
        if my_state == State.I:
            if entry.owner != -1 and entry.owner != core:
                # Dirty copy forwarded from previous owner.
                owner = entry.owner
                data_hops = self.mesh.hop_count(owner, core)
                lat += self.mesh.traversal_latency(data_hops)
                hops += data_hops
                from_cache = True
                self.cache_to_cache += 1
            elif others:
                back_hops = self.mesh.hop_count(self.home_of(line), core)
                lat += self.mesh.traversal_latency(back_hops)
                hops += back_hops
                from_cache = True
                self.cache_to_cache += 1
            else:
                back_hops = self.mesh.hop_count(self.home_of(line), core)
                lat += self.memory_latency + self.mesh.traversal_latency(back_hops)
                hops += back_hops
                self.memory_fetches += 1

        entry.owner = core
        entry.sharers = {core}
        entry.dirty = True
        self._set_state(core, line, State.M)
        if self._sanitizer is not None:
            self._sanitizer.check_line(core, line)
        if self._telemetry is not None:
            self._telemetry.on_moesi("GetM", core, line, lat)
        return CoherenceResult(lat, hops, invals, from_cache)

    def evict(self, core: int, line: int) -> bool:
        """Core evicts ``line`` from its private hierarchy.

        Returns True when the eviction wrote dirty data back (M/O).
        """
        st = self.state_of(core, line)
        if st == State.I:
            return False
        entry = self._entry(line)
        self._set_state(core, line, State.I)
        entry.sharers.discard(core)
        wrote_back = False
        if entry.owner == core:
            entry.owner = -1
            if st in (State.M, State.O):
                self.writebacks += 1
                wrote_back = True
                entry.dirty = False
        if entry.is_uncached():
            del self._entries[line]
        if self._sanitizer is not None:
            self._sanitizer.check_line(core, line)
        if self._telemetry is not None:
            self._telemetry.on_moesi("Evict", core, line,
                                     1 if wrote_back else 0)
        return wrote_back

    # -- invariants (exercised by the property-based tests) ---------------

    def check_invariants(self) -> None:
        """Assert protocol invariants over the whole directory."""
        per_line: Dict[int, List[Tuple[int, State]]] = {}
        for core, view in enumerate(self._core_state):
            for line, st in view.items():
                per_line.setdefault(line, []).append((core, st))
        for line, holders in per_line.items():
            states = [st for _, st in holders]
            # At most one writable/dirty-supplier copy.
            assert sum(1 for s in states if s in (State.M, State.E, State.O)) <= 1, (
                f"line {line:#x}: multiple M/E/O holders: {holders}"
            )
            if any(s == State.M for s in states) or any(s == State.E for s in states):
                assert len(holders) == 1, (
                    f"line {line:#x}: M/E coexists with other copies: {holders}"
                )
            entry = self._entries.get(line)
            assert entry is not None, f"line {line:#x} cached but no dir entry"
            for core, st in holders:
                if st in (State.M, State.O, State.E):
                    assert entry.owner == core, (
                        f"line {line:#x}: owner mismatch {entry.owner} vs {core}"
                    )
