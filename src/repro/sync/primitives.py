"""Shared-memory synchronization primitives.

Spinlocks and sense-reversing barriers as the workloads use them.  The
primitives live at addresses in the globally shared region, so every
operation on them flows through the MOESI directory and the mesh: a
release invalidates the spinners' cached copies, the hand-off to the
next owner pays the coherence transfer latency between the two cores,
and barrier arrivals serialise on the count line.

Lock hand-off is FIFO (ticket-lock behaviour): deterministic, fair,
and reproducible — a documented simplification versus the raw
test-and-set race of the originals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from ..noc.mesh import Mesh2D
from ..trace.generator import SHARED_BASE

#: Synchronization variables live above all program data and are padded
#: to distinct cache lines (no false sharing).
SYNC_REGION = SHARED_BASE + (1 << 30)
_LOCK_STRIDE = 256
_BARRIER_STRIDE = 512


def lock_address(lock_id: int) -> int:
    return SYNC_REGION + lock_id * _LOCK_STRIDE


def barrier_count_address(barrier_id: int) -> int:
    return SYNC_REGION + (1 << 28) + barrier_id * _BARRIER_STRIDE


def barrier_sense_address(barrier_id: int) -> int:
    return barrier_count_address(barrier_id) + 64


@dataclass
class SpinLock:
    """One spinlock and its waiting queue."""

    lock_id: int
    owner: Optional[int] = None
    waiters: Deque[int] = field(default_factory=deque)
    #: core -> cycle at which its pending grant lands (hand-off latency).
    grant_at: Dict[int, int] = field(default_factory=dict)
    acquires: int = 0
    contended_acquires: int = 0

    @property
    def addr(self) -> int:
        return lock_address(self.lock_id)


@dataclass
class Barrier:
    """One sense-reversing barrier."""

    barrier_id: int
    num_threads: int
    arrived: int = 0
    generation: int = 0
    #: cores currently waiting on this barrier (cleared on release).
    waiting: set = field(default_factory=set)
    #: generation -> (release cycle, releasing core)
    release: Dict[int, tuple] = field(default_factory=dict)
    episodes: int = 0

    @property
    def count_addr(self) -> int:
        return barrier_count_address(self.barrier_id)

    @property
    def sense_addr(self) -> int:
        return barrier_sense_address(self.barrier_id)


class SyncDomain:
    """All locks and barriers of one running program.

    The per-core sync units call in here when their injected atomic /
    store instructions commit; the domain serialises ownership and
    computes hand-off / wake-up latencies over the mesh.
    """

    def __init__(self, num_threads: int, mesh: Mesh2D) -> None:
        if num_threads <= 0:
            raise ValueError("need at least one thread")
        self.num_threads = num_threads
        self.mesh = mesh
        self.locks: Dict[int, SpinLock] = {}
        self.barriers: Dict[int, Barrier] = {}
        #: Mutation counter: bumped by every state change that can alter
        #: the introspection views below (``cores_waiting_on_*``,
        #: ``contended_lock_holders``, ``spinning_cores``).
        #: ``PTBController.end_cycle`` recomputes its distribution policy
        #: and priority cores only when it moves.
        self.version = 0
        #: Optional :class:`repro.telemetry.TelemetrySession` hook.
        self._telemetry = None

    # -- object lookup -------------------------------------------------------

    def lock(self, lock_id: int) -> SpinLock:
        lk = self.locks.get(lock_id)
        if lk is None:
            lk = SpinLock(lock_id)
            self.locks[lock_id] = lk
        return lk

    def barrier(self, barrier_id: int) -> Barrier:
        b = self.barriers.get(barrier_id)
        if b is None:
            b = Barrier(barrier_id, self.num_threads)
            self.barriers[barrier_id] = b
        return b

    # -- lock protocol ---------------------------------------------------------

    def try_acquire(self, lock_id: int, core: int, now: int) -> bool:
        """Core's test&set committed at ``now``.  True = got the lock."""
        lk = self.lock(lock_id)
        # The lock is free only if nobody holds it, nobody queues for it
        # and no hand-off grant is in flight (a granted waiter owns the
        # next turn even before its grant lands).
        if lk.owner is None and not lk.waiters and not lk.grant_at:
            lk.owner = core
            lk.acquires += 1
            self.version += 1
            if self._telemetry is not None:
                self._telemetry.on_lock("acquire", lock_id, core)
            return True
        if core not in lk.waiters and lk.owner != core:
            lk.waiters.append(core)
            lk.contended_acquires += 1
            self.version += 1
            if self._telemetry is not None:
                self._telemetry.on_lock("contend", lock_id, core)
        return False

    def lock_granted(self, lock_id: int, core: int, now: int) -> bool:
        """Poll whether a queued core's pending grant has landed."""
        lk = self.lock(lock_id)
        at = lk.grant_at.get(core)
        if at is not None and now >= at:
            del lk.grant_at[core]
            lk.owner = core
            lk.acquires += 1
            self.version += 1
            if self._telemetry is not None:
                self._telemetry.on_lock("handoff", lock_id, core)
            return True
        return False

    def release(self, lock_id: int, core: int, now: int) -> None:
        """Core's releasing store committed at ``now``."""
        lk = self.lock(lock_id)
        if lk.owner != core:
            raise RuntimeError(
                f"core {core} releasing lock {lock_id} owned by {lk.owner}"
            )
        lk.owner = None
        self.version += 1
        if self._telemetry is not None:
            self._telemetry.on_lock("release", lock_id, core)
        if lk.waiters:
            winner = lk.waiters.popleft()
            # Hand-off: the spinner's re-read misses, the directory
            # forwards the line from the releaser, then the winner's
            # test&set upgrades it.  Two transactions' worth of latency.
            hops = self.mesh.hop_count(core, winner)
            handoff = 2 * self.mesh.traversal_latency(max(1, hops))
            lk.grant_at[winner] = now + handoff

    # -- barrier protocol ----------------------------------------------------------

    def barrier_arrive(self, barrier_id: int, core: int, now: int) -> bool:
        """Core's arrival (atomic inc) committed.  True = last arrival."""
        b = self.barrier(barrier_id)
        b.arrived += 1
        b.waiting.add(core)
        self.version += 1
        if self._telemetry is not None:
            self._telemetry.on_barrier("arrive", barrier_id, core)
        if b.arrived >= b.num_threads:
            # Last thread flips the sense; everyone else wakes after the
            # invalidation + refetch reaches them.
            b.release[b.generation] = (now, core)
            b.arrived = 0
            b.waiting.clear()
            b.generation += 1
            b.episodes += 1
            if self._telemetry is not None:
                self._telemetry.on_barrier("release", barrier_id, core)
            return True
        return False

    def barrier_released(
        self, barrier_id: int, core: int, generation: int, now: int
    ) -> bool:
        """Poll whether ``generation`` was released and the wake reached us."""
        b = self.barrier(barrier_id)
        rel = b.release.get(generation)
        if rel is None:
            return False
        rel_cycle, releaser = rel
        hops = self.mesh.hop_count(releaser, core)
        wake = rel_cycle + self.mesh.traversal_latency(max(1, hops))
        return now >= wake

    # -- introspection (dynamic policy selector, Section IV.B) -------------------

    def cores_waiting_on_locks(self) -> int:
        return sum(len(lk.waiters) + len(lk.grant_at) for lk in self.locks.values())

    def spinning_cores(self) -> set:
        """Cores currently busy-waiting on a lock or a barrier.

        Lock waiters (queued or with a grant in flight) and barrier
        arrivals that are not the releaser.  Used by the spin-gating
        extension (the paper's future work) to park spinners.
        """
        out: set = set()
        for lk in self.locks.values():
            out.update(lk.waiters)
            out.update(lk.grant_at.keys())
        for b in self.barriers.values():
            out.update(b.waiting)
        return out

    def contended_lock_holders(self) -> list:
        """Cores currently inside a critical section others wait for.

        These are the threads whose progress gates the whole application
        — the paper's ToOne policy and dynamic selector give them the
        spare-token pool ("priority to threads that enter a critical
        section", Section IV.B).
        """
        return [
            lk.owner
            for lk in self.locks.values()
            if lk.owner is not None and (lk.waiters or lk.grant_at)
        ]

    def cores_waiting_on_barriers(self) -> int:
        return sum(b.arrived for b in self.barriers.values())
