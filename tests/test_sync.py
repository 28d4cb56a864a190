"""Tests for spinlocks, barriers and the sync domain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.noc.mesh import Mesh2D
from repro.sync.primitives import (
    SyncDomain,
    barrier_count_address,
    barrier_sense_address,
    lock_address,
)


@pytest.fixture
def domain():
    return SyncDomain(4, Mesh2D(4, NetworkConfig()))


class TestAddresses:
    def test_lock_addresses_distinct_lines(self):
        assert lock_address(0) != lock_address(1)
        assert (lock_address(1) - lock_address(0)) >= 64  # no false sharing

    def test_barrier_addresses_distinct(self):
        assert barrier_count_address(0) != barrier_sense_address(0)
        assert barrier_sense_address(0) - barrier_count_address(0) >= 64


class TestLockProtocol:
    def test_uncontended_acquire(self, domain):
        assert domain.try_acquire(0, core=1, now=10)
        assert domain.lock(0).owner == 1

    def test_second_acquirer_queues(self, domain):
        domain.try_acquire(0, 1, 10)
        assert not domain.try_acquire(0, 2, 12)
        assert list(domain.lock(0).waiters) == [2]

    def test_release_grants_fifo(self, domain):
        domain.try_acquire(0, 1, 10)
        domain.try_acquire(0, 2, 11)
        domain.try_acquire(0, 3, 12)
        domain.release(0, 1, 100)
        lk = domain.lock(0)
        assert 2 in lk.grant_at
        assert list(lk.waiters) == [3]

    def test_grant_lands_after_handoff_latency(self, domain):
        domain.try_acquire(0, 0, 10)
        domain.try_acquire(0, 3, 11)
        domain.release(0, 0, 100)
        at = domain.lock(0).grant_at[3]
        assert at > 100  # hand-off costs mesh latency
        assert not domain.lock_granted(0, 3, at - 1)
        assert domain.lock_granted(0, 3, at)
        assert domain.lock(0).owner == 3

    def test_no_steal_while_grant_in_flight(self, domain):
        """Regression: a newcomer must not grab the lock between release
        and the granted waiter's wake-up."""
        domain.try_acquire(0, 0, 10)
        domain.try_acquire(0, 1, 11)
        domain.release(0, 0, 100)
        # Core 2 tries right after the release, before 1's grant lands.
        assert not domain.try_acquire(0, 2, 101)
        at = domain.lock(0).grant_at[1]
        assert domain.lock_granted(0, 1, at)
        assert domain.lock(0).owner == 1

    def test_release_by_non_owner_raises(self, domain):
        domain.try_acquire(0, 1, 10)
        with pytest.raises(RuntimeError):
            domain.release(0, 2, 20)

    def test_contended_acquire_counted(self, domain):
        domain.try_acquire(0, 0, 1)
        domain.try_acquire(0, 1, 2)
        assert domain.lock(0).contended_acquires == 1

    def test_duplicate_wait_not_queued_twice(self, domain):
        domain.try_acquire(0, 0, 1)
        domain.try_acquire(0, 1, 2)
        domain.try_acquire(0, 1, 3)
        assert list(domain.lock(0).waiters) == [1]

    def test_independent_locks(self, domain):
        assert domain.try_acquire(0, 0, 1)
        assert domain.try_acquire(1, 1, 1)


class TestBarrierProtocol:
    def test_last_arrival_releases(self, domain):
        assert not domain.barrier_arrive(0, 0, 10)
        assert not domain.barrier_arrive(0, 1, 11)
        assert not domain.barrier_arrive(0, 2, 12)
        assert domain.barrier_arrive(0, 3, 13)  # last of 4

    def test_release_wakes_after_mesh_latency(self, domain):
        for c in range(3):
            domain.barrier_arrive(0, c, 10 + c)
        domain.barrier_arrive(0, 3, 20)
        # Generation 0 released at cycle 20 by core 3.
        assert not domain.barrier_released(0, 0, generation=0, now=20)
        # Eventually every core sees it.
        assert domain.barrier_released(0, 0, generation=0, now=200)

    def test_generation_advances(self, domain):
        for c in range(4):
            domain.barrier_arrive(0, c, 10)
        assert domain.barrier(0).generation == 1
        # Second episode reuses the barrier.
        for c in range(4):
            domain.barrier_arrive(0, c, 100)
        assert domain.barrier(0).generation == 2
        assert domain.barrier(0).episodes == 2

    def test_unreleased_generation_never_ready(self, domain):
        domain.barrier_arrive(0, 0, 10)
        assert not domain.barrier_released(0, 1, generation=0, now=10_000)

    def test_farther_cores_wake_later(self, domain):
        for c in range(3):
            domain.barrier_arrive(0, c, 10)
        domain.barrier_arrive(0, 3, 50)  # releaser is core 3
        # Core 2 (adjacent to 3) wakes before core 0 (diagonal).
        wake = {}
        for core in (0, 2):
            t = 50
            while not domain.barrier_released(0, core, 0, t):
                t += 1
            wake[core] = t
        assert wake[2] <= wake[0]


class TestIntrospection:
    def test_waiting_counts(self, domain):
        domain.try_acquire(0, 0, 1)
        domain.try_acquire(0, 1, 2)
        domain.barrier_arrive(0, 2, 3)
        assert domain.cores_waiting_on_locks() == 1
        assert domain.cores_waiting_on_barriers() == 1

    def test_contended_lock_holders(self, domain):
        domain.try_acquire(0, 0, 1)
        assert domain.contended_lock_holders() == []  # nobody waiting
        domain.try_acquire(0, 1, 2)
        assert domain.contended_lock_holders() == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SyncDomain(0, Mesh2D(4, NetworkConfig()))


# Operations on a 4-core domain with two locks and two barriers: (verb,
# object id, core, time step).  A release by a non-owner is skipped (it
# raises, and the simulator never issues one).
_OPS = st.tuples(
    st.sampled_from(["acquire", "granted", "release", "arrive", "released"]),
    st.integers(0, 1),
    st.integers(0, 3),
    st.integers(0, 12),
)


def _views(domain):
    return (
        domain.contended_lock_holders(),
        domain.cores_waiting_on_locks(),
        domain.cores_waiting_on_barriers(),
        domain.spinning_cores(),
    )


class TestVersion:
    """``version`` moves whenever an introspection view can change.

    ``PTBController.end_cycle`` recomputes its policy and priority cores
    only when it moves, so a mutation that changed a view without a bump
    would leave PTB acting on stale sync state.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, max_size=80))
    def test_views_never_change_without_a_bump(self, ops):
        domain = SyncDomain(4, Mesh2D(4, NetworkConfig()))
        now = 0
        for verb, obj, core, step in ops:
            now += step
            before = _views(domain)
            version = domain.version
            if verb == "acquire":
                domain.try_acquire(obj, core, now)
            elif verb == "granted":
                domain.lock_granted(obj, core, now)
            elif verb == "release":
                if domain.lock(obj).owner != core:
                    continue
                domain.release(obj, core, now)
            elif verb == "arrive":
                domain.barrier_arrive(obj, core, now)
            else:
                domain.barrier_released(
                    obj, core, domain.barrier(obj).generation - 1, now
                )
            if _views(domain) != before:
                assert domain.version != version, (verb, obj, core)

    def test_polls_leave_version_alone(self, domain):
        domain.try_acquire(0, 1, 0)
        domain.try_acquire(0, 2, 1)
        domain.release(0, 1, 2)
        version = domain.version
        domain.lock_granted(0, 2, 3)  # grant still in flight
        domain.barrier_released(0, 1, 0, 4)
        domain.contended_lock_holders()
        assert domain.version == version
