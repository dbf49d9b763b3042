"""Tests for the central and distributed (token) byte-range lock managers."""

from __future__ import annotations

import pytest

from repro.core.engine import Engine, current_task, sequence_point
from repro.core.intervals import IntervalSet
from repro.fs.errors import InvalidRequest, LockViolation
from repro.fs.lockmanager import CentralLockManager, LockMode
from repro.fs.tokens import DistributedLockManager
from repro.mpi import DeadlockError, SPMDExecutionError, run_spmd

#: Both protocols: one lock-service body, two ways to price a grant.
MANAGERS = [CentralLockManager, DistributedLockManager]


class TestCentralLockManagerBasics:
    def test_acquire_release(self):
        lm = CentralLockManager()
        lock, t = lm.acquire(owner=0, start=0, stop=100)
        assert t == pytest.approx(0.0)
        assert len(lm.held_locks()) == 1
        lm.release(lock)
        assert lm.held_locks() == []

    def test_request_latency_charged(self):
        lm = CentralLockManager(request_latency=0.01)
        _, t = lm.acquire(owner=0, start=0, stop=10, now=1.0)
        assert t == pytest.approx(1.01)

    def test_disjoint_ranges_concurrent(self):
        lm = CentralLockManager()
        a, _ = lm.acquire(owner=0, start=0, stop=10)
        b, _ = lm.acquire(owner=1, start=10, stop=20)
        assert len(lm.held_locks()) == 2
        lm.release(a)
        lm.release(b)

    def test_shared_read_locks_coexist(self):
        lm = CentralLockManager()
        a, _ = lm.acquire(owner=0, start=0, stop=10, mode=LockMode.SHARED)
        b, _ = lm.acquire(owner=1, start=0, stop=10, mode=LockMode.SHARED)
        assert len(lm.held_locks()) == 2
        lm.release(a)
        lm.release(b)

    def test_same_owner_reentrant_overlap(self):
        lm = CentralLockManager()
        a, _ = lm.acquire(owner=0, start=0, stop=10)
        b, _ = lm.acquire(owner=0, start=5, stop=15)  # own locks never conflict
        lm.release(a)
        lm.release(b)

    def test_double_release_rejected(self):
        lm = CentralLockManager()
        lock, _ = lm.acquire(owner=0, start=0, stop=10)
        lm.release(lock)
        with pytest.raises(LockViolation):
            lm.release(lock)

    def test_invalid_range_rejected(self):
        lm = CentralLockManager()
        with pytest.raises(InvalidRequest):
            lm.acquire(owner=0, start=10, stop=5)
        with pytest.raises(InvalidRequest):
            lm.acquire(owner=0, start=0, stop=5, mode="bogus")

    def test_release_all(self):
        lm = CentralLockManager()
        lm.acquire(owner=3, start=0, stop=10)
        lm.acquire(owner=3, start=20, stop=30)
        lm.acquire(owner=4, start=40, stop=50)
        assert lm.release_all(3) == 2
        assert len(lm.held_locks()) == 1


class TestCentralLockManagerBlocking:
    def test_conflicting_lock_blocks_until_release(self):
        lm = CentralLockManager()
        order = []

        def first_locker():
            first, _ = lm.acquire(owner=0, start=0, stop=100)
            # Yield while holding the lock, so the peer reaches the manager
            # and parks on its waiter queue.
            current_task().clock.advance(10.0)
            sequence_point()
            assert order == ["requesting"]  # still blocked
            lm.release(first, now=0.5)

        def second_locker():
            order.append("requesting")
            lock, _ = lm.acquire(owner=1, start=50, stop=150)
            order.append("granted")
            lm.release(lock)

        engine = Engine()
        engine.spawn(first_locker)
        engine.spawn(second_locker)
        engine.run()
        assert order == ["requesting", "granted"]
        assert lm.wait_count == 1

    def test_virtual_release_time_propagates(self):
        """A later request is granted no earlier (in virtual time) than the
        conflicting lock's release, even if the real-time race is over."""
        lm = CentralLockManager()
        lock, _ = lm.acquire(owner=0, start=0, stop=100, now=0.0)
        lm.release(lock, now=7.5)
        _, grant = lm.acquire(owner=1, start=50, stop=60, now=1.0)
        assert grant >= 7.5

    def test_no_propagation_for_disjoint_history(self):
        lm = CentralLockManager()
        lock, _ = lm.acquire(owner=0, start=0, stop=10, now=0.0)
        lm.release(lock, now=9.0)
        _, grant = lm.acquire(owner=1, start=50, stop=60, now=1.0)
        assert grant == pytest.approx(1.0)

    def test_shared_locks_do_not_serialise(self):
        lm = CentralLockManager()
        a, _ = lm.acquire(owner=0, start=0, stop=10, mode=LockMode.SHARED, now=0.0)
        lm.release(a, now=5.0)
        _, grant = lm.acquire(owner=1, start=0, stop=10, mode=LockMode.SHARED, now=1.0)
        assert grant == pytest.approx(1.0)

    def test_reset_history(self):
        lm = CentralLockManager()
        lock, _ = lm.acquire(owner=0, start=0, stop=10)
        lm.release(lock, now=5.0)
        lm.reset_history()
        _, grant = lm.acquire(owner=1, start=0, stop=10, now=0.0)
        assert grant == pytest.approx(0.0)

    @pytest.mark.parametrize("manager", [CentralLockManager, DistributedLockManager])
    def test_off_engine_conflict_raises_at_once(self, manager):
        """Outside an engine nobody can run to release the holder's lock, so
        a request that would block fails naming the range and the holder."""
        lm = manager()
        lm.acquire(owner=7, start=0, stop=10)
        with pytest.raises(LockViolation, match=r"\[4,20\) owner=1 .*\[0,10\) held by owner 7"):
            lm.acquire(owner=1, start=4, stop=20)
        assert [g.owner for g in lm.held_locks()] == [7]
        lock, _ = lm.acquire(owner=1, start=10, stop=20)  # no conflict: granted
        assert lock.owner == 1


class TestEngineTaskBlocking:
    """Engine tasks park on the manager's waiter queue instead of a
    condition variable, and releases wake only eligible requests."""

    def test_conflicting_engine_tasks_serialise(self):
        lm = CentralLockManager()
        order = []

        def locker(owner):
            lock, grant = lm.acquire(owner=owner, start=0, stop=100, now=0.0)
            order.append(("granted", owner))
            # Yield while holding the lock, so the peers reach the manager
            # and park on its waiter queue instead of never contending.
            current_task().clock.advance(10.0)
            sequence_point()
            lm.release(lock, now=grant + 1.0)

        engine = Engine()
        for owner in range(4):
            engine.spawn(lambda owner=owner: locker(owner))
        engine.run()
        assert order == [("granted", o) for o in range(4)]
        assert lm.held_locks() == []
        assert lm.wait_count == 3

    @pytest.mark.parametrize("manager", MANAGERS)
    def test_wait_count_is_the_number_of_parked_acquisitions(self, manager):
        """A convoy of four exclusive requests on one range parks three of
        them; a request on a disjoint range and a shared pair on a third one
        park none.  Every protocol counts its waits."""
        lm = manager()

        def locker(owner, start, stop, mode=LockMode.EXCLUSIVE):
            lock, grant = lm.acquire(owner=owner, start=start, stop=stop, mode=mode)
            current_task().clock.advance(1.0)
            sequence_point()  # the peers reach the manager while it is held
            lm.release(lock, now=grant + 1.0)

        engine = Engine()
        for owner in range(4):
            engine.spawn(lambda owner=owner: locker(owner, 0, 100))
        engine.spawn(lambda: locker(4, 200, 300))
        for owner in (5, 6):
            engine.spawn(lambda owner=owner: locker(owner, 400, 500, LockMode.SHARED))
        engine.run()
        assert lm.held_locks() == []
        assert lm.wait_count == 3
        lm.reset_history()
        assert lm.wait_count == 0

    @pytest.mark.parametrize("manager", MANAGERS)
    def test_a_dead_holder_is_named_in_the_survivors_deadlock(self, manager):
        """A rank that dies holding ``[0,100)`` leaves its peer parked; the
        peer's ``DeadlockError`` names the holder's owner, mode and range,
        not only the request."""
        lm = manager()

        def fn(comm):
            if comm.rank == 0:
                lm.acquire(owner=0, start=0, stop=100)
                raise RuntimeError("rank 0 dies holding [0,100)")
            lm.acquire(owner=1, start=0, stop=100)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        failures = excinfo.value.failures
        assert isinstance(failures[0], RuntimeError)
        assert isinstance(failures[1], DeadlockError)
        assert (
            f"{manager.kind}[0,100) owner=1 behind the exclusive lock [0,100) "
            "held by owner 0" in str(failures[1])
        )

    def test_shared_engine_waiters_wake_together(self):
        lm = CentralLockManager()
        granted = []

        def writer():
            lock, _ = lm.acquire(owner=0, start=0, stop=10, now=0.0)
            lm.release(lock, now=1.0)

        def reader(owner):
            lock, _ = lm.acquire(owner=owner, start=0, stop=10,
                                 mode=LockMode.SHARED, now=0.0)
            granted.append(owner)
            lm.release(lock, now=2.0)

        engine = Engine()
        engine.spawn(writer)
        for owner in (1, 2, 3):
            engine.spawn(lambda owner=owner: reader(owner))
        engine.run()
        assert sorted(granted) == [1, 2, 3]

    def test_distributed_manager_engine_tasks_serialise(self):
        lm = DistributedLockManager(acquire_latency=0.01)
        grants = []

        def locker(owner):
            lock, grant = lm.acquire(owner=owner, start=0, stop=50, now=0.0)
            grants.append((owner, grant))
            lm.release(lock, now=grant + 0.5)

        engine = Engine()
        for owner in range(3):
            engine.spawn(lambda owner=owner: locker(owner))
        engine.run()
        assert [o for o, _ in grants] == [0, 1, 2]
        # Serialisation is visible in virtual time: each grant waits for the
        # previous virtual release.
        assert grants[1][1] >= grants[0][1] + 0.5
        assert grants[2][1] >= grants[1][1] + 0.5


class TestDistributedLockManager:
    def test_first_acquisition_costs_token_round_trip(self):
        lm = DistributedLockManager(acquire_latency=0.01, local_latency=0.0001)
        _, grant = lm.acquire(owner=0, start=0, stop=100, now=0.0)
        assert grant == pytest.approx(0.01)
        assert lm.token_acquisition_count == 1
        assert lm.local_grant_count == 0

    def test_cached_token_makes_relocking_cheap(self):
        lm = DistributedLockManager(acquire_latency=0.01, local_latency=0.0001)
        lock, _ = lm.acquire(owner=0, start=0, stop=100, now=0.0)
        lm.release(lock, now=0.02)
        _, grant = lm.acquire(owner=0, start=10, stop=50, now=0.02)
        assert grant == pytest.approx(0.02 + 0.0001)
        assert lm.local_grant_count == 1

    def test_revocation_counts_and_costs(self):
        lm = DistributedLockManager(acquire_latency=0.01, revoke_latency=0.005)
        a, _ = lm.acquire(owner=0, start=0, stop=100, now=0.0)
        lm.release(a, now=0.05)
        _, grant = lm.acquire(owner=1, start=50, stop=150, now=0.0)
        # Must wait for owner 0's virtual release (0.05), pay the token
        # acquisition plus one revocation.
        assert grant == pytest.approx(0.05 + 0.01 + 0.005)
        assert lm.revocation_count == 1
        # Owner 0's token no longer covers the revoked part.
        assert not lm.token_of(0).covers(IntervalSet.single(50, 100))
        assert lm.token_of(0).covers(IntervalSet.single(0, 50))

    def test_tokens_give_exclusive_ranges(self):
        lm = DistributedLockManager()
        a, _ = lm.acquire(owner=0, start=0, stop=50)
        lm.release(a)
        b, _ = lm.acquire(owner=1, start=50, stop=100)
        lm.release(b)
        assert lm.token_of(0).covers(IntervalSet.single(0, 50))
        assert lm.token_of(1).covers(IntervalSet.single(50, 100))
        assert not lm.token_of(0).overlaps(lm.token_of(1))

    def test_active_conflicting_lock_blocks(self):
        lm = DistributedLockManager()
        granted = []

        def first_locker():
            first, _ = lm.acquire(owner=0, start=0, stop=100)
            current_task().clock.advance(10.0)
            sequence_point()  # the peer runs up to the manager and parks
            assert granted == []
            lm.release(first, now=1.0)

        def second():
            lock, _ = lm.acquire(owner=1, start=0, stop=10)
            granted.append(lock)

        engine = Engine()
        engine.spawn(first_locker)
        engine.spawn(second)
        engine.run()
        assert len(granted) == 1

    def test_relinquish_tokens(self):
        lm = DistributedLockManager()
        lock, _ = lm.acquire(owner=0, start=0, stop=10)
        lm.release(lock)
        lm.relinquish_tokens(0)
        assert lm.token_of(0).is_empty()

    def test_double_release_rejected(self):
        lm = DistributedLockManager()
        lock, _ = lm.acquire(owner=0, start=0, stop=10)
        lm.release(lock)
        with pytest.raises(LockViolation):
            lm.release(lock)

    def test_release_all(self):
        lm = DistributedLockManager()
        lm.acquire(owner=0, start=0, stop=10)
        lm.acquire(owner=0, start=20, stop=30)
        assert lm.release_all(0) == 2
        assert lm.held_locks() == []

    def test_invalid_inputs(self):
        lm = DistributedLockManager()
        with pytest.raises(InvalidRequest):
            lm.acquire(owner=0, start=5, stop=1)
        with pytest.raises(ValueError):
            DistributedLockManager(acquire_latency=-1)
