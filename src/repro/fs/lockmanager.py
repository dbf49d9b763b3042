"""Byte-range lock service: one manager body, two ways to price a grant.

The locking-based atomicity strategy wraps every MPI write in an exclusive
byte-range lock covering the process's whole file-view extent (Section 3.2 of
the paper).  This module provides the lock service: shared read locks,
exclusive write locks, blocking acquisition, and — because performance is
measured in virtual time — propagation of the *virtual* release time of a
conflicting lock to the waiting client, so lock-induced serialisation shows
up in the measured bandwidth.

:class:`LockManager` is that service, written once: argument checks, the
wait for conflicting holders, the grant time, the held and released locks and
the wait count.  A *protocol* is only what a grant costs and the statistics
that cost keeps:

:class:`CentralLockManager`
    The paper's "central" manager (NFS/XFS): every acquisition pays one round
    trip to the manager (``request_latency``); grants are counted by mode.
:class:`~repro.fs.tokens.DistributedLockManager`
    GPFS tokens: a grant under a cached token is local, any other pays a
    token round trip plus one revocation per client whose token it takes.

Either way conflicting requests are granted strictly one at a time.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.engine import Task, current_task
from ..core.intervals import Interval
from .errors import InvalidRequest, LockViolation

__all__ = ["LockMode", "GrantedLock", "LockManager", "CentralLockManager"]


class LockMode:
    """Lock modes: shared (read) and exclusive (write)."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class GrantedLock:
    """A currently-held byte-range lock."""

    lock_id: int
    owner: int
    interval: Interval
    mode: str
    #: Virtual time at which the lock was granted.
    granted_at: float = 0.0
    #: Virtual time at which the lock was released (filled in on release).
    released_at: Optional[float] = field(default=None, compare=False)

    def conflicts_with(self, interval: Interval, mode: str, owner: int) -> bool:
        """True when a new request by ``owner`` for ``interval``/``mode``
        cannot coexist with this granted lock."""
        if owner == self.owner:
            return False
        if not self.interval.overlaps(interval):
            return False
        return self.mode == LockMode.EXCLUSIVE or mode == LockMode.EXCLUSIVE


def _requests_conflict(
    a_iv: Interval, a_mode: str, a_owner: int,
    b_iv: Interval, b_mode: str, b_owner: int,
) -> bool:
    """Whether two pending lock requests cannot be granted together."""
    if a_owner == b_owner:
        return False
    if not a_iv.overlaps(b_iv):
        return False
    return a_mode == LockMode.EXCLUSIVE or b_mode == LockMode.EXCLUSIVE


class _WaiterQueue:
    """The engine tasks waiting on one manager's granted locks.

    Tasks park with their pending request attached; :meth:`wake_eligible`
    wakes the waiters whose request no longer conflicts, granting greedily
    in queue order against the held locks *plus* the requests already woken
    in the same pass — so a convoy of exclusive waiters on one range wakes
    exactly one task per release instead of the whole queue, and a fully
    serialised queue costs O(P) hand-offs, not O(P^2).  Waiters re-check
    their predicate when they resume, so an over-eager wake only re-parks.
    Shared readers wake together.
    """

    def __init__(self, granted: Dict[int, GrantedLock]) -> None:
        #: The owning manager's table of granted locks (shared, not copied).
        self._granted = granted
        self._waiters: List[Tuple["Task", Interval, str, int]] = []

    def holder(self, interval: Interval, mode: str, owner: int) -> Optional[GrantedLock]:
        """A granted lock the request cannot coexist with, if there is one."""
        for lock in self._granted.values():
            if lock.conflicts_with(interval, mode, owner):
                return lock
        return None

    def wait_until_grantable(
        self, interval: Interval, mode: str, owner: int, kind: str
    ) -> bool:
        """Park the calling engine task while a conflicting lock is held;
        returns whether it had to wait.  ``kind`` names the request in the
        wait reason and in the error.

        Requests reach the manager in global virtual-time order, so a run's
        lock-grant sequence is deterministic.  Only an engine task can wait:
        a caller outside any engine is granted when nothing conflicts and
        gets :class:`LockViolation` when something does — nobody could ever
        run to release the lock it would sleep on.
        """
        task = current_task()
        if task is not None:
            task.engine.sequence(task)
        waited = False
        while (holder := self.holder(interval, mode, owner)) is not None:
            request = f"{kind}[{interval.start},{interval.stop}) owner={owner}"
            held = holder.interval
            blocker = (
                f"the {holder.mode} lock [{held.start},{held.stop}) "
                f"held by owner {holder.owner}"
            )
            if task is None:
                raise LockViolation(
                    f"{request} conflicts with {blocker}; "
                    "only an engine task can wait for a release"
                )
            waited = True
            entry = (task, interval, mode, owner)
            self._waiters.append(entry)
            try:
                # The reason names the holder, so a deadlock report left by a
                # holder that never releases says who held the range.
                task.engine.wait(f"{request} behind {blocker}")
            except BaseException:
                # Cancelled or aborted while parked: drop the stale registration.
                if entry in self._waiters:
                    self._waiters.remove(entry)
                raise
        return waited

    def wake_eligible(self) -> None:
        """Wake the waiters whose request no granted lock conflicts with any
        more (call after every release)."""
        if not self._waiters:
            return
        woken: List[Tuple["Task", Interval, str, int]] = []
        for entry in list(self._waiters):
            _, interval, mode, owner = entry
            if self.holder(interval, mode, owner) is not None:
                continue
            if any(
                _requests_conflict(interval, mode, owner, w_iv, w_mode, w_owner)
                for _, w_iv, w_mode, w_owner in woken
            ):
                continue
            woken.append(entry)
            self._waiters.remove(entry)
        for entry in woken:
            entry[0].engine.wake(entry[0])


class LockManager(ABC):
    """Blocking byte-range lock manager with virtual-time accounting.

    Callers run as engine tasks (the SPMD ranks) and park on the scheduler
    while a conflicting lock is held — the manager's queue is processed
    deterministically in virtual-time order, and the engine runs one task at
    a time, so the manager needs no lock of its own.  A protocol subclasses
    it with its constructor and :meth:`_price`, and nothing else.
    """

    #: Names this protocol's requests in wait reasons and errors.
    kind = "lock"

    def __init__(self, **latencies: float) -> None:
        for name, value in latencies.items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, value)
        self._granted: Dict[int, GrantedLock] = {}
        #: Released locks, kept so later acquisitions can be ordered after the
        #: virtual release time of conflicting locks even when the real-time
        #: race has already been resolved (see :meth:`acquire`).
        self._history: List[GrantedLock] = []
        self._waiters = _WaiterQueue(self._granted)
        self._ids = itertools.count(1)
        #: ``"waits"`` plus the protocol's own statistics, by name.
        self._counts: Counter = Counter()

    @abstractmethod
    def _price(self, owner: int, interval: Interval, mode: str) -> float:
        """The virtual-time cost of granting a request nothing conflicts with
        any more; counts the grant in the protocol's statistics."""

    # -- queries -----------------------------------------------------------------

    def held_locks(self) -> List[GrantedLock]:
        """Snapshot of currently granted locks."""
        return list(self._granted.values())

    @property
    def wait_count(self) -> int:
        """How many acquisitions had to wait for a conflicting lock."""
        return self._counts["waits"]

    # -- acquisition / release ------------------------------------------------------

    def acquire(
        self,
        owner: int,
        start: int,
        stop: int,
        mode: str = LockMode.EXCLUSIVE,
        now: float = 0.0,
    ) -> Tuple[GrantedLock, float]:
        """Acquire a byte-range lock, blocking while conflicting locks are held.

        Parameters
        ----------
        owner:
            Requesting client id (MPI rank in this library).
        start, stop:
            Half-open byte range to lock.
        mode:
            :data:`LockMode.SHARED` or :data:`LockMode.EXCLUSIVE`.
        now:
            The requester's current virtual time.

        Returns
        -------
        (lock, grant_time):
            The granted lock and the virtual time at which it was granted —
            the protocol's price after ``now``, and no earlier than the
            virtual release time of any conflicting lock that had to be
            waited for.

        Raises :class:`LockViolation` when the request conflicts and the
        caller is not an engine task (see
        :meth:`_WaiterQueue.wait_until_grantable`).
        """
        if mode not in (LockMode.SHARED, LockMode.EXCLUSIVE):
            raise InvalidRequest(f"unknown lock mode {mode!r}")
        if start < 0 or stop < start:
            raise InvalidRequest(f"invalid lock range [{start}, {stop})")
        interval = Interval(start, stop)
        if self._waiters.wait_until_grantable(interval, mode, owner, self.kind):
            self._counts["waits"] += 1
        # The grant cannot happen, in virtual time, before the virtual
        # release of any conflicting lock that has already been released —
        # even if, in scheduling time, the conflict was over before this
        # request arrived.  This is what turns lock contention into
        # virtual-time serialisation.
        prior_releases = [
            g.released_at
            for g in self._history
            if g.released_at is not None and g.conflicts_with(interval, mode, owner)
        ]
        grant_time = max([now] + prior_releases) + self._price(owner, interval, mode)
        lock = GrantedLock(
            lock_id=next(self._ids),
            owner=owner,
            interval=interval,
            mode=mode,
            granted_at=grant_time,
        )
        self._granted[lock.lock_id] = lock
        return lock, grant_time

    def release(self, lock: GrantedLock, now: float = 0.0) -> None:
        """Release a previously granted lock at virtual time ``now``."""
        if lock.lock_id not in self._granted:
            raise LockViolation(f"lock {lock.lock_id} is not held")
        stored = self._granted.pop(lock.lock_id)
        stored.released_at = now
        # Keep the caller's object in sync so waiters polling either see it.
        lock.released_at = now
        self._history.append(stored)
        self._waiters.wake_eligible()

    def release_all(self, owner: int, now: float = 0.0) -> int:
        """Release every lock held by ``owner``; returns how many."""
        mine = [g for g in self._granted.values() if g.owner == owner]
        for g in mine:
            del self._granted[g.lock_id]
            g.released_at = now
            self._history.append(g)
        if mine:
            self._waiters.wake_eligible()
        return len(mine)

    def relinquish_tokens(self, owner: int) -> None:
        """Drop whatever ``owner`` has cached with the manager (e.g. when it
        closes the file); nothing, unless the protocol caches tokens."""

    def reset_history(self) -> None:
        """Forget released-lock history and statistics (between benchmark
        repetitions)."""
        self._history.clear()
        self._counts.clear()


class CentralLockManager(LockManager):
    """The central protocol: every grant is one round trip to the manager."""

    def __init__(self, request_latency: float = 0.0) -> None:
        super().__init__(request_latency=request_latency)

    def _price(self, owner: int, interval: Interval, mode: str) -> float:
        self._counts[mode] += 1
        return self.request_latency

    @property
    def shared_grant_count(self) -> int:
        """Shared-mode (reader) locks granted since the last reset."""
        return self._counts[LockMode.SHARED]

    @property
    def exclusive_grant_count(self) -> int:
        """Exclusive-mode (writer) locks granted since the last reset."""
        return self._counts[LockMode.EXCLUSIVE]
