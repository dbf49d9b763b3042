"""Test-only oracle: the two lock managers ``src/`` had before the lock
service became one body, kept verbatim.

``repro.fs.lockmanager.LockManager`` writes acquire / grant time / release /
history once, and a protocol (``CentralLockManager``, the GPFS-token
``DistributedLockManager``) is only the price of a grant and the counters
that price keeps.  Below are the classes it replaced — each a complete
manager with its own copy of that body, and the waiter queue they shared —
moved here unchanged, so ``tests/test_fs_locking_differential.py`` can
require the one body to grant, time, record and count exactly as they did on
generated programs.  ``GrantedLock``, ``LockMode``, the interval types and
the errors are imported, not copied: they did not change.  The token manager
below never counts a wait (it has no ``wait_count``); the one body counts
waits on every protocol.

Never imported by ``src/``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.engine import Task, current_task
from repro.core.intervals import Interval, IntervalSet
from repro.fs.errors import InvalidRequest, LockViolation
from repro.fs.lockmanager import GrantedLock, LockMode

__all__ = ["CentralLockManager", "DistributedLockManager"]


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
    """The engine tasks waiting on one manager's granted locks (both lock
    managers use it).

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
        returns whether it had to wait.

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
            if task is None:
                held = holder.interval
                raise LockViolation(
                    f"{request} conflicts with the {holder.mode} lock "
                    f"[{held.start},{held.stop}) held by owner {holder.owner}; "
                    "only an engine task can wait for a release"
                )
            waited = True
            entry = (task, interval, mode, owner)
            self._waiters.append(entry)
            try:
                task.engine.wait(request)
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


class CentralLockManager:
    """Blocking byte-range lock manager with virtual-time accounting.

    Callers run as engine tasks (the SPMD ranks) and park on the scheduler
    while a conflicting lock is held — the manager's queue is processed
    deterministically in virtual-time order, and the engine runs one task at
    a time, so the manager needs no lock of its own.
    """

    def __init__(self, request_latency: float = 0.0) -> None:
        if request_latency < 0:
            raise ValueError("request_latency must be non-negative")
        self.request_latency = request_latency
        self._granted: Dict[int, GrantedLock] = {}
        #: Released locks, kept so later acquisitions can be ordered after the
        #: virtual release time of conflicting locks even when the real-time
        #: race has already been resolved (see :meth:`acquire`).
        self._history: List[GrantedLock] = []
        self._waiters = _WaiterQueue(self._granted)
        self._ids = itertools.count(1)
        self._total_waits = 0
        self._grants_by_mode: Dict[str, int] = {
            LockMode.SHARED: 0,
            LockMode.EXCLUSIVE: 0,
        }

    # -- queries -----------------------------------------------------------------

    def held_locks(self) -> List[GrantedLock]:
        """Snapshot of currently granted locks."""
        return list(self._granted.values())

    @property
    def wait_count(self) -> int:
        """How many acquisitions had to wait for a conflicting lock."""
        return self._total_waits

    @property
    def shared_grant_count(self) -> int:
        """Shared-mode (reader) locks granted since the last reset."""
        return self._grants_by_mode[LockMode.SHARED]

    @property
    def exclusive_grant_count(self) -> int:
        """Exclusive-mode (writer) locks granted since the last reset."""
        return self._grants_by_mode[LockMode.EXCLUSIVE]

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
            at least ``now + request_latency``, and no earlier than the
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
        if self._waiters.wait_until_grantable(interval, mode, owner, "lock"):
            self._total_waits += 1
        return self._grant(owner, interval, mode, now)

    def _grant(
        self, owner: int, interval: Interval, mode: str, now: float
    ) -> Tuple[GrantedLock, float]:
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
        grant_time = max([now] + prior_releases) + self.request_latency
        lock = GrantedLock(
            lock_id=next(self._ids),
            owner=owner,
            interval=interval,
            mode=mode,
            granted_at=grant_time,
        )
        self._granted[lock.lock_id] = lock
        self._grants_by_mode[mode] += 1
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

    def reset_history(self) -> None:
        """Forget released-lock history (between benchmark repetitions)."""
        self._history.clear()
        self._total_waits = 0
        self._grants_by_mode = {LockMode.SHARED: 0, LockMode.EXCLUSIVE: 0}


class DistributedLockManager:
    """Token-based byte-range lock manager with virtual-time accounting.

    Parameters
    ----------
    acquire_latency:
        Virtual-time cost of obtaining a token from the token server.
    revoke_latency:
        Additional virtual-time cost per client whose token must be revoked.
    local_latency:
        Virtual-time cost of a lock acquired entirely under an already-held
        token (no server communication).
    """

    def __init__(
        self,
        acquire_latency: float = 0.0,
        revoke_latency: float = 0.0,
        local_latency: float = 0.0,
    ) -> None:
        for name, value in (
            ("acquire_latency", acquire_latency),
            ("revoke_latency", revoke_latency),
            ("local_latency", local_latency),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        self.acquire_latency = acquire_latency
        self.revoke_latency = revoke_latency
        self.local_latency = local_latency
        #: Exclusive (write) tokens per owner.
        self._tokens: Dict[int, IntervalSet] = {}
        #: Shared (read) tokens per owner; any number may overlap.
        self._read_tokens: Dict[int, IntervalSet] = {}
        self._granted: Dict[int, GrantedLock] = {}
        self._history: List[GrantedLock] = []
        self._waiters = _WaiterQueue(self._granted)
        self._ids = itertools.count(1)
        self._local_grants = 0
        self._token_acquisitions = 0
        self._revocations = 0

    # -- statistics -----------------------------------------------------------

    @property
    def local_grant_count(self) -> int:
        """Locks granted purely from a cached token (no server traffic)."""
        return self._local_grants

    @property
    def token_acquisition_count(self) -> int:
        """Locks that required a token-server round trip."""
        return self._token_acquisitions

    @property
    def revocation_count(self) -> int:
        """Number of token revocations performed."""
        return self._revocations

    def token_of(self, owner: int) -> IntervalSet:
        """Byte ranges for which ``owner`` currently holds the write token."""
        return self._tokens.get(owner, IntervalSet.empty())

    def held_locks(self) -> List[GrantedLock]:
        """Snapshot of currently granted (active) locks."""
        return list(self._granted.values())

    # -- acquisition / release ---------------------------------------------------

    def acquire(
        self,
        owner: int,
        start: int,
        stop: int,
        mode: str = LockMode.EXCLUSIVE,
        now: float = 0.0,
    ) -> Tuple[GrantedLock, float]:
        """Acquire a byte-range lock; see
        :meth:`repro.fs.lockmanager.CentralLockManager.acquire` for the
        contract.  Token state determines the virtual-time cost."""
        if mode not in (LockMode.SHARED, LockMode.EXCLUSIVE):
            raise InvalidRequest(f"unknown lock mode {mode!r}")
        if start < 0 or stop < start:
            raise InvalidRequest(f"invalid lock range [{start}, {stop})")
        interval = Interval(start, stop)
        # Token-server requests happen in global virtual-time order; the
        # caller parks while an *active* lock by another client overlaps the
        # range (a cached token alone never blocks — it is revoked).
        self._waiters.wait_until_grantable(interval, mode, owner, "token-lock")
        return self._grant(owner, interval, mode, now)

    def _grant(
        self, owner: int, interval: Interval, mode: str, now: float
    ) -> Tuple[GrantedLock, float]:
        """Grant a conflict-free request."""
        wanted = IntervalSet.single(interval.start, interval.stop)
        have_write = self._tokens.get(owner, IntervalSet.empty())
        have_read = self._read_tokens.get(owner, IntervalSet.empty())
        # A write token also satisfies reads; a read token never satisfies
        # writes.
        covered = have_write.covers(wanted) or (
            mode == LockMode.SHARED and have_read.covers(wanted)
        )
        if covered:
            cost = self.local_latency
            self._local_grants += 1
        else:
            # Revoke the conflicting part of everyone else's tokens: a read
            # acquisition conflicts only with write tokens (readers co-hold),
            # a write acquisition conflicts with tokens of either mode.
            revoked = 0
            for other, token in list(self._tokens.items()):
                if other == owner:
                    continue
                if token.overlaps(wanted):
                    self._tokens[other] = token.subtract(wanted)
                    revoked += 1
            if mode == LockMode.EXCLUSIVE:
                for other, token in list(self._read_tokens.items()):
                    if other == owner:
                        continue
                    if token.overlaps(wanted):
                        self._read_tokens[other] = token.subtract(wanted)
                        revoked += 1
                self._tokens[owner] = have_write.union(wanted)
            else:
                self._read_tokens[owner] = have_read.union(wanted)
            cost = self.acquire_latency + revoked * self.revoke_latency
            self._token_acquisitions += 1
            self._revocations += revoked

        prior_releases = [
            g.released_at
            for g in self._history
            if g.released_at is not None and g.conflicts_with(interval, mode, owner)
        ]
        grant_time = max([now] + prior_releases) + cost
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
        """Release an active lock (the token stays cached with the owner)."""
        if lock.lock_id not in self._granted:
            raise LockViolation(f"lock {lock.lock_id} is not held")
        stored = self._granted.pop(lock.lock_id)
        stored.released_at = now
        lock.released_at = now
        self._history.append(stored)
        self._waiters.wake_eligible()

    def release_all(self, owner: int, now: float = 0.0) -> int:
        """Release every active lock held by ``owner``; returns how many."""
        mine = [g for g in self._granted.values() if g.owner == owner]
        for g in mine:
            del self._granted[g.lock_id]
            g.released_at = now
            self._history.append(g)
        if mine:
            self._waiters.wake_eligible()
        return len(mine)

    def relinquish_tokens(self, owner: int) -> None:
        """Drop all tokens cached by ``owner`` (e.g. when it closes the file)."""
        self._tokens.pop(owner, None)
        self._read_tokens.pop(owner, None)

    def reset_history(self) -> None:
        """Forget released-lock history and statistics."""
        self._history.clear()
        self._local_grants = 0
        self._token_acquisitions = 0
        self._revocations = 0
