"""Distributed (token-based) byte-range lock manager — GPFS style.

GPFS improves lock scalability by handing out *tokens*: the first client to
lock a byte range pays a round trip to the token server, but once a client
holds a token covering a range it can lock and unlock within that range
locally, without contacting the server [Schmuck & Haskin, FAST'02] — the
behaviour the paper references in Section 3.2.  When another client needs an
overlapping range the token must be revoked, which costs a revocation round
trip and must wait for any active lock inside the conflicting range.

The important consequence the paper measures is unchanged: **concurrent
writes to overlapping ranges are still sequential**, token protocol or not.
The distributed manager only cheapens repeated, non-conflicting lock traffic.

Tokens come in the two lock modes (reader-writer semantics, as in GPFS):
**read tokens** may be held by any number of clients over the same range and
are only revoked when a writer needs the range; a **write token** is
exclusive and conflicts with everyone else's tokens of either mode.  A
shared-mode lock therefore never revokes another reader's token — the read
side of a collective stays revocation-free no matter how many clients read
the same overlapped bytes.

:class:`DistributedLockManager` exposes the same ``acquire``/``release``
interface as :class:`~repro.fs.lockmanager.CentralLockManager`, so the
locking atomicity strategy and the FS client are oblivious to which protocol
a file-system personality uses.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..core.intervals import Interval, IntervalSet
from .errors import InvalidRequest, LockViolation
from .lockmanager import GrantedLock, LockMode, _WaiterQueue

__all__ = ["DistributedLockManager"]


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
