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

:class:`DistributedLockManager` is a :class:`~repro.fs.lockmanager.LockManager`
whose grant price is the token rule below — the wait, the grant time and the
lock records are the one body every protocol shares, so the locking
atomicity strategy and the FS client are oblivious to which protocol a
file-system personality uses.
"""

from __future__ import annotations

from typing import Dict

from ..core.intervals import Interval, IntervalSet
from .lockmanager import LockManager, LockMode

__all__ = ["DistributedLockManager"]


class DistributedLockManager(LockManager):
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

    kind = "token-lock"

    def __init__(
        self,
        acquire_latency: float = 0.0,
        revoke_latency: float = 0.0,
        local_latency: float = 0.0,
    ) -> None:
        super().__init__(
            acquire_latency=acquire_latency,
            revoke_latency=revoke_latency,
            local_latency=local_latency,
        )
        #: Exclusive (write) tokens per owner.
        self._tokens: Dict[int, IntervalSet] = {}
        #: Shared (read) tokens per owner; any number may overlap.
        self._read_tokens: Dict[int, IntervalSet] = {}

    # -- statistics -----------------------------------------------------------

    @property
    def local_grant_count(self) -> int:
        """Locks granted purely from a cached token (no server traffic)."""
        return self._counts["local"]

    @property
    def token_acquisition_count(self) -> int:
        """Locks that required a token-server round trip."""
        return self._counts["acquired"]

    @property
    def revocation_count(self) -> int:
        """Number of token revocations performed."""
        return self._counts["revoked"]

    def token_of(self, owner: int) -> IntervalSet:
        """Byte ranges for which ``owner`` currently holds the write token."""
        return self._tokens.get(owner, IntervalSet.empty())

    # -- the token rule ----------------------------------------------------------

    def _price(self, owner: int, interval: Interval, mode: str) -> float:
        # Only an *active* lock by another client makes a request wait; a
        # cached token alone never blocks — it is revoked here.
        wanted = IntervalSet.single(interval.start, interval.stop)
        have_write = self._tokens.get(owner, IntervalSet.empty())
        have_read = self._read_tokens.get(owner, IntervalSet.empty())
        # A write token also satisfies reads; a read token never satisfies
        # writes.
        covered = have_write.covers(wanted) or (
            mode == LockMode.SHARED and have_read.covers(wanted)
        )
        if covered:
            self._counts["local"] += 1
            return self.local_latency
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
        self._counts["acquired"] += 1
        self._counts["revoked"] += revoked
        return self.acquire_latency + revoked * self.revoke_latency

    def relinquish_tokens(self, owner: int) -> None:
        """Drop all tokens cached by ``owner`` (e.g. when it closes the file)."""
        self._tokens.pop(owner, None)
        self._read_tokens.pop(owner, None)
