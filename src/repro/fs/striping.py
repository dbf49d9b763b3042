"""File striping across I/O servers.

Parallel file systems such as GPFS and XFS-backed clusters spread a file's
bytes round-robin across a set of I/O servers in fixed-size *stripe units*.
The layout matters to the performance model: a single client writing a large
contiguous range can drive several servers at once, while many clients
writing disjoint ranges share the servers' aggregate bandwidth.

:class:`StripingLayout` maps byte ranges to per-server chunks.  A layout with
``num_servers == 1`` degenerates to an unstriped (NFS-like) file, which is
how the ENFS personality is configured.

:meth:`StripingLayout.chunks` *describes* the layout, one
:class:`StripeChunk` per stripe unit touched.  The charge path does not walk
it: every transfer asks :meth:`StripingLayout.bytes_per_server` for its
``(server, bytes)`` pairs, which is integer arithmetic on the range's two end
units — and most transfers (a row segment of an array) sit inside one stripe
unit and get their one pair at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = ["StripeChunk", "StripingLayout"]


@dataclass(frozen=True)
class StripeChunk:
    """A contiguous piece of a request that lands on a single server."""

    server: int
    offset: int     # file offset of the chunk
    length: int     # bytes in the chunk


@dataclass(frozen=True)
class StripingLayout:
    """Round-robin striping of a file across ``num_servers`` servers.

    Parameters
    ----------
    num_servers:
        Number of I/O servers holding the file.
    stripe_size:
        Stripe unit in bytes; offset ``o`` lives on server
        ``(o // stripe_size) % num_servers``.
    """

    num_servers: int
    stripe_size: int

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")

    def server_of(self, offset: int) -> int:
        """Server index holding byte ``offset``."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return (offset // self.stripe_size) % self.num_servers

    def chunks(self, offset: int, nbytes: int) -> Iterator[StripeChunk]:
        """Split ``[offset, offset + nbytes)`` into per-server chunks in
        file-offset order."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        pos = offset
        remaining = nbytes
        while remaining > 0:
            within = pos % self.stripe_size
            take = min(self.stripe_size - within, remaining)
            yield StripeChunk(server=self.server_of(pos), offset=pos, length=take)
            pos += take
            remaining -= take

    def bytes_per_server(self, offset: int, nbytes: int) -> Tuple[Tuple[int, int], ...]:
        """``(server, bytes)`` for every server the range touches, in the order
        the range first touches them (the fold of :meth:`chunks`, computed
        from the stripe-unit indices of its two ends)."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if nbytes == 0:
            return ()
        unit, servers = self.stripe_size, self.num_servers
        first, head = divmod(offset, unit)
        if head + nbytes <= unit:
            return ((first % servers, nbytes),)
        last, tail = divmod(offset + nbytes - 1, unit)
        units = last - first + 1
        # Server k of the round-robin holds units first+k, first+k+servers, …;
        # count them whole, then take back what the two end units lack.
        shares = [((units - 1 - k) // servers + 1) * unit for k in range(min(units, servers))]
        shares[0] -= head
        shares[(units - 1) % servers] -= unit - 1 - tail
        return tuple(((first + k) % servers, share) for k, share in enumerate(shares))

    def servers_touched(self, offset: int, nbytes: int) -> List[int]:
        """Sorted list of servers the range touches."""
        return sorted(server for server, _ in self.bytes_per_server(offset, nbytes))
