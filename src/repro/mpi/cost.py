"""Virtual-time cost model for communication operations.

Kept free of other runtime imports so layers that only need the cost model
(the executor, the benchmark harness) never pull in the communicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["BENCH_COMM_COST", "CommCostModel"]


@dataclass(frozen=True)
class CommCostModel:
    """Virtual-time cost of communication operations.

    ``latency`` is charged once per operation, ``byte_cost`` per payload byte
    (only for payloads exposing ``nbytes`` or ``__len__``).  The default model
    is free communication, which is appropriate when only the I/O time is
    being studied; the benchmark harness uses a small non-zero model so the
    negotiation overhead of the handshaking strategies is represented.
    """

    latency: float = 0.0
    byte_cost: float = 0.0

    def cost(self, payload: Any = None) -> float:
        nbytes = 0
        if payload is not None:
            nbytes = getattr(payload, "nbytes", None)
            if nbytes is None:
                try:
                    nbytes = len(payload)
                except TypeError:
                    nbytes = 0
        return self.latency + self.byte_cost * float(nbytes)


#: The communication model the benchmarks and the coupled pipelines run on:
#: 30 µs per operation, 10 ns per byte.
BENCH_COMM_COST = CommCostModel(latency=30e-6, byte_cost=1e-8)


class _Volume:
    """A payload stand-in carrying only a byte count for cost charging."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


def payload_nbytes(obj: Any) -> int:
    """Best-effort byte volume of a (possibly nested) payload."""
    # Exact-type fast paths for what collectives overwhelmingly carry
    # (``None``, ``bytes``, flat lists of ``bytes``, lists of ``(offset,
    # bytes)`` / ``(origin, offset, bytes)`` pieces, counted inline); none of
    # these types has an ``nbytes`` attribute, so skipping the probe below
    # changes no count.  Anything else recurses.
    if obj is None:
        return 0
    kind = type(obj)
    if kind is bytes or kind is bytearray:
        return len(obj)
    if kind is list or kind is tuple:
        total = 0
        for item in obj:
            kind = type(item)
            if kind is bytes:
                total += len(item)
            elif kind is tuple:
                for part in item:
                    kind = type(part)
                    if kind is bytes:
                        total += len(part)
                    elif kind is not int:
                        total += payload_nbytes(part)
            elif kind is not int:
                total += payload_nbytes(item)
        return total
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(value) for value in obj.values())
    return 0
