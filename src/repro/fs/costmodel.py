"""Virtual-time cost model primitives.

The performance side of the reproduction (Figure 8) is computed in virtual
time: every shared resource — an I/O server, a client's network link, the
lock manager — is modelled as a :class:`Resource` that can serve one request
at a time.  A request arriving at virtual time ``t`` with service duration
``d`` begins at ``max(t, next_free)`` and completes at ``begin + d``; the
resource then remains busy until that completion time.  Requests issued by
concurrently running rank threads therefore queue up on shared resources in
virtual time exactly as they would on real hardware, which is what produces
the locking-serialisation and bandwidth-sharing effects the paper measures.

:class:`CostModel` converts request sizes into service durations using a
simple ``latency + bytes / bandwidth`` model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import sequence_point

__all__ = ["CostModel", "Resource"]


@dataclass(frozen=True)
class CostModel:
    """Latency/bandwidth service-time model.

    Parameters
    ----------
    latency:
        Fixed per-request overhead in seconds.
    bandwidth:
        Sustained transfer rate in bytes/second.  ``float("inf")`` makes the
        transfer time zero (useful for tests that only care about latencies).
    """

    latency: float = 0.0
    bandwidth: float = float("inf")

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def service_time(self, nbytes: int) -> float:
        """Seconds needed to transfer ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth


class Resource:
    """A serially-reusable resource with a virtual-time queue.

    Reservations made from engine tasks (SPMD ranks) pass a scheduler
    *sequence point* first: the task yields to the event loop if any ready
    task has an earlier virtual time, so resources are reserved in global
    virtual-time order — the discrete-event ordering — and every run of the
    same workload produces the identical queueing sequence.  A request that
    occupies several resources at one instant passes one sequence point and
    then :meth:`occupy`-s each (a second one could not yield: nothing between
    them advances a clock).  Exactly one engine task runs at a time and a
    reservation never yields between reading and writing the counters, so
    they need no lock.
    """

    def __init__(self, name: str, cost: CostModel) -> None:
        self.name = name
        self.cost = cost
        self._next_free = 0.0
        self._busy_time = 0.0
        self._requests = 0

    def reserve(self, start: float, nbytes: int) -> float:
        """Reserve the resource for a transfer of ``nbytes`` starting no
        earlier than virtual time ``start``; returns the completion time."""
        sequence_point()
        return self._occupy(start, self.cost.service_time(nbytes))

    def occupy(self, start: float, nbytes: int) -> float:
        """:meth:`reserve` for a request whose sequence point has already
        been passed."""
        return self._occupy(start, self.cost.service_time(nbytes))

    def reserve_duration(self, start: float, duration: float) -> float:
        """Reserve an explicit ``duration`` (used for non-transfer services
        such as lock-manager round trips)."""
        sequence_point()
        if duration < 0:
            raise ValueError("duration must be non-negative")
        return self._occupy(start, duration)

    def _occupy(self, start: float, duration: float) -> float:
        end = (start if start > self._next_free else self._next_free) + duration
        self._next_free = end
        self._busy_time += duration
        self._requests += 1
        return end

    @property
    def next_free(self) -> float:
        """Virtual time at which the resource becomes idle."""
        return self._next_free

    @property
    def busy_time(self) -> float:
        """Total virtual busy time accumulated."""
        return self._busy_time

    @property
    def request_count(self) -> int:
        """Number of reservations made."""
        return self._requests

    def reset(self) -> None:
        """Clear all accounting (between benchmark repetitions)."""
        self._next_free = 0.0
        self._busy_time = 0.0
        self._requests = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource({self.name!r}, next_free={self._next_free:.6f})"
