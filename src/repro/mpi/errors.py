"""Exception hierarchy for the MPI runtime simulator."""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

__all__ = [
    "MPIError",
    "CommunicatorError",
    "RankError",
    "TagError",
    "CollectiveMismatchError",
    "CollectiveAbortedError",
    "DeadlockError",
    "SPMDExecutionError",
]


class MPIError(Exception):
    """Base class for all errors raised by the MPI simulator."""


class CommunicatorError(MPIError):
    """Misuse of a communicator (wrong sizes, freed communicator, ...)."""


class RankError(MPIError):
    """A rank argument is outside ``[0, size)``."""


class TagError(MPIError):
    """An invalid message tag was supplied."""


class CollectiveMismatchError(MPIError):
    """Ranks disagreed about the collective operation being performed."""


class CollectiveAbortedError(MPIError):
    """A collective was abandoned because a participating rank failed."""


class DeadlockError(MPIError):
    """A rank was still blocked when the run could make no further progress.

    Raised per rank by :func:`repro.mpi.runtime.run_spmd` when the scheduler
    finds blocked tasks but nothing runnable — e.g. a ``recv`` whose matching
    send never happens, or a collective a peer never enters.
    """


def rank_label(key: Hashable) -> str:
    """How a failure key reads in a message: ``rank 3``, or ``job 'a' rank
    3`` for the ``(job_id, rank)`` key of a tagged world."""
    if isinstance(key, tuple):
        return f"job {key[0]!r} rank {key[1]}"
    return f"rank {key}"


class SPMDExecutionError(MPIError):
    """One or more ranks raised inside :func:`repro.mpi.runtime.run_worlds`.

    Attributes
    ----------
    failures:
        Dict mapping a rank's key to the exception instance that rank
        raised.  The key is the rank number (:func:`~repro.mpi.runtime.
        run_spmd`), or ``(job_id, rank)`` for a scheduler job.  Key ``-1``
        is a pseudo-entry used when only *detached progress tasks*
        (nonblocking I/O) missed a wall-clock deadline — they are not ranks,
        so their straggling is reported under this single entry.
    tracebacks:
        Dict mapping a rank's key to the rank-local formatted traceback (the
        call stack *inside that rank's function*), where one was captured.
        The first failing rank's traceback is included in ``str(exc)`` so
        the root cause is visible without unpacking the attributes.
    """

    def __init__(
        self,
        failures: Mapping[Hashable, BaseException],
        tracebacks: Optional[Mapping[Hashable, str]] = None,
    ) -> None:
        self.failures: Dict[Hashable, BaseException] = dict(failures)
        self.tracebacks: Dict[Hashable, str] = dict(tracebacks or {})
        ordered = sorted(self.failures)
        ranks = ", ".join(rank_label(key) for key in ordered[:16])
        if len(ordered) > 16:
            ranks += f", ... ({len(ordered) - 16} more)"
        first_key = ordered[0]
        first = self.failures[first_key]
        message = (
            f"SPMD execution failed on {ranks}; "
            f"{rank_label(first_key)}: {type(first).__name__}: {first}"
        )
        first_tb = self.tracebacks.get(first_key)
        if first_tb:
            message += (
                f"\n--- {rank_label(first_key)} traceback ---\n{first_tb.rstrip()}"
            )
        super().__init__(message)

    def traceback_of(self, rank: Hashable) -> Optional[str]:
        """The rank-local traceback of ``rank``'s key, if one was captured."""
        return self.tracebacks.get(rank)
