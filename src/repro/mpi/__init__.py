"""Event-driven SPMD MPI runtime simulator.

Provides communicators (point-to-point + collectives), non-blocking
requests, reduction operators, per-rank virtual clocks and the
:func:`~repro.mpi.runtime.run_spmd` execution harness.  Ranks run as
cooperative tasks of a deterministic discrete-event scheduler
(:mod:`repro.core.engine`): one rank executes at a time, resumed in
``(virtual time, rank)`` order, so runs with thousands of ranks are cheap
and bit-for-bit reproducible.
"""

from .clock import VirtualClock, synchronize_clocks
from .comm import PROC_NULL, ROOT, CommCostModel, Communicator, Group, Intercomm
from .errors import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    CommunicatorError,
    DeadlockError,
    MPIError,
    RankError,
    SPMDExecutionError,
    TagError,
)
from .reduce_ops import BAND, BOR, LAND, LOR, MAX, MIN, PROD, SUM
from .runtime import SPMDResult, run_spmd
from .status import ANY_SOURCE, ANY_TAG, Request, Status, Testall, Waitall, Waitany

__all__ = [
    "Communicator",
    "CommCostModel",
    "Group",
    "Intercomm",
    "ROOT",
    "PROC_NULL",
    "VirtualClock",
    "synchronize_clocks",
    "run_spmd",
    "SPMDResult",
    "Request",
    "Status",
    "Waitall",
    "Testall",
    "Waitany",
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "MPIError",
    "CommunicatorError",
    "RankError",
    "TagError",
    "CollectiveAbortedError",
    "CollectiveMismatchError",
    "DeadlockError",
    "SPMDExecutionError",
]
