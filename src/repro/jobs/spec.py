"""Job descriptions for the multi-tenant scheduler.

A :class:`JobSpec` is everything the scheduler needs to run one independent
SPMD job: how many ranks it has, which file it targets, the workload
geometry (an ``M x N`` byte array partitioned by one of the registered
patterns with ``overlap_columns`` ghost columns), whether the job writes or
reads, and which atomicity strategy it runs under.  Specs are plain data:
the scheduler instantiates one strategy object per job from the central
registry, so two jobs never share negotiation state even when they share a
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..patterns.workloads import rank_pattern_bytes

__all__ = ["JobSpec"]

#: A data factory maps (global_rank, nbytes) to the rank's contiguous stream.
DataFactory = Callable[[int, int], bytes]


@dataclass(frozen=True)
class JobSpec:
    """One independent SPMD job to be placed on the shared file system.

    Parameters
    ----------
    job_id:
        Stable identifier used in results, jsonlog records and error
        reports; must be unique within one scheduler run.
    nprocs:
        Rank count of the job's world communicator.
    M, N:
        Workload array shape in bytes (rows x row length).
    filename:
        Target file.  Jobs naming the same file *race* on it; jobs naming
        different files contend only for servers and client links.
    mode:
        ``"write"`` (a concurrent overlapping collective write) or
        ``"read"`` (a collective read of the file's current contents).
    strategy:
        Registered atomicity-strategy name (``"two-phase"``, ``"locking"``,
        ``"auto"``, ...).
    pattern:
        Partitioning of the array across the job's ranks (``column-wise``,
        ``row-wise`` or ``block-block``).
    overlap_columns:
        Ghost width shared between neighbouring ranks.
    data_factory:
        Stream generator for write jobs, called with the rank's *global*
        id (the job's rank offset plus the local rank) so concurrent jobs
        produce byte-distinguishable data by default.
    """

    job_id: str
    nprocs: int
    M: int
    N: int
    filename: str
    mode: str = "write"
    strategy: str = "two-phase"
    pattern: str = "column-wise"
    overlap_columns: int = 4
    data_factory: DataFactory = rank_pattern_bytes

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.nprocs <= 0:
            raise ValueError(f"job {self.job_id!r}: nprocs must be positive")
        if self.M <= 0 or self.N <= 0:
            raise ValueError(f"job {self.job_id!r}: array shape must be positive")
        if self.mode not in ("write", "read"):
            raise ValueError(
                f"job {self.job_id!r}: unknown mode {self.mode!r}; known: write, read"
            )

    @property
    def total_bytes(self) -> int:
        """Bytes of the underlying array (per-rank views may overlap)."""
        return self.M * self.N
