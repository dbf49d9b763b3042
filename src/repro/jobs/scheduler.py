"""The multi-tenant scheduler: N independent SPMD jobs, one file system.

:class:`MultiTenantScheduler` turns every :class:`~repro.jobs.spec.JobSpec`
into one :class:`~repro.mpi.runtime.World` — a private communicator group
whose per-rank clocks start at the job's *arrival time*, tasks named
``job-<id>-rank-<r>`` and tagged with the job id — and launches them all with
one :func:`~repro.mpi.runtime.run_worlds` call: the same launch body as
:func:`~repro.mpi.runtime.run_spmd`, so every job runs on one shared
discrete-event engine, against one shared
:class:`~repro.fs.filesystem.ParallelFileSystem`.  The engine's
``(virtual time, task id)`` scheduling order interleaves the jobs exactly as
a real machine room would multiplex them: a job arriving later simply has
later-keyed tasks, and cross-job contention (server queues, client links,
byte-range locks, cache token revocations) flows through the unmodified
substrate.  A failing rank aborts its own job's collectives only, and the
launch raises :class:`~repro.mpi.errors.SPMDExecutionError` keyed by
``(job_id, rank)``.

Isolation model
---------------

*Per job*: the communicator world, the virtual clocks (a job's makespan is
measured from its own arrival), the strategy instance (negotiation state is
never shared across jobs), and the rank-to-client mapping.

*Shared*: the engine, the file system — servers, striping, lock managers,
token state, client-cache coherence — and any file two specs both name.

Every rank of job *j* gets the globally unique client id
``rank_base(j) + local_rank`` and an :class:`~repro.fs.client.FSClient`
whose ``provenance_base`` is the same offset, so per-byte writer provenance
recorded by the store stays unique across jobs and the post-hoc atomicity
verifiers (:mod:`repro.verify.atomicity`) work across racing jobs.  A
single-job run has offset 0 and is byte- and provenance-identical to the
direct engine path (pinned by ``tests/test_jobs_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.executor import rank_main
from ..core.regions import FileRegionSet
from ..core.registry import default_registry
from ..core.strategies import IOOutcome
from ..fs.filesystem import ParallelFileSystem
from ..mpi.comm import CommCostModel
from ..mpi.runtime import World, run_worlds
from ..patterns.partition import views_for_pattern
from ..verify.atomicity import (
    AtomicityReport,
    ReadObservation,
    StreamTrace,
    check_mpi_atomicity,
    check_stream_atomicity,
    rekey_regions,
)
from .metrics import aggregate_bandwidth, summarize_makespans
from .spec import JobSpec

__all__ = [
    "JobResult",
    "MultiTenantResult",
    "MultiTenantScheduler",
]


@dataclass
class JobResult:
    """Everything one job produced, accounted in its own timeline."""

    spec: JobSpec
    index: int
    arrival: float
    #: Global client-id/provenance offset of the job's rank 0.
    rank_base: int
    #: Per-rank strategy outcomes.
    outcomes: List[IOOutcome]
    #: Per-rank delivered streams for read jobs, written streams for write
    #: jobs (what the verifiers compare against).
    data: List[bytes]
    #: Per-rank views with *local* rank ids (what the strategy ran with).
    regions: List[FileRegionSet]
    #: Virtual time at which the job's slowest rank finished.
    finish: float

    @property
    def makespan(self) -> float:
        """Job latency: slowest rank's finish relative to the job's arrival."""
        return self.finish - self.arrival

    @property
    def bytes_requested(self) -> int:
        """Bytes the job's application asked to move."""
        return sum(o.bytes_requested for o in self.outcomes)

    @property
    def bytes_moved(self) -> int:
        """Bytes actually transferred to or from the file system."""
        return sum(o.bytes_moved for o in self.outcomes)

    @property
    def global_regions(self) -> List[FileRegionSet]:
        """The job's views re-keyed by global rank id, the namespace the
        store's provenance and the cross-job verifiers use."""
        return rekey_regions(self.regions, self.rank_base)


@dataclass
class MultiTenantResult:
    """One scheduler run: per-job results plus the cross-job summary."""

    fs: ParallelFileSystem
    jobs: List[JobResult]
    summary: Dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.summary = summarize_makespans([j.makespan for j in self.jobs])

    @property
    def window(self) -> float:
        """Virtual span from the earliest arrival to the last completion."""
        start = min(j.arrival for j in self.jobs)
        return max(j.finish for j in self.jobs) - start

    @property
    def total_bytes_requested(self) -> int:
        """Offered volume: bytes requested across every job."""
        return sum(j.bytes_requested for j in self.jobs)

    @property
    def offered_load(self) -> float:
        """The saturation sweep's x-coordinate: total offered bytes."""
        return float(self.total_bytes_requested)

    @property
    def fairness(self) -> float:
        """Jain's index over the per-job makespans."""
        return self.summary["fairness"]

    @property
    def bandwidth(self) -> float:
        """Aggregate bytes/second over the whole run window."""
        return aggregate_bandwidth(self.total_bytes_requested, self.window)

    @property
    def arrival_order(self) -> List[str]:
        """Job ids in the order they arrived (ties broken by spec order)."""
        return [
            j.spec.job_id
            for j in sorted(self.jobs, key=lambda j: (j.arrival, j.index))
        ]

    # -- cross-job verification ------------------------------------------------

    def _jobs_on(self, filename: str, mode: str) -> List[JobResult]:
        return [
            j for j in self.jobs
            if j.spec.filename == filename and j.spec.mode == mode
        ]

    def verify_write_atomicity(self, filename: str) -> AtomicityReport:
        """MPI write atomicity across *every* job that wrote ``filename``.

        The union of all writer jobs' globally-keyed views goes through the
        provenance verifier, so an overlapped region interleaving two jobs'
        bytes — not just two ranks' of one job — is reported.
        """
        regions = [
            region
            for job in self._jobs_on(filename, "write")
            for region in job.global_regions
        ]
        return check_mpi_atomicity(self.fs.lookup(filename).store, regions)

    def verify_read_atomicity(
        self, filename: str, baseline: Optional[bytes] = None
    ) -> AtomicityReport:
        """Read serialisability of every read job against every write job
        racing on ``filename``, as one globally-rekeyed
        :class:`~repro.verify.atomicity.StreamTrace` through the shared
        cross-group verifier (:func:`~repro.verify.atomicity.
        check_stream_atomicity`); ``baseline`` is the file's pre-run
        contents (all zeros for a fresh file)."""
        observations = [
            ReadObservation(region.rank, region, job.data[local])
            for job in self._jobs_on(filename, "read")
            for local, region in enumerate(job.global_regions)
        ]
        write_regions: List[FileRegionSet] = []
        write_data: List[bytes] = []
        for job in self._jobs_on(filename, "write"):
            write_regions.extend(job.global_regions)
            write_data.extend(job.data)
        trace = StreamTrace(
            stream_id=filename,
            write_regions=write_regions,
            writer_data=write_data,
            observations=observations,
            baseline=baseline,
        )
        return check_stream_atomicity([trace])


class MultiTenantScheduler:
    """Runs a set of :class:`JobSpec` worlds against one shared file system."""

    def __init__(
        self,
        fs: ParallelFileSystem,
        comm_cost: Optional[CommCostModel] = None,
        timeout: Optional[float] = 120.0,
    ) -> None:
        self.fs = fs
        self.comm_cost = comm_cost or CommCostModel(latency=20e-6, byte_cost=1e-8)
        self.timeout = timeout

    # -- setup helpers ---------------------------------------------------------

    def _make_strategy(self, spec: JobSpec):
        supports_locking = self.fs.config.supports_locking()
        if not default_registry.supported_on(spec.strategy, supports_locking):
            raise ValueError(
                f"job {spec.job_id!r}: strategy {spec.strategy!r} requires "
                f"byte-range locking, which {self.fs.config.name!r} lacks"
            )
        strategy = default_registry.create(spec.strategy)
        strategy.bind_context(self.fs, spec.filename)
        return strategy

    # -- the run ---------------------------------------------------------------

    def run(
        self,
        specs: Sequence[JobSpec],
        arrivals: Optional[Sequence[float]] = None,
    ) -> MultiTenantResult:
        """Launch every spec at its arrival offset; block until all finish.

        ``arrivals[i]`` is spec *i*'s virtual arrival time (seconds; default
        all zero — a batch).  Raises
        :class:`~repro.mpi.errors.SPMDExecutionError`, keyed by ``(job_id,
        rank)``, when any rank of any job fails, deadlocks or outlives the
        wall budget; a failing job's collectives are aborted without
        touching the other jobs' worlds.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("at least one job spec is required")
        ids = [s.job_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate job ids: {sorted(ids)}")
        if arrivals is None:
            arrivals = [0.0] * len(specs)
        arrivals = [float(a) for a in arrivals]
        if len(arrivals) != len(specs):
            raise ValueError(
                f"{len(specs)} specs but {len(arrivals)} arrival offsets"
            )
        if any(a < 0 for a in arrivals):
            raise ValueError("arrival offsets must be non-negative")

        worlds: List[World] = []
        prepared = []
        rank_base = 0
        for index, (spec, arrival) in enumerate(zip(specs, arrivals)):
            regions, data, rank_io = self._job_io(spec, rank_base)
            worlds.append(
                World(
                    rank_main(self.fs, spec.filename, regions, rank_io, base=rank_base),
                    spec.nprocs,
                    start=arrival,
                    tag=spec.job_id,
                )
            )
            prepared.append((spec, index, arrival, rank_base, regions, data))
            rank_base += spec.nprocs

        results: List[JobResult] = []
        runs = run_worlds(worlds, comm_cost=self.comm_cost, timeout=self.timeout)
        for (spec, index, arrival, base, regions, data), spmd in zip(prepared, runs):
            outcomes = spmd.returns
            if spec.mode == "read":
                data = [delivered for delivered, _ in spmd.returns]
                outcomes = [outcome for _, outcome in spmd.returns]
            results.append(
                JobResult(spec, index, arrival, base, outcomes, data, regions, spmd.makespan)
            )
        return MultiTenantResult(fs=self.fs, jobs=results)

    def _job_io(self, spec: JobSpec, rank_base: int):
        """A job's views, its write streams (empty for a read job) and what
        each of its ranks does with the open file."""
        strategy = self._make_strategy(spec)
        views = views_for_pattern(
            spec.pattern, spec.M, spec.N, spec.nprocs, spec.overlap_columns
        )
        regions = [FileRegionSet(rank, views[rank]) for rank in range(spec.nprocs)]
        # Read jobs need the file to exist before any rank arrives.
        self.fs.create(spec.filename)
        if spec.mode == "read":
            return regions, [], strategy.execute_read
        data = [
            spec.data_factory(rank_base + region.rank, region.total_bytes)
            for region in regions
        ]

        def write(comm, handle, region):
            return strategy.execute_write(comm, handle, region, data[region.rank])

        return regions, data, write
