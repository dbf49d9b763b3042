"""The multi-tenant scheduler: N independent SPMD jobs, one file system.

:class:`MultiTenantScheduler` launches every :class:`~repro.jobs.spec.JobSpec`
as its own communicator world — a private :class:`~repro.mpi.comm._CommGroup`
whose per-rank clocks start at the job's *arrival time* — on one shared
discrete-event :class:`~repro.core.engine.Engine`, against one shared
:class:`~repro.fs.filesystem.ParallelFileSystem`.  The engine's
``(virtual time, task id)`` scheduling order interleaves the jobs exactly as
a real machine room would multiplex them: a job arriving later simply has
later-keyed tasks, and cross-job contention (server queues, client links,
byte-range locks, cache token revocations) flows through the unmodified
substrate.

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
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import Engine, Task
from ..core.regions import FileRegionSet
from ..core.strategies import IOOutcome
from ..fs.client import FSClient
from ..fs.filesystem import ParallelFileSystem
from ..io.info import Info
from ..core.registry import default_registry
from ..mpi.clock import VirtualClock
from ..mpi.comm import CommCostModel, Communicator, _CommGroup
from ..mpi.errors import CollectiveAbortedError
from ..mpi.runtime import collect_rank_failures, spawn_world
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
    "MultiTenantExecutionError",
    "MultiTenantResult",
    "MultiTenantScheduler",
]


class MultiTenantExecutionError(RuntimeError):
    """One or more jobs failed, deadlocked or exceeded the wall budget.

    ``failures`` maps ``(job_id, rank)`` to the rank's exception;
    ``tracebacks`` carries rank-local tracebacks where captured.
    """

    def __init__(
        self,
        failures: Dict[Tuple[str, int], BaseException],
        tracebacks: Optional[Dict[Tuple[str, int], str]] = None,
    ) -> None:
        self.failures = failures
        self.tracebacks = tracebacks or {}
        lines = [
            f"job {job_id!r} rank {rank}: {type(exc).__name__}: {exc}"
            for (job_id, rank), exc in sorted(failures.items())
        ]
        super().__init__(
            f"{len(failures)} rank(s) across "
            f"{len({j for j, _ in failures})} job(s) failed:\n" + "\n".join(lines)
        )


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


class _JobRuntime:
    """Scheduler-internal per-job state (world, strategy, tasks)."""

    __slots__ = ("spec", "index", "arrival", "rank_base", "group", "strategy",
                 "regions", "data", "tasks")

    def __init__(self, spec: JobSpec, index: int, arrival: float, rank_base: int):
        self.spec = spec
        self.index = index
        self.arrival = arrival
        self.rank_base = rank_base
        self.group: Optional[_CommGroup] = None
        self.strategy = None
        self.regions: List[FileRegionSet] = []
        self.data: List[bytes] = []
        self.tasks: List[Task] = []


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
        if spec.info is not None:
            strategy = default_registry.create_from_info(
                spec.strategy, Info(dict(spec.info))
            )
        else:
            strategy = default_registry.create(spec.strategy, **spec.strategy_options)
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
        all zero — a batch).  Raises :class:`MultiTenantExecutionError` when
        any rank of any job fails, deadlocks or outlives the wall budget;
        a failing job's collectives are aborted without touching the other
        jobs' worlds.
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

        engine = Engine(name="multitenant")
        fs = self.fs
        jobs: List[_JobRuntime] = []
        task_job: Dict[int, _JobRuntime] = {}
        rank_base = 0
        for index, (spec, arrival) in enumerate(zip(specs, arrivals)):
            job = _JobRuntime(spec, index, arrival, rank_base)
            rank_base += spec.nprocs
            job.strategy = self._make_strategy(spec)
            views = views_for_pattern(
                spec.pattern, spec.M, spec.N, spec.nprocs, spec.overlap_columns
            )
            job.regions = [
                FileRegionSet(rank, views[rank]) for rank in range(spec.nprocs)
            ]
            if spec.mode == "write":
                job.data = [
                    spec.data_factory(
                        job.rank_base + rank, job.regions[rank].total_bytes
                    )
                    for rank in range(spec.nprocs)
                ]
                fs.create(spec.filename)
            else:
                job.data = [b""] * spec.nprocs
                # Read jobs need the file to exist before any rank arrives.
                fs.create(spec.filename)
            job.group = _CommGroup(
                spec.nprocs,
                clocks=[VirtualClock(now=arrival) for _ in range(spec.nprocs)],
                cost_model=self.comm_cost,
                engine=engine,
            )
            job.tasks = spawn_world(
                engine,
                job.group,
                self._make_job_main(job),
                name_prefix=f"job-{spec.job_id}-rank",
                tag=spec.job_id,
            )
            for task in job.tasks:
                task_job[task.tid] = job
            jobs.append(job)

        # A failing rank takes down its own job's collectives — and only its
        # own: other tenants keep running, exactly as independent MPI jobs
        # sharing a file system would.
        def on_task_failed(task: Task) -> None:
            if task.detached:
                return
            owner = task_job.get(task.tid)
            if owner is not None and owner.group is not None:
                owner.group.abort(
                    CollectiveAbortedError(
                        f"collective aborted: job {owner.spec.job_id!r} task "
                        f"{task.name} failed with {type(task.error).__name__}: "
                        f"{task.error}"
                    )
                )

        engine.on_task_failed = on_task_failed
        engine.run(timeout=self.timeout)

        failures: Dict[Tuple[str, int], BaseException] = {}
        tracebacks: Dict[Tuple[str, int], str] = {}
        for job in jobs:
            job_failures, job_tracebacks = collect_rank_failures(job.tasks)
            for rank, exc in job_failures.items():
                failures[(job.spec.job_id, rank)] = exc
            for rank, text in job_tracebacks.items():
                tracebacks[(job.spec.job_id, rank)] = text
        if engine.timed_out:
            for task in engine.unfinished:
                if task.detached:
                    continue
                owner = task_job.get(task.tid)
                if owner is None:
                    continue
                rank = task.tid - owner.tasks[0].tid
                key = (owner.spec.job_id, rank)
                failures[key] = TimeoutError(
                    f"job {owner.spec.job_id!r} rank {rank} did not finish "
                    f"within the {self.timeout}s timeout"
                )
        if failures:
            raise MultiTenantExecutionError(failures, tracebacks)

        results: List[JobResult] = []
        for job in jobs:
            outcomes: List[IOOutcome] = []
            data: List[bytes] = []
            for rank, task in enumerate(job.tasks):
                if job.spec.mode == "write":
                    outcomes.append(task.result)
                    data.append(job.data[rank])
                else:
                    delivered, outcome = task.result
                    outcomes.append(outcome)
                    data.append(delivered)
            results.append(
                JobResult(
                    spec=job.spec,
                    index=job.index,
                    arrival=job.arrival,
                    rank_base=job.rank_base,
                    outcomes=outcomes,
                    data=data,
                    regions=job.regions,
                    finish=max(c.now for c in job.group.clocks),
                )
            )
        return MultiTenantResult(fs=fs, jobs=results)

    def _make_job_main(self, job: _JobRuntime):
        fs = self.fs
        spec = job.spec

        def job_main(comm: Communicator):
            rank = comm.rank
            region = job.regions[rank]
            client = FSClient(
                fs,
                client_id=job.rank_base + rank,
                clock=comm.clock,
                provenance_base=job.rank_base,
            )
            handle = client.open(spec.filename, create=False)
            try:
                if spec.mode == "write":
                    return job.strategy.execute_write(
                        comm, handle, region, job.data[rank]
                    )
                return job.strategy.execute_read(comm, handle, region)
            finally:
                handle.close()

        return job_main
