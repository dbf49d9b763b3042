"""Multi-tenant saturation sweep: concurrent jobs vs one shared file system.

Every other benchmark in :mod:`repro.bench` measures one job on an idle
machine.  This one sweeps *offered load*: ``n_jobs`` independent SPMD jobs
(each its own communicator world, rank count and strategy instance) are
placed on one shared :class:`~repro.fs.filesystem.ParallelFileSystem` by the
:class:`~repro.jobs.MultiTenantScheduler`, and each sweep point records the
per-job makespans (p50/p99), Jain's fairness index over them, and the
aggregate bandwidth the shared file system sustained — the saturation curve
(bandwidth and fairness vs offered load) of EXPERIMENTS.md.

Jobs share one target file by default, so every point doubles as a
cross-job atomicity experiment: after the run the union of all jobs'
globally-ranked views goes through the write-atomicity verifier
(:func:`~repro.verify.atomicity.check_mpi_atomicity`), and the sweep fails
loudly if contention ever tore an overlapped region between two tenants.

Results land in ``benchmarks/results/latest.json`` under
``multitenant/<fs>/j<jobs>xp<ranks>``: one entry per job (carrying
``job_id`` and ``offered_load``) plus one summary entry (carrying
``fairness`` and ``offered_load``; no ``job_id``).  The sweep's 4 jobs x
16 ranks point is additionally gated by :mod:`repro.bench.perfgate` on
cross-job atomicity and a fairness floor.

The sweep also runs one *heterogeneous* configuration
(:func:`run_mixed_tenant_point`, filed under
``multitenant/<fs>/mixed-w<writers>r<readers>xp<ranks>``): write jobs
racing read jobs on one shared file under ``locking``, with every read
job's delivered bytes pushed through the cross-group stream verifier
(:func:`~repro.verify.atomicity.check_stream_atomicity`) — a torn or
stale read across the tenant boundary fails the sweep.

Run the sweep (CI uploads the JSON it writes)::

    PYTHONPATH=src python -m repro.bench.multitenant
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fs.filesystem import ParallelFileSystem
from ..jobs import JobSpec, MultiTenantResult, MultiTenantScheduler, make_arrivals
from .machines import MachineSpec, machine_by_name
from .sweep import sweep

__all__ = [
    "DEFAULT_JOB_COUNTS",
    "DEFAULT_RANK_COUNTS",
    "DEFAULT_SHAPE",
    "DEFAULT_SEED",
    "SMOKE_POINT",
    "MIXED_POINT",
    "MultiTenantPoint",
    "run_multitenant_point",
    "run_mixed_tenant_point",
    "measure_smoke",
    "check_point",
    "sweep_cases",
    "main",
]

#: The machine personality every point of the sweep runs on.
SWEEP_MACHINE = "IBM SP"

#: The saturation sweep's grid: concurrency levels x per-job rank counts.
DEFAULT_JOB_COUNTS = (1, 4, 16)
DEFAULT_RANK_COUNTS = (4, 16)

#: Per-job workload shape (M x N bytes, column-wise with ghost columns).
DEFAULT_SHAPE = (32, 512)

#: Seed for the stochastic (poisson) arrival process; any fixed value keeps
#: the sweep deterministic run to run.
DEFAULT_SEED = 20030804

#: The perf-gate point, one of the sweep's: (jobs, ranks per job).
SMOKE_POINT = (4, 16)

#: The file every shared-file point's jobs race on.
SHARED_FILE = "/multitenant/shared.dat"

#: The heterogeneous mix: (write jobs, read jobs, ranks per job), all
#: racing on one shared file under ``locking``.
MIXED_POINT = (2, 2, 8)


@dataclass
class MultiTenantPoint:
    """One sweep point: the scheduler result plus its jsonlog entries."""

    result: MultiTenantResult
    #: Per-job entries (with ``job_id``) followed by the summary entry, which
    #: also carries the point's verdict ``atomic_ok`` (whether the cross-job
    #: atomicity verifiers passed on every file) for :func:`check_point`.
    entries: List[Dict]

    @property
    def summary(self) -> Dict:
        """The point's summary entry (fairness, offered load, verdict)."""
        return self.entries[-1]


def _run_jobs(
    machine: MachineSpec,
    specs: List[JobSpec],
    arrival_kind: str,
    seed: int,
    timeout: Optional[float],
) -> MultiTenantPoint:
    """Schedule ``specs`` (same shape, rank count and strategy) on one fresh
    file system, verify every file they touched, build the entries.

    Write atomicity is checked across every file; files with read jobs
    additionally push each reader's delivered bytes through the cross-group
    stream verifier (:meth:`~repro.jobs.MultiTenantResult.
    verify_read_atomicity`) against the all-zero pre-write state — a torn or
    stale byte anywhere makes the summary's ``atomic_ok`` false.
    """
    nprocs, strategy = specs[0].nprocs, specs[0].strategy
    fs = ParallelFileSystem(machine.make_fs_config())
    arrivals = make_arrivals(arrival_kind, len(specs), seed=seed)
    result = MultiTenantScheduler(fs, timeout=timeout).run(specs, arrivals=arrivals)

    baseline = bytes(specs[0].M * specs[0].N)
    atomic_ok = all(
        result.verify_write_atomicity(filename).ok
        for filename in sorted({s.filename for s in specs})
    ) and all(
        result.verify_read_atomicity(filename, baseline=baseline).ok
        for filename in sorted({s.filename for s in specs if s.mode == "read"})
    )

    entries: List[Dict] = [
        {
            "P": nprocs,
            "strategy": strategy,
            "makespan": job.makespan,
            "bytes": job.bytes_requested,
            "job_id": job.spec.job_id,
            "offered_load": result.offered_load,
        }
        for job in result.jobs
    ]
    entries.append(
        {
            "P": len(specs) * nprocs,
            "strategy": strategy,
            "makespan": result.summary["max_makespan"],
            "bytes": result.total_bytes_requested,
            "offered_load": result.offered_load,
            "fairness": result.fairness,
            "atomic_ok": atomic_ok,
        }
    )
    return MultiTenantPoint(result=result, entries=entries)


def run_multitenant_point(
    machine: MachineSpec,
    n_jobs: int,
    nprocs: int,
    strategy: str = "two-phase",
    arrival_kind: str = "staggered",
    shape: Tuple[int, int] = DEFAULT_SHAPE,
    shared_file: bool = True,
    seed: int = DEFAULT_SEED,
    timeout: Optional[float] = 120.0,
) -> MultiTenantPoint:
    """Run one (jobs x ranks) point and build its jsonlog entries.

    All jobs write; with ``shared_file`` they race on one file (the
    contended, atomicity-relevant configuration), otherwise each gets a
    private file (pure server/link contention).  The write-atomicity
    verifier runs across every file jobs touched.
    """
    M, N = shape
    specs = [
        JobSpec(
            job_id=f"job{i}", nprocs=nprocs, M=M, N=N,
            filename=SHARED_FILE if shared_file else f"/multitenant/job{i}.dat",
            mode="write", strategy=strategy,
        )
        for i in range(n_jobs)
    ]
    return _run_jobs(machine, specs, arrival_kind, seed, timeout)


def run_mixed_tenant_point(
    machine: MachineSpec,
    n_writers: int,
    n_readers: int,
    nprocs: int,
    strategy: str = "locking",
    arrival_kind: str = "staggered",
    shape: Tuple[int, int] = DEFAULT_SHAPE,
    seed: int = DEFAULT_SEED,
    timeout: Optional[float] = 120.0,
) -> MultiTenantPoint:
    """The heterogeneous point: write jobs racing read jobs on one file.

    The workload mixes producers and observers, so plain write atomicity is
    not enough — every read job's delivered bytes must additionally be
    explainable by *some* serial order of the racing writes.  The default
    strategy is ``locking`` because that is the only discipline the paper
    (and this simulator) grants cross-job read serialisability.
    """
    M, N = shape
    specs = [
        JobSpec(
            job_id=f"{role}{i}", nprocs=nprocs, M=M, N=N,
            filename=SHARED_FILE, mode=mode, strategy=strategy,
        )
        for role, mode, count in (
            ("writer", "write", n_writers), ("reader", "read", n_readers)
        )
        for i in range(count)
    ]
    return _run_jobs(machine, specs, arrival_kind, seed, timeout)


def measure_smoke(experiment: str) -> Dict[str, List[Dict]]:
    """Sweep :data:`SMOKE_POINT` for the perf gate: identical jobs, batch
    arrivals so every tenant offers equal load, all racing on one shared
    file.  Only the summary entry is filed under ``experiment`` (the per-job
    entries live in the ``multitenant/*`` sweep), keeping ``(P, strategy)``
    unique."""
    machine = machine_by_name(SWEEP_MACHINE)
    return sweep(
        experiment,
        [SMOKE_POINT],
        lambda point: [
            run_multitenant_point(machine, *point, arrival_kind="batch").summary
        ],
    )


def check_point(
    experiment: str, entries: Sequence[Dict], fairness_floor: float = 0.0
) -> List[str]:
    """Problems of one point's entries: a cross-job atomicity violation, or
    Jain's index over the per-job makespans below ``fairness_floor`` (the
    perf gate sets one for its equal-offered-load smoke point)."""
    summary = entries[-1]
    problems: List[str] = []
    if not summary["atomic_ok"]:
        problems.append(f"{experiment}: cross-job atomicity violated on a shared file")
    if summary["fairness"] < fairness_floor:
        problems.append(
            f"{experiment}: Jain fairness {summary['fairness']:.4f} over the "
            f"per-job makespans is below the {fairness_floor:g} floor"
        )
    return problems


def sweep_cases() -> List[Tuple[str, Callable[[], MultiTenantPoint]]]:
    """The sweep's grid as ``(experiment, run)`` cases: every concurrency
    level at every per-job rank count, then the write-vs-read
    :data:`MIXED_POINT`."""
    machine = machine_by_name(SWEEP_MACHINE)
    root = f"multitenant/{machine.file_system.lower()}"
    writers, readers, ranks = MIXED_POINT
    return [
        (f"{root}/j{j}xp{p}", partial(run_multitenant_point, machine, j, p))
        for j in DEFAULT_JOB_COUNTS
        for p in DEFAULT_RANK_COUNTS
    ] + [
        (
            f"{root}/mixed-w{writers}r{readers}xp{ranks}",
            partial(run_mixed_tenant_point, machine, writers, readers, ranks),
        )
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; exits non-zero on an atomicity failure."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(list(argv) if argv is not None else None)

    def run_case(case) -> List[Dict]:
        experiment, run = case
        point = run()
        print(
            f"{experiment}: offered {point.summary['offered_load']:.0f} B, "
            f"p50 {point.result.summary['p50_makespan']:.6f}s, "
            f"p99 {point.result.summary['p99_makespan']:.6f}s, "
            f"fairness {point.summary['fairness']:.4f}, "
            f"bandwidth {point.result.bandwidth / 1e6:.2f} MB/s"
        )
        return point.entries

    measured = sweep(lambda case: case[0], sweep_cases(), run_case)
    problems = [
        problem
        for experiment, entries in measured.items()
        for problem in check_point(experiment, entries)
    ]
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"multitenant sweep ok ({len(measured)} points)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
