"""Differential test: one job through the scheduler == the direct path.

A single-job :class:`~repro.jobs.MultiTenantScheduler` run must be
*indistinguishable* from the same workload driven directly by
:class:`~repro.core.executor.AtomicWriteExecutor` (or, for a read job,
:class:`~repro.core.executor.CollectiveReadExecutor`): identical final bytes,
identical per-byte writer provenance, identical virtual makespan and
identical per-rank outcomes.  This pins the tenancy layer as a pure
re-packaging of the existing engine path — both launch through
``mpi/runtime.py::run_worlds`` and run ``core/executor.py::rank_main``, and
rank offsets, per-job clocks and the provenance base must all collapse to the
identity for one job arriving at time zero.

One check, :func:`assert_single_job_is_direct_path`, runs on a fixed grid
(every GPFS strategy on the column-wise 16x256 array at 4 and 8 ranks, and
row-wise two-phase) and on generated jobs: the Hypothesis property draws
pattern, array shape, ghost width, rank count (1 and non-powers of two
included), direction and every strategy GPFS or ENFS supports.  Example
counts come from the Hypothesis profile (``tests/conftest.py``);
``HYPOTHESIS_PROFILE=ci`` runs ten times as many.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.machines import CPLANT, IBM_SP
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.registry import default_registry
from repro.fs.filesystem import ParallelFileSystem
from repro.jobs import JobSpec, MultiTenantScheduler
from repro.patterns.partition import PATTERN_NAMES, views_for_pattern
from repro.patterns.workloads import rank_pattern_bytes

M, N = 16, 256
OVERLAP = 4
FILENAME = "/diff.dat"

#: Every registered atomicity strategy runnable on GPFS, plus the
#: non-atomic baseline — the identity must hold regardless of strategy.
STRATEGIES = [
    name
    for name in default_registry.names()
    if default_registry.supported_on(name, supports_locking=True)
]


def gpfs_job(strategy: str, nprocs: int, pattern: str):
    """A fixed GPFS write job on the 16x256 array with ghost width 4."""
    spec = JobSpec(
        "solo",
        nprocs=nprocs,
        M=M,
        N=N,
        filename=FILENAME,
        strategy=strategy,
        pattern=pattern,
        overlap_columns=OVERLAP,
    )
    return IBM_SP, spec


def assert_single_job_is_direct_path(machine, spec):
    """Same bytes, provenance runs, makespan and whole outcomes (and, for a
    read job, delivered streams) as the direct executor; a read job reads a
    file both paths seed with the same two-phase write."""
    views = views_for_pattern(spec.pattern, spec.M, spec.N, spec.nprocs, spec.overlap_columns)

    def view(rank, _nprocs):
        return views[rank]

    runs = []
    for path in ("direct", "scheduler"):
        fs = ParallelFileSystem(machine.make_fs_config())
        if spec.mode == "read":
            seed = AtomicWriteExecutor(fs, default_registry.create("two-phase"), filename=FILENAME)
            seed.run(spec.nprocs, view, rank_pattern_bytes)
        if path == "scheduler":
            (result,) = MultiTenantScheduler(fs).run([spec]).jobs
            assert result.arrival == 0.0
        elif spec.mode == "write":
            executor = AtomicWriteExecutor(
                fs, default_registry.create(spec.strategy), filename=FILENAME
            )
            result = executor.run(spec.nprocs, view, rank_pattern_bytes)
        else:
            executor = CollectiveReadExecutor(
                fs, default_registry.create(spec.strategy), filename=FILENAME
            )
            result = executor.run(spec.nprocs, view)
        store = fs.lookup(FILENAME).store
        runs.append(
            (
                store.snapshot(),
                [a.tolist() for a in store.writer_runs(0, store.size)],
                result.makespan,
                result.outcomes,
                result.data if spec.mode == "read" else None,
            )
        )
    direct, scheduled = runs
    assert scheduled == direct


@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("nprocs", [4, 8])
def test_single_job_is_identical_to_direct_path(strategy_name, nprocs):
    assert_single_job_is_direct_path(*gpfs_job(strategy_name, nprocs, "column-wise"))


def test_single_job_identity_holds_for_row_wise_pattern():
    assert_single_job_is_direct_path(*gpfs_job("two-phase", 4, "row-wise"))


@st.composite
def jobs(draw):
    """One job: ``(machine, JobSpec)`` — any pattern, a small array, a ghost
    width the pattern accepts, 1–9 ranks, either direction and any strategy
    the machine (GPFS or ENFS) supports."""
    machine = draw(st.sampled_from([IBM_SP, CPLANT]))
    strategy = draw(
        st.sampled_from(
            [
                name
                for name in default_registry.names()
                if default_registry.supported_on(name, machine.supports_locking)
            ]
        )
    )
    pattern = draw(st.sampled_from(PATTERN_NAMES))
    nprocs = draw(st.integers(1, 9))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 48))
    # The 1-D splits take no ghost wider than a rank's share.
    widest = {"column-wise": cols // nprocs, "row-wise": rows // nprocs}.get(pattern, 4)
    spec = JobSpec(
        "solo",
        nprocs=nprocs,
        M=rows,
        N=cols,
        filename=FILENAME,
        mode=draw(st.sampled_from(["write", "read"])),
        strategy=strategy,
        pattern=pattern,
        overlap_columns=draw(st.integers(0, min(widest, 4))),
    )
    return machine, spec


@given(job=jobs())
def test_single_job_is_the_direct_path_on_generated_jobs(job):
    assert_single_job_is_direct_path(*job)
