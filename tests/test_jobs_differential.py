"""Differential test: one job through the scheduler == the direct path.

A single-job :class:`~repro.jobs.MultiTenantScheduler` run must be
*indistinguishable* from the same workload driven directly by
:class:`~repro.core.executor.AtomicWriteExecutor`: identical final bytes,
identical per-byte writer provenance, identical virtual makespan and
identical per-rank outcome accounting.  This pins the tenancy layer as a
pure re-packaging of the existing engine path — rank offsets, per-job
clocks and the provenance base must all collapse to the identity for one
job arriving at time zero.
"""

from __future__ import annotations

import pytest

from repro.bench.adaptive import fingerprint_of
from repro.bench.machines import IBM_SP
from repro.core.executor import AtomicWriteExecutor
from repro.core.registry import default_registry
from repro.fs.filesystem import ParallelFileSystem
from repro.jobs import JobSpec, MultiTenantScheduler
from repro.patterns.partition import views_for_pattern
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


def direct_run(strategy_name: str, nprocs: int, pattern: str):
    fs = ParallelFileSystem(IBM_SP.make_fs_config())
    executor = AtomicWriteExecutor(
        fs, default_registry.create(strategy_name), filename=FILENAME
    )
    result = executor.run(
        nprocs,
        lambda rank, n: views_for_pattern(pattern, M, N, n, OVERLAP)[rank],
        rank_pattern_bytes,
    )
    return fs, result


def scheduler_run(strategy_name: str, nprocs: int, pattern: str):
    fs = ParallelFileSystem(IBM_SP.make_fs_config())
    result = MultiTenantScheduler(fs).run(
        [
            JobSpec(
                "solo",
                nprocs=nprocs,
                M=M,
                N=N,
                filename=FILENAME,
                strategy=strategy_name,
                pattern=pattern,
                overlap_columns=OVERLAP,
            )
        ]
    )
    return fs, result


@pytest.mark.parametrize("strategy_name", STRATEGIES)
@pytest.mark.parametrize("nprocs", [4, 8])
def test_single_job_is_identical_to_direct_path(strategy_name, nprocs):
    fs_direct, direct = direct_run(strategy_name, nprocs, "column-wise")
    fs_sched, sched = scheduler_run(strategy_name, nprocs, "column-wise")

    # Byte- and provenance-identity: same final contents, same per-byte
    # winning writer (global ids collapse to local ranks for one job).
    assert fingerprint_of(fs_sched, FILENAME) == fingerprint_of(fs_direct, FILENAME)

    # Same virtual timeline: the scheduler adds no modelled cost of its own.
    job = sched.jobs[0]
    assert job.arrival == 0.0
    assert job.makespan == pytest.approx(direct.makespan, abs=0.0)

    # Same per-rank accounting.
    assert [o.bytes_requested for o in job.outcomes] == [
        o.bytes_requested for o in direct.outcomes
    ]
    assert [o.bytes_moved for o in job.outcomes] == [
        o.bytes_moved for o in direct.outcomes
    ]


def test_single_job_identity_holds_for_row_wise_pattern():
    fs_direct, direct = direct_run("two-phase", 4, "row-wise")
    fs_sched, sched = scheduler_run("two-phase", 4, "row-wise")
    assert fingerprint_of(fs_sched, FILENAME) == fingerprint_of(fs_direct, FILENAME)
    assert sched.jobs[0].makespan == pytest.approx(direct.makespan, abs=0.0)
