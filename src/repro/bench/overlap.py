"""Compute/I-O overlap experiments: blocking vs nonblocking collectives.

The point of the request-based API (:class:`repro.mpi.status.Request`) is
that the commit phase of a collective write runs on a detached progress
timeline, so computation issued between ``Write_all_begin`` and
``Write_all_end`` (or between ``Iwrite_all`` and ``Wait``) overlaps the file
I/O in virtual time.
This module measures exactly that with a checkpoint workload: ``steps``
iterations of *write the whole column-wise partitioned array, then compute
for a fixed virtual duration*.

Per step and rank the blocking API costs ``exchange + commit + compute``
while the split-collective API costs ``exchange + max(commit, compute)`` —
so for any positive compute and commit time the split makespan is strictly
lower, and the gap (the *overlap won*) is ``min(commit, compute)`` per
step.  ``Iwrite_all`` additionally detaches the exchange itself.

Every run is verified with the MPI-atomicity checker; results are returned
as :class:`~repro.bench.results.ExperimentRecord` rows with
``mode="overlap-<api>"`` and ``extra["compute_seconds"]`` /
``extra["steps"]`` recording the workload shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.regions import FileRegionSet, build_region_sets
from ..datatypes import CHAR, subarray
from ..io import Info, MPIFile
from ..mpi.comm import Communicator
from ..mpi.cost import BENCH_COMM_COST
from ..mpi.runtime import run_spmd
from ..patterns.partition import column_wise_spec, column_wise_views
from ..patterns.workloads import PAPER_OVERLAP_COLUMNS, rank_pattern_bytes
from ..verify.atomicity import check_mpi_atomicity
from .machines import MachineSpec, machine_by_name
from .results import ExperimentRecord
from ..fs.filesystem import ParallelFileSystem

__all__ = ["OVERLAP_APIS", "run_overlap_experiment", "run_overlap_comparison"]

#: The measured API variants, in increasing degree of detachment.
OVERLAP_APIS = ("blocking", "split", "nonblocking")


def _checkpoint_rank(
    comm: Communicator,
    fs: ParallelFileSystem,
    filename: str,
    M: int,
    N: int,
    R: int,
    steps: int,
    compute_seconds: float,
    api: str,
    strategy: str,
):
    """One rank of the checkpoint workload (runs under ``run_spmd``)."""
    spec = column_wise_spec(M, N, comm.size, comm.rank, R)
    filetype = subarray(
        list(spec.sizes), list(spec.subsizes), list(spec.starts), CHAR
    ).commit()
    f = MPIFile.Open(comm, filename, fs, info=Info({"atomicity_strategy": strategy}))
    f.Set_atomicity(True)
    f.Set_view(0, CHAR, filetype)
    payload = rank_pattern_bytes(comm.rank, spec.total_bytes)
    outcome = None
    for _ in range(steps):
        f.Seek(0)
        if api == "blocking":
            outcome = f.Write_all(payload)
            comm.clock.advance(compute_seconds)
        elif api == "split":
            f.Write_all_begin(payload)
            comm.clock.advance(compute_seconds)
            outcome = f.Write_all_end()
        elif api == "nonblocking":
            request = f.Iwrite_all(payload)
            comm.clock.advance(compute_seconds)
            outcome = request.Wait()
        else:
            raise ValueError(f"unknown overlap api {api!r}; known: {OVERLAP_APIS}")
    f.Close()
    return outcome


def run_overlap_experiment(
    machine: MachineSpec | str,
    M: int,
    N: int,
    nprocs: int,
    api: str = "split",
    strategy: str = "two-phase",
    steps: int = 2,
    compute_seconds: float = 0.002,
    overlap_columns: int = PAPER_OVERLAP_COLUMNS,
    verify: bool = True,
) -> ExperimentRecord:
    """Measure one (machine, size, P, api) point of the overlap workload."""
    if isinstance(machine, str):
        machine = machine_by_name(machine)
    fs = ParallelFileSystem(machine.make_fs_config())
    filename = f"overlap_{M}x{N}_p{nprocs}_{strategy}_{api}.dat"
    spmd = run_spmd(
        _checkpoint_rank,
        nprocs,
        fs,
        filename,
        M,
        N,
        overlap_columns,
        steps,
        compute_seconds,
        api,
        strategy,
        comm_cost=BENCH_COMM_COST,
    )
    regions: List[FileRegionSet] = build_region_sets(
        column_wise_views(M, N, nprocs, overlap_columns)
    )
    atomic_ok = True
    if verify:
        atomic_ok = check_mpi_atomicity(fs.lookup(filename).store, regions).ok
    bytes_requested = steps * sum(r.total_bytes for r in regions)
    return ExperimentRecord(
        machine=machine.name,
        file_system=machine.file_system,
        array_label=f"{M}x{N}",
        M=M,
        N=N,
        nprocs=nprocs,
        strategy=strategy,
        bytes_requested=bytes_requested,
        bytes_written=sum(o.bytes_moved for o in spmd.returns if o is not None),
        makespan_seconds=spmd.makespan,
        atomic_ok=atomic_ok,
        phases=max((o.phases for o in spmd.returns if o is not None), default=1),
        pattern="column-wise",
        mode=f"overlap-{api}",
        extra={"compute_seconds": float(compute_seconds), "steps": float(steps)},
    )


def run_overlap_comparison(
    machine: MachineSpec | str,
    M: int,
    N: int,
    nprocs: int,
    apis: Optional[List[str]] = None,
    strategy: str = "two-phase",
    steps: int = 2,
    compute_seconds: float = 0.002,
    overlap_columns: int = PAPER_OVERLAP_COLUMNS,
    verify: bool = True,
) -> Dict[str, ExperimentRecord]:
    """The same workload under several APIs; returns ``api -> record``."""
    apis = list(apis) if apis is not None else list(OVERLAP_APIS)
    return {
        api: run_overlap_experiment(
            machine,
            M,
            N,
            nprocs,
            api=api,
            strategy=strategy,
            steps=steps,
            compute_seconds=compute_seconds,
            overlap_columns=overlap_columns,
            verify=verify,
        )
        for api in apis
    }
