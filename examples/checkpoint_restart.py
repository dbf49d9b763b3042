#!/usr/bin/env python3
"""Checkpoint-then-restart: the read-heavy scenario, end to end over MPI-IO.

Eight simulated MPI processes checkpoint a column-wise partitioned 2-D array
(ghost columns overlapping between neighbours) to a shared file with an
atomic collective write.  A *restart job with a different process count*
then opens the checkpoint and reads its own overlapping partitioning back
with collective reads — the exchange shape of restart-after-checkpoint and
analysis-consumer pipelines.

The restart is run once per read-capable strategy so the staged read
pipelines can be compared: the naive baseline (``none``) invalidates and
re-reads every overlapped byte per rank, while two-phase aggregation reads
each file byte once and scatters, which shows up directly in the virtual-time
makespan.  Every restart is verified with the read-atomicity checker: each
byte a reader observed must come from a single committed write.

Run with:  python examples/checkpoint_restart.py
"""

from __future__ import annotations

from repro import (
    CheckpointRestartWorkload,
    Info,
    MPIFile,
    ParallelFileSystem,
    ReadObservation,
    check_read_atomicity,
    default_registry,
    gpfs_config,
    run_spmd,
)
from repro.core.regions import FileRegionSet
from repro.datatypes import CHAR, subarray
from repro.io.modes import MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.patterns import column_wise_spec

# 256 x 8192 array, checkpointed by 8 writers, restarted on 6 readers, with
# 64 overlapped ghost columns between neighbours (wide halos, so the restart
# re-reads a substantial overlapped volume).
WORK = CheckpointRestartWorkload(
    label="demo", M=4096, N=8192, writers=8, readers=6, R=64, row_scale=16
)
FILENAME = "checkpoint.dat"
MB = 1024 * 1024


def _column_view(f: MPIFile, rank: int, nprocs: int):
    """Install the rank's column-wise ghost view (the paper's Figure 4)."""
    spec = column_wise_spec(WORK.effective_M, WORK.N, nprocs, rank, WORK.R)
    filetype = subarray(
        list(spec.sizes), list(spec.subsizes), list(spec.starts), CHAR
    ).commit()
    f.Set_view(0, CHAR, filetype)
    return spec


def checkpoint(fs: ParallelFileSystem) -> None:
    """Phase 1: the writers checkpoint the array atomically (two-phase)."""

    def writer(comm):
        f = MPIFile.Open(
            comm,
            FILENAME,
            fs,
            amode=MODE_RDWR | MODE_CREATE,
            info=Info({"atomicity_strategy": "two-phase"}),
        )
        f.Set_atomicity(True)
        spec = _column_view(f, comm.rank, WORK.writers)
        outcome = f.Write_all(WORK.writer_stream(comm.rank), count=spec.total_bytes)
        f.Close()
        return outcome

    result = run_spmd(writer, WORK.writers)
    total = sum(o.bytes_moved for o in result.returns)
    print(
        f"checkpoint: {WORK.writers} writers, two-phase atomic write, "
        f"{total / MB:.1f} MB written, makespan {result.makespan:.4f}s"
    )


def restart(fs: ParallelFileSystem, strategy_name: str):
    """Phase 2: a restart job of a different size reads the checkpoint."""

    def reader(comm):
        f = MPIFile.Open(
            comm,
            FILENAME,
            fs,
            amode=MODE_RDONLY,
            info=Info({"atomicity_strategy": strategy_name}),
        )
        f.Set_atomicity(True)
        spec = _column_view(f, comm.rank, WORK.readers)
        buf = bytearray(spec.total_bytes)
        outcome = f.Read_all(buf, count=spec.total_bytes)
        f.Close()
        return bytes(buf), outcome

    result = run_spmd(reader, WORK.readers)
    read_views = WORK.read_views()
    observations = [
        ReadObservation(rank, FileRegionSet(rank, read_views[rank]), data)
        for rank, (data, _) in enumerate(result.returns)
    ]
    write_regions = [
        FileRegionSet(rank, segs) for rank, segs in enumerate(WORK.write_views())
    ]
    write_data = [WORK.writer_stream(rank) for rank in range(WORK.writers)]
    report = check_read_atomicity(observations, write_regions, write_data)
    outcomes = [outcome for _, outcome in result.returns]
    return result, outcomes, report


def main() -> None:
    print(
        f"Workload: {WORK.effective_M}x{WORK.N} array "
        f"({WORK.file_bytes / MB:.1f} MB), {WORK.writers} writers -> "
        f"{WORK.readers} readers, R={WORK.R} ghost columns\n"
    )
    fs = ParallelFileSystem(gpfs_config())
    checkpoint(fs)

    print(f"\n{'restart strategy':18s} {'read OK':>8s} {'MB fetched':>11s} "
          f"{'time (s)':>9s} {'BW (MB/s)':>10s}")
    for name in default_registry.read_capable_names():
        # Each restart is an independent measurement: clear the servers'
        # virtual-time queues (the checkpoint bytes are untouched).
        fs.reset_accounting()
        result, outcomes, report = restart(fs, name)
        fetched = sum(o.bytes_moved for o in outcomes)
        requested = sum(o.bytes_requested for o in outcomes)
        bw = requested / result.makespan / MB if result.makespan else float("inf")
        print(
            f"{name:18s} {'yes' if report.ok else 'NO':>8s} "
            f"{fetched / MB:>11.2f} {result.makespan:>9.4f} {bw:>10.1f}"
        )

    print(
        "\nTwo-phase aggregation fetches each checkpoint byte once and "
        "scatters it to the overlapping readers, so the restart moves less "
        "data through the servers than the naive per-rank pipelines."
    )


if __name__ == "__main__":
    main()
