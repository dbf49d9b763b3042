#!/usr/bin/env python3
"""Figure 4 of the paper, transliterated: column-wise atomic write via MPI-IO.

The paper's code fragment builds a file view with ``MPI_Type_create_subarray``,
enables atomic mode, and performs a collective write.  This example runs the
same call sequence against this library's MPI-IO layer on an XFS-like file
system, once per atomicity strategy, and verifies the resulting file.

Run with:  python examples/column_wise_write.py
"""

from __future__ import annotations

import numpy as np

from repro import MPIFile, ParallelFileSystem, xfs_config
from repro.datatypes import CHAR, subarray
from repro.io import Info, MODE_CREATE, MODE_RDWR
from repro.core.regions import build_region_sets
from repro.mpi import run_spmd
from repro.patterns.partition import column_wise_spec, column_wise_views
from repro.verify import check_coverage, check_mpi_atomicity

M, N, P, R = 128, 4096, 4, 8          # global array, processes, overlapped columns
MB = 1024 * 1024


def column_wise_atomic_write(fs, strategy_hint: str):
    """The Figure 4 call sequence, executed by every rank."""

    def rank_program(comm):
        rank = comm.rank
        #  1. sizes / sub_sizes / starts  (lines 1-6 of Figure 4)
        spec = column_wise_spec(M, N, P, rank, R)
        #  2. MPI_Type_create_subarray + commit  (lines 7-8)
        filetype = subarray(list(spec.sizes), list(spec.subsizes),
                            list(spec.starts), CHAR).commit()
        #  3. MPI_File_open  (line 9 — the info hint picks the strategy)
        info = Info({"atomicity_strategy": strategy_hint})
        fh = MPIFile.Open(comm, "fig4.dat", fs, amode=MODE_RDWR | MODE_CREATE, info=info)
        #  4. MPI_File_set_atomicity(fh, 1)
        fh.Set_atomicity(True)
        #  5. MPI_File_set_view(fh, 0, etype, filetype, "native", info)  (line 10)
        fh.Set_view(0, CHAR, filetype)
        #  6. MPI_File_write_all  (line 11)
        local = np.full(spec.subsizes, ord("A") + rank, dtype=np.uint8)
        outcome = fh.Write_all(local)
        #  7. MPI_File_close  (line 12)
        fh.Close()
        return outcome

    return run_spmd(rank_program, P)


def main() -> None:
    regions = build_region_sets(column_wise_views(M, N, P, R))
    print(f"Figure 4 workload: {M}x{N} char array, {P} processes, R={R} overlapped columns")
    print(f"Each interior rank's view: {M} non-contiguous segments of {N // P + R} bytes\n")

    for strategy in ("locking", "graph-coloring", "rank-ordering"):
        fs = ParallelFileSystem(xfs_config())
        spmd = column_wise_atomic_write(fs, strategy)
        store = fs.lookup("fig4.dat").store
        atomic = check_mpi_atomicity(store, regions)
        complete = check_coverage(store, regions)
        written = sum(o.bytes_moved for o in spmd.returns)
        print(
            f"{strategy:16s} atomic={'yes' if atomic.ok else 'NO':3s} "
            f"complete={'yes' if complete.ok else 'NO':3s} "
            f"written={written / MB:6.2f} MB "
            f"virtual time={spmd.makespan:.4f} s"
        )

    print("\nThe overlapped ghost columns contain data from exactly one process "
          "under every strategy — the MPI atomic-mode guarantee of Section 2.2.")


if __name__ == "__main__":
    main()
