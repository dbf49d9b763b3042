"""Per-layer probes: direct timed calls into one layer's public functions.

A probe runs a layer on the workload's own shape — ``(M, N, P, R)``, its
column-wise views at its largest per-communicator P an engine probe affords
— outside any benchmark point, so its number belongs to that layer alone.
Probes run only in the traced pass; they feed no end-to-end metric.

Every probe reports the *minimum* over its repetitions: the cost of the
code, not of the box.  Engine-backed probes subtract the cost of spawning
the ranks (``core.engine.spawn_us``), measured the same way.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.core import (
    build_overlap_matrix,
    build_region_sets,
    choose_aggregators,
    greedy_coloring,
    merge_interval_sets,
    merge_pieces,
    partition_domain,
    resolve_by_rank,
)
from repro.core.autotune import classify_pattern
from repro.core.engine import sequence_point
from repro.fs import ByteStore, FSClient, ParallelFileSystem, gpfs_config
from repro.io import MPIFile
from repro.mpi import CommCostModel, run_spmd
from repro.patterns import rank_pattern_bytes
from repro.patterns.partition import views_for_pattern

__all__ = ["run_probes"]

COMM_COST = CommCostModel(latency=30e-6, byte_cost=1e-8)


def _best(fn: Callable[[], float], reps: int) -> float:
    """Minimum of ``reps`` self-timed runs (``fn`` returns seconds)."""
    return min(fn() for _ in range(reps))


def _timed(fn: Callable[[], object]) -> Callable[[], float]:
    def run() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return run


def _spmd_seconds(rank_fn: Callable, nprocs: int, reps: int) -> float:
    return _best(_timed(lambda: run_spmd(rank_fn, nprocs, comm_cost=COMM_COST)), reps)


def run_probes(shape, smoke: bool = False) -> Dict[str, float]:
    """All probe metrics for one workload shape ``(M, N, P, R)``."""
    M, N, P, R = shape
    if smoke:
        P = min(P, 8)
    reps = 1 if smoke else 3
    k = 2 if smoke else 10  # operations per rank inside one engine-backed probe
    views = views_for_pattern("column-wise", M, N, P, R)
    regions = build_region_sets(views)
    out: Dict[str, float] = {}

    # -- core.engine and mpi: host cost per rank-operation ---------------------
    spawn = _spmd_seconds(lambda comm: None, P, reps)
    out["core.engine.spawn_us"] = spawn / P * 1e6

    def per_rank_op(rank_fn: Callable) -> float:
        return max(0.0, _spmd_seconds(rank_fn, P, reps) - spawn) / (P * k) * 1e6

    def handoffs(comm) -> None:
        # Every rank moves one virtual second ahead of the ranks still
        # waiting, so each sequence point is a forced yield.
        for _ in range(k):
            comm.clock.advance(1.0)
            sequence_point()

    def barriers(comm) -> None:
        for _ in range(k):
            comm.barrier()

    def allgathers(comm) -> None:
        for _ in range(k):
            comm.allgather(comm.rank)

    def alltoallvs(comm) -> None:
        payload = [b"x" * 16] * comm.size
        for _ in range(k):
            comm.alltoallv(payload)

    # A message is far cheaper than building the bridge it crosses, so it
    # takes many rounds for the difference of the two runs to resolve.
    p2p_rounds = 20 * k

    def intercomm_p2p(comm) -> None:
        side = comm.rank // (comm.size // 2)
        half = comm.Comm_split(color=side)
        inter = half.Create_intercomm(0, comm, 0 if side else comm.size // 2, tag=7)
        for i in range(p2p_rounds):
            if side == 0:
                inter.send(b"x" * 64, dest=half.rank, tag=i)
            else:
                inter.recv(source=half.rank, tag=i)

    def intercomm_setup(comm) -> None:
        side = comm.rank // (comm.size // 2)
        half = comm.Comm_split(color=side)
        half.Create_intercomm(0, comm, 0 if side else comm.size // 2, tag=7)

    out["core.engine.handoff_us"] = per_rank_op(handoffs)
    out["mpi.barrier_us"] = per_rank_op(barriers)
    out["mpi.allgather_us"] = per_rank_op(allgathers)
    out["mpi.alltoallv_us"] = per_rank_op(alltoallvs)
    bridge = _spmd_seconds(intercomm_setup, P, reps)
    # One message per rank pair and round: P/2 sends matched by P/2 receives.
    out["mpi.intercomm_p2p_us"] = (
        max(0.0, _spmd_seconds(intercomm_p2p, P, reps) - bridge) / (P // 2 * p2p_rounds) * 1e6
    )

    # -- io: collective open + close per rank -------------------------------------
    io_fs = ParallelFileSystem(gpfs_config())

    def open_close(comm) -> None:
        for i in range(k):
            MPIFile.Open(comm, f"/probe/open{i}.dat", io_fs).Close()

    out["io.open_close_us"] = per_rank_op(open_close)

    # -- fs: one client handle on a one-task engine --------------------------------
    segments = list(views[0])
    data = rank_pattern_bytes(0, sum(length for _, length in segments))
    writes, cursor = [], 0
    for offset, length in segments:
        writes.append((offset, data[cursor : cursor + length]))
        cursor += length
    cycles = 20 if smoke else 200

    def fs_probe(comm) -> Dict[str, float]:
        fs = ParallelFileSystem(gpfs_config())
        handle = FSClient(fs, client_id=0, clock=comm.clock).open("/probe/fs.dat")
        t0 = time.perf_counter()
        handle.write_batch(writes, direct=True)
        t1 = time.perf_counter()
        handle.read_batch(segments, direct=True)
        t2 = time.perf_counter()
        for _ in range(cycles):
            handle.unlock(handle.lock(0, 4096))
        t3 = time.perf_counter()
        handle.close()
        return {
            "fs.write_batch_us_per_seg": (t1 - t0) / len(segments) * 1e6,
            "fs.read_batch_us_per_seg": (t2 - t1) / len(segments) * 1e6,
            "fs.lock_cycle_us": (t3 - t2) / cycles * 1e6,
        }

    fs_runs: List[Dict[str, float]] = [
        run_spmd(fs_probe, 1, comm_cost=COMM_COST).returns[0] for _ in range(reps)
    ]
    for key in fs_runs[0]:
        out[key] = min(run[key] for run in fs_runs)
    megabyte = rank_pattern_bytes(1, 1 << 20)
    out["fs.store_write_us_per_mb"] = (
        _best(_timed(lambda: ByteStore().write(0, megabyte, writer=0)), reps) * 1e6
    )

    # -- pure analysis layers on the workload's rank views --------------------------
    coverages = [region.coverage for region in regions]
    pairs = list(zip(coverages, coverages[1:]))

    def per_pair(op: str) -> float:
        def run() -> float:
            start = time.perf_counter()
            for a, b in pairs:
                getattr(a, op)(b)
            return (time.perf_counter() - start) / len(pairs)

        return _best(run, reps) * 1e6

    out["core.intervals.union_us"] = per_pair("union")
    out["core.intervals.intersect_us"] = per_pair("intersection")
    out["core.intervals.subtract_us"] = per_pair("subtract")
    out["core.overlap.matrix_host_s"] = _best(_timed(lambda: build_overlap_matrix(regions)), reps)
    matrix = build_overlap_matrix(regions)
    out["core.coloring.greedy_host_s"] = _best(_timed(lambda: greedy_coloring(matrix)), reps)
    out["core.rank_ordering.resolve_host_s"] = _best(_timed(lambda: resolve_by_rank(regions)), reps)
    out["core.autotune.classify_host_s"] = _best(_timed(lambda: classify_pattern(regions)), reps)

    # -- core.aggregation: elect, split the file domain, merge one chunk's pieces ----
    pieces = []
    for region in regions:
        stream = rank_pattern_bytes(region.rank, region.total_bytes)
        pieces.append(
            (region.rank, [(off, stream[buf : buf + n]) for buf, off, n in region.buffer_map()])
        )

    def plan() -> None:
        aggregators = choose_aggregators(P, max(1, P // 4))
        partition_domain(merge_interval_sets(coverages), len(aggregators))
        merge_pieces(pieces)

    out["core.aggregation.plan_host_s"] = _best(_timed(plan), reps)
    return out
