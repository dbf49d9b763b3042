"""Experiment driver for the paper's evaluation (Figure 8) and its read
extension.

:func:`run_column_wise_experiment` measures one point: a partitioned
concurrent overlapping write of an ``M x N`` byte array by ``P`` processes on
one machine personality under one atomicity strategy, returning an
:class:`~repro.bench.results.ExperimentRecord` with the virtual-time
bandwidth and an atomicity verdict.  The paper's evaluation is column-wise
(the default ``pattern``); the harness can also sweep the row-wise and
block-block partitionings of Figures 1 and 3.

:func:`run_figure8_grid` sweeps the full grid the paper reports — three
machines × three array sizes × P ∈ {4, 8, 16} × the applicable strategies —
and returns a :class:`~repro.bench.results.ResultTable`.  Strategies come
from the central registry (:mod:`repro.core.registry`): by default every
registered atomicity-providing strategy runs, and strategies that need
byte-range locks are skipped on machines without lock support (Cplant/ENFS),
as in the paper.

The read side mirrors this: :func:`run_read_experiment` measures a collective
overlapping *read* of a previously checkpointed array under one strategy's
staged read pipeline (verifying read atomicity from the delivered streams),
and :func:`run_read_sweep` sweeps it over strategies and process counts.  A
writer group racing a reader group on one file is a multi-tenant workload:
:func:`repro.bench.multitenant.run_mixed_tenant_point`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.bulk import BulkReadExecutor, BulkWriteExecutor
from ..core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from ..core.overlap import overlapped_bytes_total
from ..core.regions import FileRegionSet
from ..core.registry import default_registry
from ..patterns.partition import views_for_pattern
from ..fs.filesystem import ParallelFileSystem
from ..mpi.cost import BENCH_COMM_COST
from ..patterns.workloads import (
    PAPER_ARRAY_SIZES,
    PAPER_OVERLAP_COLUMNS,
    PAPER_PROCESS_COUNTS,
    rank_fill_bytes,
    rank_pattern_bytes,
)
from ..verify.atomicity import ReadObservation, check_mpi_atomicity, check_read_atomicity
from .machines import ALL_MACHINES, MachineSpec, machine_by_name
from .results import ExperimentRecord, ResultTable

__all__ = [
    "DEFAULT_ROW_SCALE",
    "run_experiment",
    "run_column_wise_experiment",
    "run_read_experiment",
    "run_grid",
    "run_figure8_grid",
    "run_read_sweep",
    "strategies_for_machine",
]

#: Default divisor applied to the paper's 4096-row arrays so the full grid
#: (3 machines x 3 sizes x 3 process counts x the registered strategies)
#: completes in seconds.  Row counts scale the number of per-rank segments;
#: the relative behaviour of the strategies is unchanged (see EXPERIMENTS.md).
DEFAULT_ROW_SCALE = 64


def strategies_for_machine(machine: MachineSpec, strategies: Sequence[str]) -> List[str]:
    """Drop strategies whose registered capabilities the machine lacks.

    Today that means lock-requiring strategies on machines without byte-range
    locking (ENFS), exactly as in the paper; the filter reads the capability
    off the registered class rather than hard-coding strategy names.
    """
    return [
        s for s in strategies
        if default_registry.supported_on(s, machine.supports_locking)
    ]


def run_experiment(
    mode: str,
    machine: MachineSpec | str,
    M: int,
    N: int,
    nprocs: int,
    strategy: str,
    overlap_columns: int = PAPER_OVERLAP_COLUMNS,
    array_label: Optional[str] = None,
    verify: bool = True,
    pattern: str = "column-wise",
    executor: str = "engine",
    strategy_options: Optional[dict] = None,
) -> ExperimentRecord:
    """Measure one (machine, size, P, strategy) point in either direction.

    ``mode="write"`` (:func:`run_column_wise_experiment`, one point of
    Figure 8) measures the concurrent overlapping write.  ``mode="read"``
    (:func:`run_read_experiment`) first checkpoints the array (an atomic
    two-phase write, not part of the measurement), then has every rank read
    its view back collectively under ``strategy``'s staged read pipeline;
    ``verify=True`` checks the delivered streams with
    :func:`~repro.verify.atomicity.check_read_atomicity`.  The directions
    differ only in that seed, in which executor pair drives the collective
    and in how the outcome is verified.

    ``pattern`` selects the partitioning (``column-wise`` — the paper's
    evaluation and the default — ``row-wise`` or ``block-block``);
    ``overlap_columns`` is the ghost width ``R`` of the chosen pattern.

    ``executor`` selects the execution substrate (for a read, of the seed
    too): ``"engine"`` (the cooperative event engine, any strategy) or
    ``"bulk"`` (the bulk-synchronous replay of :mod:`repro.core.bulk` —
    aggregation strategies only, bit-identical virtual times, tens of
    thousands of ranks in seconds).  ``strategy_options`` are keyword
    arguments for the strategy's constructor (e.g. ``num_aggregators``,
    ``ranks_per_node``).
    """
    if executor not in ("engine", "bulk"):
        raise ValueError(f"unknown executor {executor!r}; known: engine, bulk")
    if isinstance(machine, str):
        machine = machine_by_name(machine)
    fs = ParallelFileSystem(machine.make_fs_config())
    suffix = "_read" if mode == "read" else ""
    filename = f"{machine.file_system.lower()}_{M}x{N}_p{nprocs}_{strategy}{suffix}.dat"
    if mode == "read":
        write_regions, write_data = _checkpoint_file(
            fs, filename, M, N, nprocs, overlap_columns, pattern, executor=executor
        )
        engine_cls, bulk_cls = CollectiveReadExecutor, BulkReadExecutor
    else:
        engine_cls, bulk_cls = AtomicWriteExecutor, BulkWriteExecutor
    strat = default_registry.create(strategy, **(strategy_options or {}))
    runner = (engine_cls if executor == "engine" else bulk_cls)(
        fs,
        strat,
        filename=filename,
        comm_cost=BENCH_COMM_COST,
    )
    atomic_ok = True
    if mode == "read":
        # The restart reads the same partitioning the checkpoint wrote; reuse
        # the writers' already-built region sets instead of regenerating the
        # views.
        result = runner.run(
            nprocs, view_factory=lambda rank, _P: write_regions[rank].segments
        )
        if verify:
            atomic_ok = _read_back_ok(result, write_regions, write_data)
        bytes_moved = result.total_bytes_read
        extra = {
            "cache_hits": float(sum(o.cache_hits for o in result.outcomes)),
            "cache_misses": float(sum(o.cache_misses for o in result.outcomes)),
            "shuffled_bytes": float(sum(o.bytes_shuffled for o in result.outcomes)),
        }
    else:
        views = views_for_pattern(pattern, M, N, nprocs, overlap_columns)
        result = runner.run(
            nprocs,
            view_factory=lambda rank, _P: views[rank],
            data_factory=rank_fill_bytes,
        )
        if verify and strat.provides_atomicity:
            atomic_ok = check_mpi_atomicity(result.file.store, result.regions).ok
        bytes_moved = result.total_bytes_written
        extra = {}
    lm = result.file.lock_manager
    lock_waits = lm.wait_count if lm is not None else 0
    selected = None
    decision = getattr(strat, "last_decision", None)
    if decision is not None:
        # The adaptive tuner exposes what it chose; record the concrete
        # delegate and the derived hints alongside the measurement.
        selected = decision.strategy
        extra.update(decision.hints())
    return ExperimentRecord(
        machine=machine.name,
        file_system=machine.file_system,
        array_label=array_label or f"{M}x{N}",
        M=M,
        N=N,
        nprocs=nprocs,
        strategy=strategy,
        bytes_requested=result.total_bytes_requested,
        bytes_written=bytes_moved,
        makespan_seconds=result.makespan,
        atomic_ok=atomic_ok,
        overlap_bytes=overlapped_bytes_total(result.regions),
        phases=max(o.phases for o in result.outcomes),
        lock_waits=lock_waits,
        pattern=pattern,
        mode=mode,
        extra=extra,
        selected_strategy=selected,
    )


run_column_wise_experiment = partial(run_experiment, "write")
run_read_experiment = partial(run_experiment, "read")


def run_grid(
    mode: str,
    machines: Optional[Iterable[MachineSpec | str]] = None,
    array_labels: Optional[Sequence[str]] = None,
    process_counts: Sequence[int] = PAPER_PROCESS_COUNTS,
    strategies: Optional[Sequence[str]] = None,
    row_scale: int = DEFAULT_ROW_SCALE,
    overlap_columns: int = PAPER_OVERLAP_COLUMNS,
    verify: bool = True,
    pattern: str = "column-wise",
) -> ResultTable:
    """Sweep machines × sizes × P × strategies; returns every measured point.

    ``mode="write"`` is the Figure 8 grid (:func:`run_figure8_grid`), whose
    ``strategies`` default to every atomicity-providing strategy in the
    registry (including ``two-phase``); ``mode="read"``
    (:func:`run_read_sweep`) defaults to every read-capable one, including
    the non-atomic baseline ``none`` — the naive per-rank read the staged
    pipeline replaces — so two-phase aggregation can be compared directly
    against it.  Either way a machine runs only the strategies it supports.
    ``row_scale`` divides the paper's 4096-row arrays (see
    :data:`DEFAULT_ROW_SCALE`); pass 1 to run the paper's exact shapes.
    """
    if strategies is None:
        strategies = (
            default_registry.atomic_names()
            if mode == "write"
            else default_registry.read_capable_names()
        )
    table = ResultTable()
    for machine in ALL_MACHINES if machines is None else machines:
        spec = machine_by_name(machine) if isinstance(machine, str) else machine
        for label in PAPER_ARRAY_SIZES if array_labels is None else array_labels:
            M, N = PAPER_ARRAY_SIZES[label]
            if M % row_scale != 0:
                raise ValueError(f"row_scale {row_scale} does not divide M={M}")
            for nprocs in process_counts:
                for strategy in strategies_for_machine(spec, strategies):
                    table.add(
                        run_experiment(
                            mode, spec, M // row_scale, N, nprocs, strategy,
                            overlap_columns=overlap_columns,
                            array_label=label,
                            verify=verify,
                            pattern=pattern,
                        )
                    )
    return table


run_figure8_grid = partial(run_grid, "write")
run_read_sweep = partial(run_grid, "read")


def _read_back_ok(result, write_regions, write_data) -> bool:
    """Whether a read of a *completed* checkpoint delivered the right bytes."""
    nprocs = len(result.regions)
    observations = [
        ReadObservation(rank, result.regions[rank], result.data[rank])
        for rank in range(nprocs)
    ]
    if not check_read_atomicity(observations, write_regions, write_data).ok:
        return False
    # The checkpoint completed before the read began, so serialisability
    # admits exactly one state: every delivered stream must equal the
    # committed file contents — a reader returning the pre-write baseline
    # (which check_read_atomicity must accept for *racing* workloads) would
    # be a broken pipeline here.
    store = result.file.store
    return all(
        result.data[rank]
        == b"".join(
            store.read(off, length)
            for _, off, length in result.regions[rank].buffer_map()
        )
        for rank in range(nprocs)
    )


def _checkpoint_file(
    fs: ParallelFileSystem,
    filename: str,
    M: int,
    N: int,
    nprocs: int,
    overlap_columns: int,
    pattern: str,
    executor: str = "engine",
) -> Tuple[List[FileRegionSet], List[bytes]]:
    """Seed ``filename`` with a completed atomic checkpoint write.

    The file is written under the two-phase strategy (runnable on every
    machine personality) with rank-identifying pattern data; returns the
    writer views and streams so a later read can be verified against them.
    ``executor="bulk"`` seeds via the bulk-synchronous write replay — the
    merged file bytes are identical to the engine path's, and it is the only
    substrate that reaches the extended read sweep's rank counts.  The bulk
    seed uses the hierarchical strategy (byte-identical to flat two-phase,
    pinned by ``tests/test_core_hierarchical.py``): the flat shuffle's dense
    per-source bookkeeping is O(P × aggregators) and would dominate the
    measured read at tens of thousands of ranks.
    """
    views = views_for_pattern(pattern, M, N, nprocs, overlap_columns)
    if executor == "engine":
        executor_cls = AtomicWriteExecutor
        seed_strategy = default_registry.create("two-phase")
    else:
        executor_cls = BulkWriteExecutor
        seed_strategy = default_registry.create(
            "two-phase-hier",
            num_aggregators=max(1, nprocs // 256),
            ranks_per_node=8,
        )
    executor = executor_cls(
        fs,
        seed_strategy,
        filename=filename,
        comm_cost=BENCH_COMM_COST,
    )
    streams: dict = {}

    def data_factory(rank: int, nbytes: int) -> bytes:
        streams[rank] = rank_pattern_bytes(rank, nbytes)
        return streams[rank]

    result = executor.run(
        nprocs,
        view_factory=lambda rank, _P: views[rank],
        data_factory=data_factory,
    )
    fs.reset_accounting()
    return result.regions, [streams[r] for r in range(nprocs)]

