"""Adaptive collective I/O benchmarks: ``auto`` vs the statics, and the
N-timestep repeated-collective workload that amortises the plan cache.

Two experiment families:

* :func:`run_adaptive_sweep` — the adaptive-vs-static grid.  Every point of a
  (machine × pattern × P) grid is measured under each applicable static
  strategy *and* under ``auto``; the CI gate
  (:func:`repro.bench.perfgate.check_adaptive`) then asserts that ``auto`` is
  never worse than the best static by more than 10% anywhere and strictly
  beats every static somewhere.

* :func:`run_adaptive_read_sweep` — the same grid idea on the read path:
  every (machine × pattern × P) point of the read grid is seeded once and
  read back under each read-capable static and ``auto``, gated by
  ``check_adaptive`` under the ``perfgate/adaptive-read/`` prefix.

* :func:`run_repeated_collective` — the checkpoint-every-timestep workload:
  one file, one fixed view per rank, ``steps`` collective writes with fresh
  data each step.  From step 2 on, the ``auto`` strategy's cross-collective
  plan cache replays the exchanged views, the classification and the tuning
  decision instead of re-shipping and re-analysing them; per-step virtual
  finish times are recorded so the amortisation curve (first step cold,
  steps 2..N warm) can be plotted, and the wall clock per simulated op is
  what the plan-cache perf gate compares against a ``plan_cache=false`` run.

Both report through the standard :class:`~repro.bench.results.ExperimentRecord`
/ JSON-artifact pipeline (``python -m repro.bench.adaptive`` writes
``benchmarks/results/latest.json`` entries under ``adaptive/...``).
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.autotune import AutoStrategy, peek_record
from ..core.executor import AtomicWriteExecutor
from ..core.overlap import overlapped_bytes_total
from ..core.regions import FileRegionSet
from ..core.registry import default_registry
from ..fs.client import FSClient
from ..fs.filesystem import ParallelFileSystem
from ..mpi.comm import CommCostModel, Communicator
from ..mpi.runtime import run_spmd
from ..patterns.partition import views_for_pattern
from ..patterns.workloads import PAPER_OVERLAP_COLUMNS, rank_pattern_bytes
from ..verify.atomicity import check_mpi_atomicity
from .harness import (
    run_column_wise_experiment,
    run_read_experiment,
    strategies_for_machine,
)
from .jsonlog import entries_from_records, record_results
from .machines import MachineSpec, machine_by_name
from .results import ExperimentRecord, ResultTable

__all__ = [
    "ADAPTIVE_GRID",
    "ADAPTIVE_READ_GRID",
    "REPEATED_POINT",
    "repeated_filename",
    "run_repeated_collective",
    "run_adaptive_sweep",
    "run_adaptive_read_sweep",
    "outcome_fingerprint",
    "fingerprint_of",
    "main",
]


def repeated_filename(
    machine: MachineSpec, M: int, N: int, nprocs: int, label: str
) -> str:
    """The file a repeated-collective run writes (for later inspection)."""
    return f"{machine.file_system.lower()}_{M}x{N}_p{nprocs}_{label}_repeated.dat"

#: The gated adaptive-vs-static grid: (machine, pattern, P) points covering a
#: locking machine and the lockless ENFS, the paper's column-wise partitioning
#: and the 2-D block-block one.  Sizes follow the 32 MB panel at the standard
#: ``DEFAULT_ROW_SCALE`` (M=64, N=8192).  The P∈{64, 256} points sit past the
#: hint engine's hierarchical threshold, so the ``two-phase-hier`` rule is
#: exercised (and gated) on both machines, not just the flat small-P régime.
ADAPTIVE_GRID: Tuple[Tuple[str, str, int], ...] = (
    ("Origin 2000", "column-wise", 4),
    ("Origin 2000", "column-wise", 16),
    ("Origin 2000", "block-block", 8),
    ("Cplant", "column-wise", 8),
    ("Cplant", "block-block", 16),
    ("Cplant", "column-wise", 64),
    ("Origin 2000", "column-wise", 256),
)
_GRID_SHAPE = (64, 8192)  # M x N at row scale 64 of the 32 MB panel

#: The read-side twin of :data:`ADAPTIVE_GRID`: every point is measured under
#: each read-capable static and ``auto`` via the read-back harness
#: (:func:`repro.bench.harness.run_read_experiment`), and gated the same way
#: (auto within 10% of the best static everywhere, strictly ahead somewhere).
#: The small-P points pin the fetch-parallel flat rule (two aggregators per
#: I/O server), the P∈{64, 256} points the hierarchical read régime.
ADAPTIVE_READ_GRID: Tuple[Tuple[str, str, int], ...] = (
    ("Origin 2000", "column-wise", 16),
    ("Origin 2000", "block-block", 8),
    ("Cplant", "column-wise", 8),
    ("Cplant", "block-block", 16),
    ("Cplant", "column-wise", 64),
    ("Origin 2000", "column-wise", 256),
)

#: The repeated-collective point: P ranks re-writing the same column-wise
#: views for `steps` timesteps.  Sized so a warm step's saved work (P view
#: payloads, P region rebuilds, classification, sweep-line) is large enough
#: to measure in wall clock.
REPEATED_POINT = ("Origin 2000", "column-wise", 16, 256, 4096, 6)  # machine, pattern, P, M, N, steps


def run_repeated_collective(
    machine: MachineSpec | str,
    M: int,
    N: int,
    nprocs: int,
    steps: int,
    strategy: str = "auto",
    pattern: str = "column-wise",
    overlap_columns: int = PAPER_OVERLAP_COLUMNS,
    plan_cache: bool = True,
    verify: bool = True,
    array_label: Optional[str] = None,
    fs: Optional[ParallelFileSystem] = None,
) -> ExperimentRecord:
    """Measure ``steps`` repeated collective writes of one fixed partitioning.

    Every step writes fresh rank-identifying data through the same views —
    the checkpoint-every-timestep workload.  The returned record covers the
    whole run (``phases=steps``, so the wall-clock gate's per-op cost is per
    collective-step-rank); ``extra`` carries the first-step and mean warm-step
    virtual times plus, for ``auto``, the plan-cache hit/miss counters.

    ``strategy="auto"`` with ``plan_cache=False`` is reported under the
    strategy label ``auto-nocache`` so both variants of the same point can
    coexist in one results table.
    """
    if steps < 2:
        raise ValueError("a repeated-collective run needs at least 2 steps")
    if isinstance(machine, str):
        machine = machine_by_name(machine)
    if fs is None:
        fs = ParallelFileSystem(machine.make_fs_config())
    if strategy == "auto":
        strat = AutoStrategy(plan_cache=plan_cache)
        label = "auto" if plan_cache else "auto-nocache"
    else:
        strat = default_registry.create(strategy)
        label = strategy
    filename = repeated_filename(machine, M, N, nprocs, label)
    bind = getattr(strat, "bind_context", None)
    if bind is not None:
        bind(fs, filename)
    fobj = fs.create(filename)
    views = views_for_pattern(pattern, M, N, nprocs, overlap_columns)
    regions = [FileRegionSet(rank, views[rank]) for rank in range(nprocs)]

    def rank_main(comm: Communicator):
        rank = comm.rank
        region = regions[rank]
        client = FSClient(fs, client_id=rank, clock=comm.clock)
        handle = client.open(filename, create=False)
        outcomes = []
        finish_times = []
        wall_marks = []
        try:
            for step in range(steps):
                data = rank_pattern_bytes(rank + step * nprocs, region.total_bytes)
                outcomes.append(strat.execute_write(comm, handle, region, data))
                finish_times.append(comm.clock.now)
                wall_marks.append(time.process_time())
        finally:
            handle.close()
        return outcomes, finish_times, wall_marks

    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    spmd = run_spmd(
        rank_main, nprocs, comm_cost=CommCostModel(latency=30e-6, byte_cost=1e-8)
    )
    wall_seconds = time.perf_counter() - wall_start
    atomic_ok = True
    if verify and strat.provides_atomicity:
        # Every step is a complete atomic collective; the final state is the
        # last step's outcome and must satisfy MPI atomicity on its own.
        atomic_ok = check_mpi_atomicity(fobj.store, regions).ok
    # Per-step virtual finish times: the step's makespan is the slowest
    # rank's finish; step costs are the deltas.  The wall marks give the same
    # per-step breakdown in host time — measured *within* one run, so the
    # cold-vs-warm comparison is immune to run-to-run scheduler noise.
    step_ends = [
        max(times[step] for _, times, _ in spmd.returns) for step in range(steps)
    ]
    wall_ends = [
        max(marks[step] for _, _, marks in spmd.returns) for step in range(steps)
    ]
    first_step = step_ends[0]
    warm_mean = (step_ends[-1] - step_ends[0]) / (steps - 1)
    extra: Dict[str, float] = {
        "wall_seconds": wall_seconds,
        "steps": float(steps),
        "first_step_seconds": first_step,
        "warm_step_seconds": warm_mean,
        "first_step_cpu": wall_ends[0] - cpu_start,
        "warm_step_cpu": (wall_ends[-1] - wall_ends[0]) / (steps - 1),
    }
    selected = None
    decision = getattr(strat, "last_decision", None)
    if decision is not None:
        selected = decision.strategy
        extra.update(decision.hints())
        record = peek_record(fs, filename)
        if record is not None:
            extra["plan_hits"] = float(record.hits)
            extra["plan_misses"] = float(record.misses)
            # Resolution CPU per simulated op (rank-collective), split by
            # cache verdict: the direct host-time measure of what a plan-cache
            # hit saves — robust against simulator/scheduler noise because it
            # times only the work the cache elides.
            if record.misses:
                extra["resolve_cold_cpu_per_op"] = record.cold_cpu / (
                    record.misses * nprocs
                )
            if record.hits:
                extra["resolve_warm_cpu_per_op"] = record.warm_cpu / (
                    record.hits * nprocs
                )
    outcomes = [o for outs, _, _ in spmd.returns for o in outs]
    return ExperimentRecord(
        machine=machine.name,
        file_system=machine.file_system,
        array_label=array_label or f"{M}x{N}x{steps}",
        M=M,
        N=N,
        nprocs=nprocs,
        strategy=label,
        bytes_requested=sum(o.bytes_requested for o in outcomes),
        bytes_written=sum(o.bytes_moved for o in outcomes),
        makespan_seconds=spmd.makespan,
        atomic_ok=atomic_ok,
        overlap_bytes=overlapped_bytes_total(regions),
        phases=steps,
        pattern=pattern,
        extra=extra,
        selected_strategy=selected,
    )


def outcome_fingerprint(
    machine: MachineSpec | str,
    M: int,
    N: int,
    nprocs: int,
    steps: int,
    plan_cache: bool,
    pattern: str = "column-wise",
) -> Tuple[bytes, Tuple[int, ...]]:
    """Bytes + provenance a repeated-collective ``auto`` run leaves behind.

    Runs :func:`run_repeated_collective` on a *private* file system and
    returns the final file contents and the per-byte writer provenance — the
    identity the plan-cache gate compares between ``plan_cache`` on and off
    (a cached plan replaying different bytes than the cold path would be a
    correctness bug, not a performance trade-off).
    """
    if isinstance(machine, str):
        machine = machine_by_name(machine)
    fs = ParallelFileSystem(machine.make_fs_config())
    record = run_repeated_collective(
        machine, M, N, nprocs, steps, plan_cache=plan_cache, pattern=pattern, fs=fs
    )
    label = "auto" if plan_cache else "auto-nocache"
    assert record.atomic_ok
    return fingerprint_of(fs, repeated_filename(machine, M, N, nprocs, label))


def fingerprint_of(fs: ParallelFileSystem, filename: str) -> Tuple[bytes, Tuple[int, ...]]:
    """Final bytes and per-byte writer provenance of ``filename`` on ``fs``."""
    fobj = fs.lookup(filename)
    size = fobj.store.size
    return (
        fobj.store.read(0, size),
        tuple(int(w) for w in fobj.store.writers(0, size)),
    )


def run_adaptive_sweep(
    grid: Sequence[Tuple[str, str, int]] = ADAPTIVE_GRID,
    shape: Tuple[int, int] = _GRID_SHAPE,
    verify: bool = False,
) -> ResultTable:
    """Measure every grid point under each applicable static and ``auto``."""
    M, N = shape
    table = ResultTable()
    for machine_name, pattern, nprocs in grid:
        spec = machine_by_name(machine_name)
        for strategy in strategies_for_machine(
            spec, default_registry.atomic_names()
        ):
            table.add(
                run_column_wise_experiment(
                    spec,
                    M,
                    N,
                    nprocs,
                    strategy,
                    pattern=pattern,
                    verify=verify,
                    array_label=f"{M}x{N}",
                )
            )
    return table


def run_adaptive_read_sweep(
    grid: Sequence[Tuple[str, str, int]] = ADAPTIVE_READ_GRID,
    shape: Tuple[int, int] = _GRID_SHAPE,
    verify: bool = False,
) -> ResultTable:
    """Measure every read grid point under each read-capable static + ``auto``.

    The read-side counterpart of :func:`run_adaptive_sweep`: the file is
    seeded once per point by the harness, then read back collectively under
    every strategy.  ``auto`` rows carry the ``selected`` delegate and the
    derived ``cb_*``/``read_ahead`` hints for the jsonlog.
    """
    M, N = shape
    table = ResultTable()
    for machine_name, pattern, nprocs in grid:
        spec = machine_by_name(machine_name)
        for strategy in strategies_for_machine(
            spec, default_registry.read_capable_names()
        ):
            table.add(
                run_read_experiment(
                    machine_name,
                    M,
                    N,
                    nprocs,
                    strategy,
                    pattern=pattern,
                    verify=verify,
                    array_label=f"{M}x{N}",
                )
            )
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run the adaptive sweep + the repeated-collective pair, print and
    record the results (``adaptive/...`` entries in ``latest.json``)."""
    args = list(argv) if argv is not None else sys.argv[1:]
    quick = "--quick" in args

    table = run_adaptive_sweep(ADAPTIVE_GRID[:2] if quick else ADAPTIVE_GRID)
    print(table.to_text("Adaptive vs static (column-wise/block-block grid)"))
    record_results("adaptive/sweep", entries_from_records(table.records))

    read_table = run_adaptive_read_sweep(
        ADAPTIVE_READ_GRID[:2] if quick else ADAPTIVE_READ_GRID
    )
    print(read_table.to_text("Adaptive vs static, read-back grid"))
    record_results("adaptive/read-sweep", entries_from_records(read_table.records))

    machine, pattern, P, M, N, steps = REPEATED_POINT
    repeated: List[ExperimentRecord] = []
    for strategy, plan_cache in (("auto", True), ("auto", False), ("two-phase", True)):
        repeated.append(
            run_repeated_collective(
                machine, M, N, P, steps,
                strategy=strategy, pattern=pattern, plan_cache=plan_cache,
            )
        )
    rep_table = ResultTable(repeated)
    print(rep_table.to_text(f"Repeated collective ({steps} steps)"))
    for rec in repeated:
        if rec.strategy.startswith("auto"):
            print(
                f"  {rec.strategy}: first step {rec.extra['first_step_seconds']:.6f}s, "
                f"warm step {rec.extra['warm_step_seconds']:.6f}s, "
                f"plan hits {rec.extra.get('plan_hits', 0):.0f}/"
                f"{rec.extra.get('plan_hits', 0) + rec.extra.get('plan_misses', 0):.0f}"
            )
    record_results("adaptive/repeated", entries_from_records(repeated))
    print("adaptive benchmark recorded")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
