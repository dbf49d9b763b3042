"""Adaptive collective I/O benchmarks: ``auto`` vs the statics, and the
N-timestep repeated-collective workload that amortises the plan cache.

Two experiment families, each with the perf-gate check that judges it:

* :func:`run_adaptive_sweep` / :func:`run_adaptive_read_sweep` — the
  adaptive-vs-static grids, one body (:func:`run_adaptive_grid`) over the two
  directions.  Every point of a (machine × pattern × P) grid is measured
  under each applicable static strategy *and* under ``auto`` (a read point
  is seeded once and read back); :func:`check_adaptive` then asserts that
  ``auto`` is never worse than the best static by more than 10% anywhere and
  strictly beats every static somewhere, per direction.

* :func:`run_repeated_collective` — the checkpoint-every-timestep workload:
  one file, one fixed view per rank, ``steps`` collective writes with fresh
  data each step.  From step 2 on, the ``auto`` strategy's cross-collective
  plan cache replays the exchanged views, the classification and the tuning
  decision instead of re-shipping and re-analysing them; per-step virtual
  finish times are recorded so the amortisation curve (first step cold,
  steps 2..N warm) can be plotted; :func:`check_plan_cache` compares the run
  against a ``plan_cache=false`` twin (:func:`measure_plan_cache`).

All report through the standard :class:`~repro.bench.results.ExperimentRecord`
/ JSON-artifact pipeline (``python -m repro.bench.adaptive`` writes
``benchmarks/results/latest.json`` entries under ``adaptive/...``).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.autotune import AutoStrategy, peek_record
from ..core.executor import rank_main
from ..core.overlap import overlapped_bytes_total
from ..core.regions import FileRegionSet
from ..core.registry import default_registry
from ..fs.filesystem import ParallelFileSystem
from ..mpi.comm import Communicator
from ..mpi.cost import BENCH_COMM_COST
from ..mpi.runtime import run_spmd
from ..patterns.partition import views_for_pattern
from ..patterns.workloads import PAPER_OVERLAP_COLUMNS, rank_pattern_bytes
from ..verify.atomicity import check_mpi_atomicity
from .harness import run_experiment, strategies_for_machine
from .machines import MachineSpec, machine_by_name
from .results import ExperimentRecord, ResultTable
from .sweep import sweep_records

__all__ = [
    "ADAPTIVE_GRID",
    "ADAPTIVE_READ_GRID",
    "REPEATED_POINT",
    "repeated_filename",
    "run_repeated_collective",
    "grid_points",
    "run_grid_point",
    "run_adaptive_grid",
    "run_adaptive_sweep",
    "run_adaptive_read_sweep",
    "fingerprint_of",
    "DEFAULT_ADAPTIVE_FACTOR",
    "ADAPTIVE_PREFIX",
    "ADAPTIVE_READ_PREFIX",
    "measure_grid",
    "check_adaptive",
    "measure_plan_cache",
    "check_plan_cache",
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


#: Gate: the adaptive ``auto`` strategy may not be worse than the best static
#: strategy by more than this factor at any adaptive-sweep grid point.
DEFAULT_ADAPTIVE_FACTOR = 1.10

#: Experiment-name prefixes of the adaptive write and read-back grids; each
#: grid gets its own :func:`check_adaptive` pass, so the read tuner is held
#: to the same 10%-of-best-static standard as the write tuner, with its own
#: independent strict-win requirement.
ADAPTIVE_PREFIX = "perfgate/adaptive/"
ADAPTIVE_READ_PREFIX = "perfgate/adaptive-read/"

#: The ``auto`` warm (plan-cache hit) view-resolution CPU per rank-collective
#: must undercut the cold resolution cost by at least this factor — measured
#: host time of exactly the work a hit elides, so the margin is wide (~4-7x
#: in practice) and robust against scheduler noise.
DEFAULT_PLAN_CACHE_FACTOR = 0.5


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
    whole run (``phases=steps``); ``extra`` carries the first-step and mean
    warm-step virtual times plus, for ``auto``, the plan-cache hit/miss
    counters.

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
    strat.bind_context(fs, filename)
    fobj = fs.create(filename)
    views = views_for_pattern(pattern, M, N, nprocs, overlap_columns)
    regions = [FileRegionSet(rank, views[rank]) for rank in range(nprocs)]

    def write_steps(comm: Communicator, handle, region: FileRegionSet):
        outcomes = []
        finish_times = []
        for step in range(steps):
            data = rank_pattern_bytes(comm.rank + step * nprocs, region.total_bytes)
            outcomes.append(strat.execute_write(comm, handle, region, data))
            finish_times.append(comm.clock.now)
        return outcomes, finish_times

    spmd = run_spmd(
        rank_main(fs, filename, regions, write_steps),
        nprocs,
        comm_cost=BENCH_COMM_COST,
    )
    atomic_ok = True
    if verify and strat.provides_atomicity:
        # Every step is a complete atomic collective; the final state is the
        # last step's outcome and must satisfy MPI atomicity on its own.
        atomic_ok = check_mpi_atomicity(fobj.store, regions).ok
    # Per-step virtual finish times: the step's makespan is the slowest
    # rank's finish; step costs are the deltas.
    step_ends = [
        max(times[step] for _, times in spmd.returns) for step in range(steps)
    ]
    extra: Dict[str, float] = {
        "steps": float(steps),
        "first_step_seconds": step_ends[0],
        "warm_step_seconds": (step_ends[-1] - step_ends[0]) / (steps - 1),
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
    outcomes = [o for outs, _ in spmd.returns for o in outs]
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


def fingerprint_of(fs: ParallelFileSystem, filename: str) -> Tuple[bytes, Tuple[int, ...]]:
    """Final bytes and per-byte writer provenance of ``filename`` on ``fs``."""
    fobj = fs.lookup(filename)
    size = fobj.store.size
    return (
        fobj.store.read(0, size),
        tuple(int(w) for w in fobj.store.writers(0, size)),
    )


def grid_points(
    mode: str, grid: Optional[Sequence[Tuple[str, str, int]]] = None
) -> List[Tuple[str, str, int, str]]:
    """The sweep points of a grid: ``(machine, pattern, P, strategy)``.

    Every grid point is measured under each static the machine supports
    *and* under ``auto`` — the atomic strategies on the write grid
    (``mode="write"``, default :data:`ADAPTIVE_GRID`), the read-capable ones
    on the read grid (default :data:`ADAPTIVE_READ_GRID`).
    """
    if grid is None:
        grid = ADAPTIVE_GRID if mode == "write" else ADAPTIVE_READ_GRID
    names = (
        default_registry.atomic_names()
        if mode == "write"
        else default_registry.read_capable_names()
    )
    return [
        (machine_name, pattern, nprocs, strategy)
        for machine_name, pattern, nprocs in grid
        for strategy in strategies_for_machine(machine_by_name(machine_name), names)
    ]


def run_grid_point(
    mode: str,
    point: Tuple[str, str, int, str],
    shape: Tuple[int, int] = _GRID_SHAPE,
    verify: bool = False,
) -> ExperimentRecord:
    """Measure one :func:`grid_points` point (a read seeds its file first).

    ``auto`` rows carry the ``selected`` delegate and the derived
    ``cb_*``/``read_ahead`` hints for the jsonlog.
    """
    machine_name, pattern, nprocs, strategy = point
    M, N = shape
    return run_experiment(
        mode, machine_name, M, N, nprocs, strategy,
        pattern=pattern, verify=verify, array_label=f"{M}x{N}",
    )


def run_adaptive_grid(
    mode: str,
    grid: Optional[Sequence[Tuple[str, str, int]]] = None,
    shape: Tuple[int, int] = _GRID_SHAPE,
    verify: bool = False,
) -> ResultTable:
    """Measure every point of the write (:func:`run_adaptive_sweep`) or read
    (:func:`run_adaptive_read_sweep`) grid under each applicable static and
    ``auto``."""
    return ResultTable(
        run_grid_point(mode, point, shape, verify) for point in grid_points(mode, grid)
    )


run_adaptive_sweep = partial(run_adaptive_grid, "write")
run_adaptive_read_sweep = partial(run_adaptive_grid, "read")


def measure_grid(mode: str, prefix: str) -> Dict[str, List[Dict]]:
    """Sweep one adaptive grid for the perf gate: one experiment per
    (machine, pattern) under ``prefix``, which keeps ``(P, strategy)`` unique
    within each."""

    def experiment_of(point: Tuple[str, str, int, str]) -> str:
        machine_name, pattern = point[:2]
        return f"{prefix}{machine_by_name(machine_name).file_system.lower()}-{pattern}"

    _, measured = sweep_records(
        experiment_of, grid_points(mode), partial(run_grid_point, mode)
    )
    return measured


def check_adaptive(
    measured: Dict[str, Sequence[Dict]],
    factor: float = DEFAULT_ADAPTIVE_FACTOR,
    prefix: str = ADAPTIVE_PREFIX,
) -> List[str]:
    """The adaptive gate: problems (empty when it passes).

    Two conditions over every ``prefix`` experiment's grid points:

    * ``auto``'s makespan is within ``factor`` of the best static strategy at
      **every** point (the tuner never loses badly), and
    * ``auto`` strictly beats every static at **at least one** point (the
      derived hints genuinely buy something, they are not just a pass-through
      to one of the defaults).
    """
    problems: List[str] = []
    points = 0
    strict_wins = 0
    for experiment in sorted(measured):
        if not experiment.startswith(prefix):
            continue
        by_p: Dict[int, Dict[str, float]] = {}
        for entry in measured[experiment]:
            by_p.setdefault(entry["P"], {})[entry["strategy"]] = entry["makespan"]
        for P, strategies in sorted(by_p.items()):
            auto = strategies.get("auto")
            statics = {
                name: makespan
                for name, makespan in strategies.items()
                if name != "auto"
            }
            if auto is None or not statics:
                problems.append(
                    f"{experiment}: P={P} lacks an auto or a static measurement"
                )
                continue
            points += 1
            best_name, best = min(statics.items(), key=lambda item: item[1])
            if auto > best * factor:
                problems.append(
                    f"{experiment}: P={P} auto makespan {auto:.6f}s is worse "
                    f"than the best static ({best_name}, {best:.6f}s) by more "
                    f"than {factor - 1.0:.0%}"
                )
            if auto < best:
                strict_wins += 1
    if points == 0:
        problems.append(f"adaptive gate: no {prefix}* grid points measured")
    elif strict_wins == 0:
        problems.append(
            "adaptive gate: auto never strictly beat every static strategy "
            f"at any of the {points} grid points"
        )
    return problems


def measure_plan_cache(experiment: str) -> Dict[str, List[Dict]]:
    """Sweep the :data:`REPEATED_POINT` workload twice — ``auto`` with the
    plan cache on and off — on private file systems, filed under
    ``experiment``.  Each entry carries, as evidence for
    :func:`check_plan_cache`, its record's ``extra`` counters,
    ``atomic_ok``, and ``same_outcome`` (final bytes and per-byte writer
    provenance equal across the pair)."""
    machine_name, pattern, P, M, N, steps = REPEATED_POINT
    machine = machine_by_name(machine_name)
    fingerprints = []

    def run_point(plan_cache: bool) -> ExperimentRecord:
        fs = ParallelFileSystem(machine.make_fs_config())
        record = run_repeated_collective(
            machine, M, N, P, steps, pattern=pattern, plan_cache=plan_cache, fs=fs
        )
        fingerprints.append(
            fingerprint_of(fs, repeated_filename(machine, M, N, P, record.strategy))
        )
        return record

    records, measured = sweep_records(experiment, (True, False), run_point)
    for entry, record in zip(measured[experiment], records):
        entry.update(
            record.extra,
            atomic_ok=record.atomic_ok,
            same_outcome=fingerprints[0] == fingerprints[1],
        )
    return measured


def check_plan_cache(
    experiment: str,
    entries: Sequence[Dict],
    factor: float = DEFAULT_PLAN_CACHE_FACTOR,
) -> List[str]:
    """The plan-cache gate over :func:`measure_plan_cache`'s cached
    (``auto``) and cold (``auto-nocache``) entries:

    * **identity** — both runs atomic, and the cached run's bytes *and*
      provenance equal the cold run's (a replayed plan must be a pure
      performance optimisation);
    * **virtual time** — every step after the first hits, warm steps are
      cheaper than the first (cold) step, and the cached makespan never
      exceeds the uncached one (the hit claim payload is smaller than the
      shipped view, never larger);
    * **resolution CPU** — the warm per-rank-collective view-resolution CPU
      is under ``factor`` of the cold one (the work a hit elides, measured
      directly so simulator overhead cannot drown it).
    """
    on, off = entries
    problems = [
        f"the {entry['strategy']} run broke MPI atomicity"
        for entry in (on, off)
        if not entry["atomic_ok"]
    ]
    if not on["same_outcome"]:
        problems.append(
            "cached run's bytes/provenance differ from the cold run's — "
            "replayed plans are corrupting the outcome"
        )
    steps = int(on["steps"])
    hits = on.get("plan_hits", 0.0)
    if hits != float(steps - 1):
        problems.append(
            f"expected {steps - 1} hits over {steps} steps, observed {hits:.0f}"
        )
    if off.get("plan_hits", 0.0) != 0.0:
        problems.append("the plan_cache=false run recorded hits")
    if on["makespan"] > off["makespan"]:
        problems.append(
            f"cached makespan {on['makespan']:.6f}s exceeds the uncached "
            f"{off['makespan']:.6f}s"
        )
    if on["warm_step_seconds"] >= on["first_step_seconds"]:
        problems.append(
            f"warm steps ({on['warm_step_seconds']:.9f}s) are not cheaper than "
            f"the cold first step ({on['first_step_seconds']:.9f}s) in virtual time"
        )
    warm_cpu = on.get("resolve_warm_cpu_per_op")
    cold_cpu = off.get("resolve_cold_cpu_per_op")
    if warm_cpu is None or cold_cpu is None:
        problems.append("resolution CPU accounting is missing")
    elif warm_cpu >= cold_cpu * factor:
        problems.append(
            f"warm resolution {warm_cpu * 1e6:.1f}us/op is not under "
            f"{factor:g}x the cold {cold_cpu * 1e6:.1f}us/op"
        )
    return [f"{experiment}: {problem}" for problem in problems]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run both adaptive grids + the repeated-collective trio, print and
    record the results (``adaptive/...`` entries in ``latest.json``)."""
    for mode, experiment, title in (
        ("write", "adaptive/sweep", "Adaptive vs static (column-wise/block-block grid)"),
        ("read", "adaptive/read-sweep", "Adaptive vs static, read-back grid"),
    ):
        records, _ = sweep_records(
            experiment, grid_points(mode), lambda point: run_grid_point(mode, point)
        )
        print(ResultTable(records).to_text(title))

    machine, pattern, P, M, N, steps = REPEATED_POINT
    repeated, _ = sweep_records(
        "adaptive/repeated",
        (("auto", True), ("auto", False), ("two-phase", True)),
        lambda point: run_repeated_collective(
            machine, M, N, P, steps,
            strategy=point[0], pattern=pattern, plan_cache=point[1],
        ),
    )
    print(ResultTable(repeated).to_text(f"Repeated collective ({steps} steps)"))
    for rec in repeated:
        if rec.strategy.startswith("auto"):
            print(
                f"  {rec.strategy}: first step {rec.extra['first_step_seconds']:.6f}s, "
                f"warm step {rec.extra['warm_step_seconds']:.6f}s, "
                f"plan hits {rec.extra.get('plan_hits', 0):.0f}/"
                f"{rec.extra.get('plan_hits', 0) + rec.extra.get('plan_misses', 0):.0f}"
            )
    print("adaptive benchmark recorded")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
