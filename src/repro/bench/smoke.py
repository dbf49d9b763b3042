"""Fast benchmark smoke checks for CI.

Two checks share this entry point:

* **Atomicity smoke** (default): one Figure 8 grid point per registered
  atomicity-providing strategy (including ``two-phase``) on a lock-capable
  machine personality, MPI atomicity verified on every point, non-zero exit
  on any violation.  The row scale is aggressive so the whole check takes a
  couple of seconds.
* **Scalability smoke** (``--scale RANKS [BUDGET_SECONDS]``): one 512-rank
  (by default) column-wise atomic write under the two-phase strategy, end to
  end with verification, under a *hard wall-clock budget* — a performance
  regression in the event-driven SPMD kernel fails the build rather than
  silently making every sweep slower.

Run with::

    PYTHONPATH=src python -m repro.bench.smoke
    PYTHONPATH=src python -m repro.bench.smoke --scale 512 60
"""

from __future__ import annotations

import sys
import time
from typing import Optional, Sequence

from ..core.registry import default_registry
from .harness import run_column_wise_experiment, run_figure8_grid

__all__ = ["run_smoke", "run_scalability_smoke", "main"]

#: Scalability smoke workload: rows x columns of the column-wise array.
SCALE_M = 16
SCALE_N = 16384
#: Default hard wall-clock budget for the scalability smoke (seconds).  The
#: measured point takes ~2-4s on a laptop; the budget allows for slow CI
#: runners while still catching order-of-magnitude scheduler regressions.
SCALE_BUDGET_SECONDS = 60.0

#: Grid point the smoke check measures.
SMOKE_MACHINE = "Origin 2000"
SMOKE_LABEL = "32MB"
SMOKE_NPROCS = 4
SMOKE_ROW_SCALE = 256


def run_smoke(pattern: str = "column-wise"):
    """One grid point per registered atomic strategy; returns the table."""
    return run_figure8_grid(
        machines=[SMOKE_MACHINE],
        array_labels=[SMOKE_LABEL],
        process_counts=[SMOKE_NPROCS],
        strategies=default_registry.atomic_names(),
        row_scale=SMOKE_ROW_SCALE,
        verify=True,
        pattern=pattern,
    )


def run_scalability_smoke(
    nprocs: int = 512, budget_seconds: float = SCALE_BUDGET_SECONDS
) -> int:
    """Run a ``nprocs``-rank two-phase write under a hard wall-clock budget.

    Returns a process exit code: non-zero when the write exceeds the budget,
    violates atomicity, or fails outright.
    """
    t0 = time.perf_counter()
    record = run_column_wise_experiment(
        "IBM SP", SCALE_M, SCALE_N, nprocs, "two-phase", verify=True
    )
    wall = time.perf_counter() - t0
    print(
        f"scalability smoke: {nprocs}-rank two-phase column-wise write "
        f"({SCALE_M}x{SCALE_N}) in {wall:.2f}s wall "
        f"(budget {budget_seconds:.0f}s), virtual makespan "
        f"{record.makespan_seconds:.4f}s, atomic="
        f"{'yes' if record.atomic_ok else 'NO'}, engine switches="
        f"{record.extra['switches']}, scheduler_returns="
        f"{record.extra['scheduler_returns']}"
    )
    if not record.atomic_ok:
        print("FAIL: atomicity violated")
        return 1
    if wall > budget_seconds:
        print(
            f"FAIL: wall clock {wall:.2f}s exceeded the {budget_seconds:.0f}s "
            "budget — the event kernel's scalability regressed"
        )
        return 1
    print("scalability smoke ok")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print the smoke table, fail on atomicity violations.

    ``--scale RANKS [BUDGET_SECONDS]`` selects the scalability smoke
    instead; any other arguments are treated as partition pattern names for
    the atomicity smoke.
    """
    args = list(argv) if argv else []
    if args and args[0] == "--scale":
        nprocs = int(args[1]) if len(args) > 1 else 512
        budget = float(args[2]) if len(args) > 2 else SCALE_BUDGET_SECONDS
        return run_scalability_smoke(nprocs, budget)
    patterns = args or ["column-wise"]
    failed = False
    for pattern in patterns:
        table = run_smoke(pattern=pattern)
        print(table.to_text(title=f"Benchmark smoke ({pattern})"))
        expected = set(default_registry.atomic_names())
        measured = {r.strategy for r in table}
        if measured != expected:
            print(f"FAIL: expected strategies {sorted(expected)}, measured {sorted(measured)}")
            failed = True
        for record in table:
            if not record.atomic_ok:
                print(f"FAIL: atomicity violated for strategy {record.strategy!r}")
                failed = True
    if failed:
        return 1
    print("smoke ok: every strategy point verified MPI-atomic")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main(sys.argv[1:]))
