"""Fast benchmark smoke check for CI.

One Figure 8 grid point per registered atomicity-providing strategy
(including ``two-phase``) on a lock-capable machine personality, MPI
atomicity verified on every point, non-zero exit on any violation.  The row
scale is aggressive so the whole check takes a couple of seconds.

Run with::

    PYTHONPATH=src python -m repro.bench.smoke [pattern ...]
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from ..core.registry import default_registry
from .harness import run_figure8_grid

__all__ = ["run_smoke", "main"]

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print the smoke table, fail on atomicity violations.

    Arguments are partition pattern names (default ``column-wise``).
    """
    patterns = list(argv) if argv else ["column-wise"]
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
