"""Collective read sweep — the restart-after-checkpoint scenario.

Beyond the paper: the staged collective-read pipeline (PR 4) measured on the
paper's machines.  Each point checkpoints a column-wise partitioned array
(atomic two-phase write, not measured), then has every rank read its
overlapping view back collectively under one strategy's read pipeline; read
atomicity is verified from the delivered streams.  Writers racing readers
on one file is the multi-tenant mixed point (``python -m
repro.bench.multitenant``).

Expected qualitative behaviour:
* two-phase aggregation is the fastest read path — each file byte is fetched
  from the servers once, however many ranks request it;
* the naive baseline (`none`), graph-coloring and rank-ordering pay per-rank
  cache refills of the overlapped columns;
* byte-range locking reads pay a direct server round trip per segment.
"""

from __future__ import annotations

import pytest

from repro.bench.adaptive import (
    ADAPTIVE_READ_GRID,
    ADAPTIVE_READ_PREFIX,
    check_adaptive,
    run_adaptive_read_sweep,
)
from repro.bench.harness import run_read_experiment, run_read_sweep
from repro.bench.jsonlog import entries_from_records
from repro.bench.results import ResultTable, format_table
from repro.bench.sweep import sweep_records

from conftest import report, report_json

PROCESS_COUNTS = [4, 8, 16]

#: Extended read sweep shape — the read twin of the Section 3.4 extended
#: write sweep: two rows of 2P-wide columns with ghost width 2, read back
#: through the bulk-synchronous replay executor.
EXTENDED_M, EXTENDED_R = 2, 2
EXTENDED_PROCESS_COUNTS = (4096, 16384, 65536)
EXTENDED_RANKS_PER_NODE = 8
EXTENDED_RANKS_PER_AGGREGATOR = 256


def _sweep(machine_name: str) -> ResultTable:
    return run_read_sweep(
        machines=[machine_name],
        array_labels=["32MB"],
        process_counts=PROCESS_COUNTS,
        row_scale=64,
    )


@pytest.mark.parametrize("machine_name", ["Cplant", "Origin 2000", "IBM SP"])
def test_read_sweep(benchmark, machine_name):
    table = benchmark.pedantic(_sweep, args=(machine_name,), rounds=1, iterations=1)
    assert all(r.atomic_ok for r in table)
    report(
        f"Collective read sweep ({machine_name}, 32MB column-wise)",
        table.to_text(),
    )
    # Two-phase beats the naive per-rank baseline at every process count.
    for nprocs in PROCESS_COUNTS:
        naive = table.filter(strategy="none", nprocs=nprocs).records[0]
        two_phase = table.filter(strategy="two-phase", nprocs=nprocs).records[0]
        assert two_phase.makespan_seconds < naive.makespan_seconds


def test_read_extended_sweep(benchmark):
    """Hierarchical two-phase reads at P in {4096, 16384, 65536}.

    Same contract as the extended write sweep: delivered-stream correctness
    is verified at the smallest point (the bit-identity of the bulk read
    replay to the engine path is pinned by ``tests/test_core_bulk.py``).
    """

    def run_point(nprocs):
        return run_read_experiment(
            "IBM SP",
            EXTENDED_M,
            2 * nprocs,
            nprocs,
            "two-phase-hier",
            overlap_columns=EXTENDED_R,
            array_label=f"extended-{nprocs}",
            verify=nprocs <= 4096,
            executor="bulk",
            strategy_options={
                "num_aggregators": max(1, nprocs // EXTENDED_RANKS_PER_AGGREGATOR),
                "ranks_per_node": EXTENDED_RANKS_PER_NODE,
            },
        )

    measured, entries = benchmark.pedantic(
        sweep_records,
        args=("read-extended-sweep", EXTENDED_PROCESS_COUNTS, run_point),
        rounds=1,
        iterations=1,
    )

    assert all(rec.atomic_ok for rec in measured)
    # Weak scaling: the checkpoint grows with P on a fixed server pool, so
    # the virtual makespan grows about linearly — but the virtual time per
    # rank must stay flat, else the read schedule's coordination overhead
    # scales with P.
    makespans = [rec.makespan_seconds for rec in measured]
    assert makespans == sorted(makespans)
    per_rank = [m / p for m, p in zip(makespans, EXTENDED_PROCESS_COUNTS)]
    assert per_rank[-1] < per_rank[0] * 1.5

    rows = [
        {
            "P": str(rec.nprocs),
            "virtual makespan (s)": f"{rec.makespan_seconds:.4f}",
            "BW (MB/s)": f"{rec.bandwidth_mb_per_s:.1f}",
            "verified": ("yes" if rec.atomic_ok else "NO") if rec.nprocs <= 4096 else "not verified",
            "wall clock (s)": f"{entry['wall_seconds']:.2f}",
        }
        for rec, entry in zip(measured, entries["read-extended-sweep"])
    ]
    report(
        f"Extended read sweep ({EXTENDED_M}x2P, R={EXTENDED_R}, GPFS, "
        f"two-phase-hier via bulk read executor, P in {list(EXTENDED_PROCESS_COUNTS)})",
        format_table(rows),
    )


def test_adaptive_read_grid(benchmark):
    """The adaptive read grid: ``auto`` vs every read-capable static.

    The same gate the perfgate CLI enforces — auto within 10% of the best
    static at every (machine, pattern, P) point and strictly ahead at least
    once — asserted here so the benchmark run records the figures.
    """
    table = benchmark.pedantic(run_adaptive_read_sweep, rounds=1, iterations=1)
    groups = {}
    for rec in table:
        name = f"{ADAPTIVE_READ_PREFIX}{rec.file_system.lower()}-{rec.pattern}"
        groups.setdefault(name, []).append(rec)
    measured = {
        name: entries_from_records(records) for name, records in groups.items()
    }
    problems = check_adaptive(measured, prefix=ADAPTIVE_READ_PREFIX)
    assert not problems, "adaptive read gate failed:\n" + "\n".join(problems)
    report(
        f"Adaptive read grid ({len(ADAPTIVE_READ_GRID)} points, auto vs statics)",
        table.to_text(),
    )
    report_json("adaptive-read-grid", table.records)

