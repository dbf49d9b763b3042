"""Section 3.4 — scalability analysis: the closed-form model's predictions
(locked bytes, transferred volume, parallelism) versus the measured
virtual-time behaviour, plus a large-scale rank sweep.

The event-driven SPMD kernel makes ranks cheap (one cooperative task each,
no OS thread contention), so the sweep measures every registered strategy
at P in {64, 256, 1024} — the regime the paper's Section 3.4 analysis
extrapolates to.  The sweeps go through :func:`repro.bench.sweep.sweep_records`,
which stamps each point's host wall clock next to the virtual-time bandwidth
as *information*: it is shown in ``benchmarks/results/latest.txt`` and never
asserted on (host time is judged by ``benchmarks/suite``).
"""

from __future__ import annotations

from repro.bench.harness import run_column_wise_experiment
from repro.bench.results import format_table
from repro.bench.sweep import sweep_records
from repro.core.analysis import ColumnWiseCase, analyze_regions, estimate_column_wise
from repro.core.registry import default_registry
from repro.core.regions import build_region_sets
from repro.patterns.partition import column_wise_views

from conftest import report

M, N, P, R = 64, 32768, 8, 4

#: Large-scale sweep shape: fewer rows (segments per rank) but wide rows, so
#: thousand-rank points stay in seconds of wall clock.
SWEEP_M, SWEEP_N, SWEEP_R = 16, 16384, 4
SWEEP_PROCESS_COUNTS = (64, 256, 1024)


def test_section34_analysis_vs_measurement(benchmark):
    case = ColumnWiseCase(M=M, N=N, P=P, R=R)
    estimates = estimate_column_wise(case)
    regions = build_region_sets(column_wise_views(M, N, P, R))
    measured_views = analyze_regions(regions)

    def measure_all():
        return {
            s: run_column_wise_experiment("IBM SP", M, N, P, s, array_label="sec3.4")
            for s in ("locking", "graph-coloring", "rank-ordering")
        }

    measured = benchmark.pedantic(measure_all, rounds=1, iterations=1)

    # The analysis and the exact view computation agree on the volumes.
    assert measured_views["overlapped_bytes"] == case.overlapped_bytes
    assert measured_views["rank_ordering_bytes"] == case.file_bytes
    # Locking locks nearly the whole file per process.
    assert case.locked_bytes_per_process > 0.95 * case.file_bytes
    # The model's ordering is reproduced by the measurement.
    assert (
        measured["locking"].bandwidth_mb_per_s
        < measured["graph-coloring"].bandwidth_mb_per_s
    )
    assert (
        measured["locking"].bandwidth_mb_per_s
        < measured["rank-ordering"].bandwidth_mb_per_s
    )

    rows = []
    for name in ("locking", "graph-coloring", "rank-ordering"):
        est = estimates[name]
        rec = measured[name]
        rows.append(
            {
                "strategy": name,
                "predicted bytes moved": str(est.bytes_transferred),
                "measured bytes moved": str(rec.bytes_written),
                "predicted parallel steps": str(est.parallel_steps),
                "measured phases": str(rec.phases),
                "locked bytes/process": str(est.locked_bytes),
                "measured BW (MB/s)": f"{rec.bandwidth_mb_per_s:.1f}",
            }
        )
    report(
        f"Section 3.4: analysis vs measurement ({M}x{N}, P={P}, R={R}, GPFS)",
        format_table(rows),
    )


def test_section34_rank_sweep(benchmark):
    """Sweep every registered strategy at {64, 256, 1024} ranks.

    Verifies atomicity at every point (for atomicity-providing strategies)
    and checks the virtual-time ordering the paper's analysis predicts at
    scale (locking degrades fastest on the column-wise pattern).
    """
    points = [
        (nprocs, name)
        for nprocs in SWEEP_PROCESS_COUNTS
        for name in sorted(default_registry.names())
    ]

    def run_point(point):
        nprocs, name = point
        return run_column_wise_experiment(
            "IBM SP",
            SWEEP_M,
            SWEEP_N,
            nprocs,
            name,
            overlap_columns=SWEEP_R,
            array_label=f"sweep-{nprocs}",
            verify=True,
        )

    records, entries = benchmark.pedantic(
        sweep_records,
        args=("section34-rank-sweep", points, run_point),
        rounds=1,
        iterations=1,
    )
    measured = {(rec.strategy, rec.nprocs): rec for rec in records}
    rows = [
        {
            "P": str(rec.nprocs),
            "strategy": rec.strategy,
            "virtual makespan (s)": f"{rec.makespan_seconds:.4f}",
            "BW (MB/s)": f"{rec.bandwidth_mb_per_s:.1f}",
            "atomic": "yes" if rec.atomic_ok else "NO",
            "lock waits": str(rec.lock_waits),
            "wall clock (s)": f"{entry['wall_seconds']:.2f}",
        }
        for rec, entry in zip(records, entries["section34-rank-sweep"])
    ]

    for (name, nprocs), rec in measured.items():
        if default_registry.get(name).provides_atomicity:
            assert rec.atomic_ok, f"{name} violated atomicity at P={nprocs}"

    # The paper's Section 3.4 prediction, now measurable at scale: whole-extent
    # locking serialises the column-wise pattern, so its bandwidth falls ever
    # further behind the handshaking strategies as P grows.
    for nprocs in SWEEP_PROCESS_COUNTS:
        locking = measured[("locking", nprocs)]
        for name in ("rank-ordering", "two-phase", "graph-coloring"):
            assert (
                locking.bandwidth_mb_per_s < measured[(name, nprocs)].bandwidth_mb_per_s
            ), f"locking should trail {name} at P={nprocs}"

    report(
        f"Section 3.4: rank sweep ({SWEEP_M}x{SWEEP_N}, R={SWEEP_R}, GPFS, "
        f"P in {list(SWEEP_PROCESS_COUNTS)})",
        format_table(rows),
    )


#: Extended sweep shape (the roadmap's order-of-magnitude push): two rows of
#: 2P-wide columns with ghost width 2, run through the bulk-synchronous
#: replay executor — no engine tasks, so 64k ranks fit in seconds.
EXTENDED_M, EXTENDED_R = 2, 2
EXTENDED_PROCESS_COUNTS = (4096, 16384, 65536)
#: One global aggregator node per 256 ranks, 8 ranks per node (the
#: ``cb_nodes`` / ``cb_ppn`` hints of the hierarchical strategy).
EXTENDED_RANKS_PER_NODE = 8
EXTENDED_RANKS_PER_AGGREGATOR = 256


def test_section34_extended_sweep(benchmark):
    """Hierarchical two-phase at P in {4096, 16384, 65536}.

    Atomicity is verified at the smallest point (the verifier is itself
    O(overlap pairs); the byte-identity of the bulk replay to the engine path
    is pinned by ``tests/test_core_bulk.py``).
    """

    def run_point(nprocs):
        return run_column_wise_experiment(
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
        args=("section34-extended-sweep", EXTENDED_PROCESS_COUNTS, run_point),
        rounds=1,
        iterations=1,
    )

    assert all(rec.atomic_ok for rec in measured)
    # Weak scaling (the file grows with P on a fixed server pool), so the
    # virtual makespan grows about linearly with the job; what must NOT grow
    # is the virtual time per rank — a super-linear drift there would mean
    # the hierarchical schedule's coordination overhead scales with P.
    makespans = [rec.makespan_seconds for rec in measured]
    assert makespans == sorted(makespans)
    per_rank = [m / p for m, p in zip(makespans, EXTENDED_PROCESS_COUNTS)]
    assert per_rank[-1] < per_rank[0] * 1.5

    rows = [
        {
            "P": str(rec.nprocs),
            "virtual makespan (s)": f"{rec.makespan_seconds:.4f}",
            "BW (MB/s)": f"{rec.bandwidth_mb_per_s:.1f}",
            "atomic": ("yes" if rec.atomic_ok else "NO") if rec.nprocs <= 4096 else "not verified",
            "wall clock (s)": f"{entry['wall_seconds']:.2f}",
        }
        for rec, entry in zip(measured, entries["section34-extended-sweep"])
    ]
    report(
        f"Section 3.4: extended sweep ({EXTENDED_M}x2P, R={EXTENDED_R}, GPFS, "
        f"two-phase-hier via bulk executor, P in {list(EXTENDED_PROCESS_COUNTS)})",
        format_table(rows),
    )
