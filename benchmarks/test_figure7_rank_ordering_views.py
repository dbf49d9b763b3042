"""Figure 7 — process file views after rank-ordering trims: overlaps removed,
lower ranks surrender their right-hand ghost columns."""

from __future__ import annotations

from repro.bench.figures import figure7_rank_ordering_views
from repro.bench.results import format_table
from repro.core.intervals import merge_interval_sets
from repro.core.overlap import overlapped_bytes_total
from repro.core.rank_ordering import resolve_by_rank
from repro.core.regions import build_region_sets
from repro.patterns.partition import column_wise_views

from conftest import report


def test_figure7_rank_ordering_file_views(benchmark):
    M, N, P, R = 64, 4096, 8, 4
    rows = benchmark(figure7_rank_ordering_views, M, N, P, R)
    regions = build_region_sets(column_wise_views(M, N, P, R))
    resolution = resolve_by_rank(regions)
    # Trimmed views are disjoint and still cover every byte of the file.
    assert overlapped_bytes_total(resolution.trimmed) == 0
    assert merge_interval_sets([v.coverage for v in resolution.trimmed]) == merge_interval_sets(
        [r.coverage for r in regions]
    )
    # The highest rank keeps its full view; every other rank surrenders R
    # columns (M*R bytes); the total written equals the file size exactly.
    assert rows[-1]["bytes surrendered"] == "0"
    for row in rows[:-1]:
        assert int(row["bytes surrendered"]) == M * R
    assert resolution.total_remaining == M * N
    report(
        f"Figure 7: rank-ordering trimmed views ({M}x{N}, P={P}, R={R})",
        format_table(rows),
    )
