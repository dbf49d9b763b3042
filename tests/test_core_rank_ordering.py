"""Tests for the process-rank ordering resolution (Figure 7)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from repro.core.intervals import IntervalSet, merge_interval_sets
from repro.core.overlap import overlapped_bytes_total
from repro.core.rank_ordering import (
    HIGHER_RANK_WINS,
    LOWER_RANK_WINS,
    resolve_by_rank,
    surrendered_bytes_by_priority,
)
from repro.core.regions import FileRegionSet, build_region_sets
from repro.patterns.partition import column_wise_views


def verify_disjoint(result):
    """No byte is in two trimmed views."""
    return overlapped_bytes_total(result.trimmed) == 0


def verify_coverage_preserved(regions, result):
    """The trimmed views still cover every byte some view covered."""
    before = merge_interval_sets([r.coverage for r in regions])
    return merge_interval_sets([v.coverage for v in result.trimmed]) == before


class TestResolveByRank:
    def test_two_ranks_higher_wins(self):
        regions = build_region_sets([[(0, 10)], [(5, 10)]])
        result = resolve_by_rank(regions)
        # rank 1 keeps everything, rank 0 surrenders the overlap [5,10)
        assert result.view_of(1).segments == ((5, 10),)
        assert result.view_of(0).segments == ((0, 5),)
        assert result.surrendered_bytes == (5, 0)

    def test_lower_rank_wins_policy(self):
        regions = build_region_sets([[(0, 10)], [(5, 10)]])
        result = resolve_by_rank(regions, policy=LOWER_RANK_WINS)
        assert result.view_of(0).segments == ((0, 10),)
        assert result.view_of(1).segments == ((10, 5),)
        assert result.surrendered_bytes == (0, 5)

    def test_three_way_overlap(self):
        regions = build_region_sets([[(0, 30)], [(10, 30)], [(20, 30)]])
        result = resolve_by_rank(regions)
        assert result.view_of(2).coverage == IntervalSet([(20, 50)])
        assert result.view_of(1).coverage == IntervalSet([(10, 20)])
        assert result.view_of(0).coverage == IntervalSet([(0, 10)])
        assert verify_disjoint(result)
        assert verify_coverage_preserved(regions, result)

    def test_no_overlap_is_identity(self):
        regions = build_region_sets([[(0, 10)], [(10, 10)], [(20, 10)]])
        result = resolve_by_rank(regions)
        assert result.total_surrendered == 0
        for rank in range(3):
            assert result.view_of(rank).segments == regions[rank].segments

    def test_identical_views_only_highest_writes(self):
        regions = build_region_sets([[(0, 100)], [(0, 100)], [(0, 100)]])
        result = resolve_by_rank(regions)
        assert result.view_of(2).total_bytes == 100
        assert result.view_of(1).is_empty()
        assert result.view_of(0).is_empty()

    def test_wrong_rank_order_rejected(self):
        regions = build_region_sets([[(0, 10)], [(5, 10)]])
        with pytest.raises(ValueError):
            resolve_by_rank(list(reversed(regions)))

    def test_total_accounting(self):
        regions = build_region_sets([[(0, 10)], [(5, 10)]])
        result = resolve_by_rank(regions)
        assert result.total_remaining + result.total_surrendered == sum(
            r.total_bytes for r in regions
        )


class TestPaperColumnWiseCase:
    def test_figure7_shapes(self):
        """Figure 7: after trimming, interior ranks own N/P columns, the
        highest rank keeps its full ghosted width and rank 0 loses R/2."""
        M, N, P, R = 8, 64, 4, 4
        regions = build_region_sets(column_wise_views(M, N, P, R))
        result = resolve_by_rank(regions)
        cols = [result.view_of(r).total_bytes // M for r in range(P)]
        # highest rank keeps its whole view: N/P + R/2 columns (edge rank)
        assert cols[P - 1] == N // P + R // 2
        # interior ranks keep N/P columns each (surrender the right overlap)
        assert cols[1] == N // P
        assert cols[2] == N // P
        # rank 0 surrenders its only (right-side) ghost zone of R columns,
        # keeping N/P - R/2 columns
        assert cols[0] == N // P - R // 2
        # every column of the file is still written exactly once
        assert sum(cols) == N
        assert verify_disjoint(result)
        assert verify_coverage_preserved(regions, result)

    def test_surrendered_matches_overlap(self):
        M, N, P, R = 8, 64, 4, 4
        regions = build_region_sets(column_wise_views(M, N, P, R))
        result = resolve_by_rank(regions)
        assert result.total_surrendered == (P - 1) * R * M


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

raw_views = st.lists(
    st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), max_size=5),
    min_size=1,
    max_size=6,
)


def _regions(raw):
    views = [IntervalSet.from_segments(v).as_segments() for v in raw]
    return build_region_sets(views)


class TestRankOrderingProperties:
    @given(raw_views)
    def test_trimmed_views_disjoint(self, raw):
        regions = _regions(raw)
        assert verify_disjoint(resolve_by_rank(regions))

    @given(raw_views)
    def test_coverage_preserved(self, raw):
        regions = _regions(raw)
        assert verify_coverage_preserved(regions, resolve_by_rank(regions))

    @given(raw_views)
    def test_each_trimmed_view_subset_of_original(self, raw):
        regions = _regions(raw)
        result = resolve_by_rank(regions)
        for rank, region in enumerate(regions):
            assert region.coverage.covers(result.view_of(rank).coverage)

    @given(raw_views)
    def test_highest_priority_rank_never_trimmed(self, raw):
        regions = _regions(raw)
        result = resolve_by_rank(regions)
        top = len(regions) - 1
        assert result.view_of(top).coverage == regions[top].coverage

    @given(raw_views)
    def test_byte_conservation(self, raw):
        regions = _regions(raw)
        result = resolve_by_rank(regions)
        union_bytes = merge_interval_sets([r.coverage for r in regions]).total_bytes
        assert result.total_remaining == union_bytes

    @given(raw_views)
    def test_policies_cover_same_bytes(self, raw):
        regions = _regions(raw)
        high = resolve_by_rank(regions, policy=HIGHER_RANK_WINS)
        low = resolve_by_rank(regions, policy=LOWER_RANK_WINS)
        high_union = merge_interval_sets([v.coverage for v in high.trimmed])
        low_union = merge_interval_sets([v.coverage for v in low.trimmed])
        assert high_union == low_union


def ALL_TIES(rank):
    """A policy that ranks every process equal: the lower rank wins."""
    return 0


class TestResolutionSpec:
    """The winner sweep against the definition of rank ordering: a rank
    surrenders every byte some rank ahead of it in ``(policy, -rank)`` order
    also covers (views over one small file, up to six ranks: irregular,
    nested, identical, empty)."""

    cases = dict(
        views=generators.view_sets(24, max_ranks=6),
        policy=st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS, ALL_TIES]),
    )

    @given(**cases)
    def test_view_is_trimmed_by_every_rank_ahead(self, views, policy):
        regions = build_region_sets(views)
        result = resolve_by_rank(regions, policy=policy)
        for rank, region in enumerate(regions):
            ahead = [
                q for q in range(len(regions)) if (policy(q), -q) > (policy(rank), -rank)
            ]
            claimed = merge_interval_sets([regions[q].coverage for q in ahead])
            expected = region.trimmed(claimed)
            assert result.view_of(rank) == expected
            assert result.view_of(rank).segments == expected.segments
            assert result.kept[rank] == expected.coverage

    @given(**cases)
    def test_surrendered_is_total_minus_kept(self, views, policy):
        regions = build_region_sets(views)
        result = resolve_by_rank(regions, policy=policy)
        expected = [r.total_bytes - kept.total_bytes for r, kept in zip(regions, result.kept)]
        assert list(result.surrendered_bytes) == expected
        assert surrendered_bytes_by_priority(regions, policy=policy) == expected
