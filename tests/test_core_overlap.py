"""Tests for overlap-matrix construction and pairwise overlap analysis."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from repro.core.intervals import IntervalSet
from reference_verify import _elementary_segments
from repro.core.overlap import (
    coverage_runs,
    OverlapMatrix,
    build_overlap_matrix,
    overlapped_bytes_total,
    pairwise_overlap_regions,
)
from repro.core.regions import build_region_sets
from repro.patterns.partition import column_wise_views


def regions_from(views):
    return build_region_sets(views)


class TestOverlapMatrixValidation:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            OverlapMatrix(np.zeros((2, 3), dtype=bool))

    def test_requires_bool(self):
        with pytest.raises(ValueError):
            OverlapMatrix(np.zeros((2, 2), dtype=int))

    def test_requires_false_diagonal(self):
        m = np.zeros((2, 2), dtype=bool)
        m[0, 0] = True
        with pytest.raises(ValueError):
            OverlapMatrix(m)

    def test_requires_symmetry(self):
        m = np.zeros((2, 2), dtype=bool)
        m[0, 1] = True
        with pytest.raises(ValueError):
            OverlapMatrix(m)


class TestBuildOverlapMatrix:
    def test_chain_overlap(self):
        # rank i overlaps rank i+1 only (column-wise neighbours).
        views = [[(0, 10)], [(8, 10)], [(16, 10)]]
        w = build_overlap_matrix(regions_from(views))
        assert w.neighbors(0) == [1]
        assert w.neighbors(1) == [0, 2]
        assert w.neighbors(2) == [1]
        assert w.edges() == [(0, 1), (1, 2)]

    def test_no_overlap(self):
        views = [[(0, 10)], [(10, 10)], [(20, 10)]]
        w = build_overlap_matrix(regions_from(views))
        assert not w.has_any_overlap()
        assert w.max_degree() == 0

    def test_all_overlap(self):
        views = [[(0, 100)], [(0, 100)], [(0, 100)]]
        w = build_overlap_matrix(regions_from(views))
        assert w.max_degree() == 2
        assert len(w.edges()) == 3

    def test_wrong_rank_order_rejected(self):
        regions = regions_from([[(0, 10)], [(20, 10)]])
        with pytest.raises(ValueError):
            build_overlap_matrix(list(reversed(regions)))

    def test_column_wise_neighbours_only(self):
        views = column_wise_views(M=8, N=64, P=4, R=4)
        w = build_overlap_matrix(regions_from(views))
        for i in range(4):
            expected = sorted(j for j in (i - 1, i + 1) if 0 <= j < 4)
            assert w.neighbors(i) == expected

    def test_as_int_matrix(self):
        views = [[(0, 10)], [(5, 10)]]
        w = build_overlap_matrix(regions_from(views))
        assert w.as_int_matrix().tolist() == [[0, 1], [1, 0]]


class TestPairwiseOverlapRegions:
    def test_exact_ranges(self):
        views = [[(0, 10)], [(6, 10)]]
        overlaps = pairwise_overlap_regions(regions_from(views))
        assert overlaps == {(0, 1): IntervalSet([(6, 10)])}

    def test_non_contiguous_overlap(self):
        views = [[(0, 4), (10, 4)], [(2, 10)]]
        overlaps = pairwise_overlap_regions(regions_from(views))
        assert overlaps[(0, 1)] == IntervalSet([(2, 4), (10, 12)])

    def test_empty_when_disjoint(self):
        views = [[(0, 4)], [(4, 4)]]
        assert pairwise_overlap_regions(regions_from(views)) == {}


class TestOverlappedBytes:
    def test_simple(self):
        views = [[(0, 10)], [(5, 10)]]
        assert overlapped_bytes_total(regions_from(views)) == 5

    def test_triple_overlap_counted_once(self):
        views = [[(0, 10)], [(0, 10)], [(0, 10)]]
        assert overlapped_bytes_total(regions_from(views)) == 10

    def test_column_wise_formula(self):
        M, N, P, R = 8, 64, 4, 4
        views = column_wise_views(M, N, P, R)
        # (P-1) overlap zones of R columns, each column appearing in M rows.
        assert overlapped_bytes_total(regions_from(views)) == (P - 1) * R * M


class TestGroupValidation:
    """A colour class is conflict-free when its members' views share no byte."""

    @staticmethod
    def conflict_free(regions, groups):
        return all(overlapped_bytes_total([regions[r] for r in group]) == 0 for group in groups)

    def test_disjoint_groups_accepted(self):
        views = [[(0, 10)], [(8, 10)], [(16, 10)]]
        regions = regions_from(views)
        assert self.conflict_free(regions, [[0, 2], [1]])

    def test_conflicting_group_rejected(self):
        views = [[(0, 10)], [(8, 10)], [(16, 10)]]
        regions = regions_from(views)
        assert not self.conflict_free(regions, [[0, 1], [2]])


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

view_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 200), st.integers(1, 30)), max_size=4),
    min_size=1,
    max_size=6,
)


def _dedup_self_overlap(view):
    """Make a raw segment list valid (no self-overlap) by unioning."""
    return IntervalSet.from_segments(view).as_segments()


class TestOverlapProperties:
    @given(view_lists)
    def test_matrix_symmetric_and_consistent(self, raw_views):
        views = [_dedup_self_overlap(v) for v in raw_views]
        regions = regions_from(views)
        w = build_overlap_matrix(regions)
        m = w.matrix
        assert np.array_equal(m, m.T)
        for i in range(len(regions)):
            for j in range(len(regions)):
                if i != j:
                    assert m[i, j] == regions[i].overlaps(regions[j])

    @given(view_lists)
    def test_pairwise_regions_match_matrix(self, raw_views):
        views = [_dedup_self_overlap(v) for v in raw_views]
        regions = regions_from(views)
        w = build_overlap_matrix(regions)
        overlaps = pairwise_overlap_regions(regions)
        assert set(overlaps) == set(w.edges())


class TestKernelSpec:
    """Every product read off the coverage runs against its definition on
    the views themselves (views over one small file, up to six ranks:
    irregular, nested, identical, empty)."""

    views = generators.view_sets(24, max_ranks=6)

    @given(views)
    def test_matrix_is_pairwise_overlap(self, views):
        regions = regions_from(views)
        w = build_overlap_matrix(regions).matrix
        for i, a in enumerate(regions):
            for j, b in enumerate(regions):
                assert w[i, j] == (i != j and a.overlaps(b))

    @given(views)
    def test_pairwise_regions_are_each_pairs_overlap_region(self, views):
        regions = regions_from(views)
        expected = {
            (i, j): regions[i].overlap_region(regions[j])
            for i in range(len(regions))
            for j in range(i + 1, len(regions))
            if regions[i].overlaps(regions[j])
        }
        assert pairwise_overlap_regions(regions) == expected

    @given(views)
    def test_overlapped_bytes_are_bytes_with_two_coverers(self, views):
        regions = regions_from(views)
        coverers = Counter(
            pos for region in regions for off, n in region.segments for pos in range(off, off + n)
        )
        assert overlapped_bytes_total(regions) == sum(c >= 2 for c in coverers.values())


class TestCoverageRuns:
    """The coverage-run kernel: boundaries, cover depth, covering-rank CSR."""

    @staticmethod
    def as_segments(regions):
        """The kernel's output in the oracle's form: covered runs only."""
        bounds, depth, ptr, ranks = coverage_runs(regions)
        assert len(depth) == max(len(bounds) - 1, 0) and len(ptr) == len(depth) + 1
        assert np.array_equal(np.diff(ptr), depth) and ptr[-1] == len(ranks)
        return [
            ((int(bounds[i]), int(bounds[i + 1])), tuple(ranks[ptr[i]:ptr[i + 1]].tolist()))
            for i in range(len(depth))
            if depth[i]
        ]

    def test_worked_example(self):
        regions = regions_from([[(0, 10), (20, 5)], [(5, 10)], [], [(22, 1), (0, 3)]])
        bounds, depth, ptr, ranks = coverage_runs(regions)
        assert bounds.tolist() == [0, 3, 5, 10, 15, 20, 22, 23, 25]
        assert depth.tolist() == [2, 1, 2, 1, 0, 1, 2, 1]  # [15, 20) is a gap
        assert ptr.tolist() == [0, 2, 3, 5, 6, 6, 7, 9, 10]
        assert ranks.tolist() == [0, 3, 0, 0, 1, 1, 0, 0, 3, 0]

    def test_no_coverage_at_all(self):
        for regions in ([], regions_from([[], []])):
            bounds, depth, ptr, ranks = coverage_runs(regions)
            assert (len(bounds), len(depth), ptr.tolist(), len(ranks)) == (0, 0, [0], 0)

    @given(view_lists)
    def test_matches_the_event_sweep(self, raw_views):
        regions = regions_from([_dedup_self_overlap(v) for v in raw_views])
        expected = [
            ((iv.start, iv.stop), covering) for iv, covering in _elementary_segments(regions)
        ]
        assert self.as_segments(regions) == expected
        bounds, depth, _, _ = coverage_runs(regions)
        assert int(np.diff(bounds)[depth >= 2].sum()) == overlapped_bytes_total(regions)


class TestLargeScaleEquivalence:
    """The vectorized sweep vs a naive per-pair reference at P=1024.

    The bisection-sweep overlap analysis is what makes the extended rank
    sweeps feasible; this pins it, at a scale where the sweep's bulk code
    paths (global sort, contiguous-run enumeration, grouped clipping) all
    run on thousands of intervals, against the obvious O(P^2) reference.
    """

    P = 1024

    @pytest.fixture(scope="class")
    def regions(self):
        return regions_from(column_wise_views(M=4, N=2 * self.P, P=self.P, R=2))

    def test_matrix_matches_naive_pairwise(self, regions):
        w = build_overlap_matrix(regions).matrix
        coverage = [r.coverage for r in regions]
        expected = np.zeros((self.P, self.P), dtype=np.bool_)
        for i in range(self.P):
            for j in range(i + 1, self.P):
                if coverage[i].overlaps(coverage[j]):
                    expected[i, j] = expected[j, i] = True
        assert np.array_equal(w, expected)
        # Ghost columns of width 2 on 2-wide columns: each interior rank
        # overlaps exactly its two neighbours.
        degrees = w.sum(axis=1)
        assert degrees[0] == degrees[-1] == 1
        assert (degrees[1:-1] == 2).all()

    def test_pairwise_regions_match_naive_intersections(self, regions):
        coverage = [r.coverage for r in regions]
        overlaps = pairwise_overlap_regions(regions)
        w = build_overlap_matrix(regions)
        assert set(overlaps) == set(w.edges())
        for (i, j), got in overlaps.items():
            assert got == coverage[i].intersection(coverage[j])

    def test_overlapped_bytes_match_naive_union(self, regions):
        coverage = [r.coverage for r in regions]
        claimed = IntervalSet.empty()
        seen_twice = IntervalSet.empty()
        for cov in coverage:
            seen_twice = seen_twice.union(claimed.intersection(cov))
            claimed = claimed.union(cov)
        assert overlapped_bytes_total(regions) == seen_twice.total_bytes
