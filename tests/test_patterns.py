"""Tests for partitioning patterns, ghost decompositions and workloads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet, merge_interval_sets
from repro.core.overlap import build_overlap_matrix, overlapped_bytes_total
from repro.core.regions import build_region_sets
from repro.patterns.ghost import GhostDecomposition
from repro.patterns.partition import (
    block_block_spec,
    block_block_views,
    column_wise_spec,
    column_wise_views,
    row_wise_spec,
    row_wise_views,
)
from repro.patterns.workloads import (
    PAPER_ARRAY_SIZES,
    PAPER_PROCESS_COUNTS,
    ColumnWiseWorkload,
    rank_fill_bytes,
    rank_pattern_bytes,
)


class TestColumnWise:
    def test_interior_rank_width(self):
        spec = column_wise_spec(M=8, N=64, P=4, rank=1, R=4)
        assert spec.subsizes == (8, 64 // 4 + 4)
        assert spec.sizes == (8, 64)

    def test_edge_ranks_narrower(self):
        first = column_wise_spec(M=8, N=64, P=4, rank=0, R=4)
        last = column_wise_spec(M=8, N=64, P=4, rank=3, R=4)
        assert first.subsizes[1] == 64 // 4 + 2
        assert last.subsizes[1] == 64 // 4 + 2

    def test_neighbours_overlap_by_R(self):
        M, N, P, R = 8, 64, 4, 4
        regions = build_region_sets(column_wise_views(M, N, P, R))
        for i in range(P - 1):
            assert regions[i].overlap_bytes(regions[i + 1]) == R * M

    def test_non_neighbours_disjoint(self):
        regions = build_region_sets(column_wise_views(8, 64, 4, 4))
        assert not regions[0].overlaps(regions[2])
        assert not regions[0].overlaps(regions[3])

    def test_segments_per_rank_equals_rows(self):
        views = column_wise_views(M=16, N=64, P=4, R=4)
        assert all(len(v) == 16 for v in views)

    def test_no_overlap_when_R_zero(self):
        regions = build_region_sets(column_wise_views(8, 64, 4, 0))
        assert overlapped_bytes_total(regions) == 0
        assert merge_interval_sets([r.coverage for r in regions]) == IntervalSet.single(0, 8 * 64)

    def test_single_process_owns_everything(self):
        views = column_wise_views(8, 64, 1, 4)
        assert views[0] == [(0, 8 * 64)]

    def test_itemsize_scaling(self):
        spec = column_wise_spec(M=4, N=16, P=4, rank=1, R=0, itemsize=8)
        assert spec.total_bytes == 4 * 4 * 8
        segs = spec.segments()
        assert segs[0][1] == 4 * 8

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            column_wise_spec(8, 64, 4, rank=5, R=0)
        with pytest.raises(ValueError):
            column_wise_spec(8, 64, 4, rank=0, R=-1)
        with pytest.raises(ValueError):
            column_wise_spec(8, 64, 16, rank=0, R=8)  # R > N/P


class TestRowWise:
    def test_views_are_contiguous(self):
        regions = build_region_sets(row_wise_views(M=64, N=32, P=4, R=4))
        assert all(r.is_contiguous() for r in regions)

    def test_neighbours_overlap_by_R_rows(self):
        M, N, P, R = 64, 32, 4, 4
        regions = build_region_sets(row_wise_views(M, N, P, R))
        for i in range(P - 1):
            assert regions[i].overlap_bytes(regions[i + 1]) == R * N

    def test_interior_rank_height(self):
        spec = row_wise_spec(M=64, N=32, P=4, rank=2, R=4)
        assert spec.subsizes == (64 // 4 + 4, 32)

    def test_coverage_is_whole_file(self):
        regions = build_region_sets(row_wise_views(64, 32, 4, 4))
        union = merge_interval_sets([r.coverage for r in regions])
        assert union == IntervalSet.single(0, 64 * 32)


class TestBlockBlock:
    def test_grid_positions(self):
        spec = block_block_spec(M=32, N=32, Pr=2, Pc=2, rank=3, R=0)
        assert spec.starts == (16, 16)
        assert spec.subsizes == (16, 16)

    def test_ghost_overlap_with_eight_neighbours(self):
        views = block_block_views(M=30, N=30, Pr=3, Pc=3, R=2)
        regions = build_region_sets(views)
        w = build_overlap_matrix(regions)
        # The centre rank (4) overlaps all 8 neighbours.
        assert w.degree(4) == 8
        # A corner rank overlaps its 3 neighbours.
        assert w.degree(0) == 3

    def test_coverage_is_whole_array(self):
        views = block_block_views(M=30, N=30, Pr=3, Pc=3, R=2)
        regions = build_region_sets(views)
        union = merge_interval_sets([r.coverage for r in regions])
        assert union == IntervalSet.single(0, 30 * 30)

    def test_corner_bytes_shared_by_four(self):
        from repro.bench.figures import figure1_ghost_overlap_counts

        hist = figure1_ghost_overlap_counts(M=30, N=30, Pr=3, Pc=3, R=2)
        assert 4 in hist          # corner ghost regions
        assert 2 in hist          # edge ghost regions
        assert hist[1] > hist[2] > hist[4]

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            block_block_spec(16, 16, 2, 2, rank=4, R=0)
        with pytest.raises(ValueError):
            block_block_spec(16, 16, 0, 2, rank=0, R=0)


class TestGhostDecomposition:
    def test_neighbours_interior(self):
        d = GhostDecomposition(M=30, N=30, Pr=3, Pc=3, rank=4, ghost_width=2)
        nbrs = d.neighbors()
        assert len(nbrs) == 8
        assert nbrs["north"] == 1 and nbrs["southeast"] == 8

    def test_neighbours_corner(self):
        d = GhostDecomposition(M=30, N=30, Pr=3, Pc=3, rank=0, ghost_width=2)
        assert set(d.neighbors()) == {"east", "south", "southeast"}

    def test_local_shape_matches_spec(self):
        d = GhostDecomposition(M=30, N=30, Pr=3, Pc=3, rank=4, ghost_width=2)
        assert d.local_shape() == d.ghosted_spec().subsizes
        arr = d.make_local_array()
        assert arr.shape == d.local_shape()
        assert (arr == 4).all()

    def test_owned_smaller_than_ghosted(self):
        d = GhostDecomposition(M=30, N=30, Pr=3, Pc=3, rank=4, ghost_width=2)
        owned = d.owned_spec()
        ghosted = d.ghosted_spec()
        assert owned.total_bytes < ghosted.total_bytes

    def test_overlapping_ranks_match_overlap_matrix(self):
        views = block_block_views(M=30, N=30, Pr=3, Pc=3, R=2)
        w = build_overlap_matrix(build_region_sets(views))
        for rank in range(9):
            d = GhostDecomposition(M=30, N=30, Pr=3, Pc=3, rank=rank, ghost_width=2)
            assert sorted(d.overlapping_ranks()) == w.neighbors(rank)

    def test_grid_coords(self):
        d = GhostDecomposition(M=8, N=8, Pr=2, Pc=4, rank=5, ghost_width=0)
        assert d.grid_coords == (1, 1)
        assert d.nprocs == 8


class TestWorkloads:
    def test_paper_sizes(self):
        assert PAPER_ARRAY_SIZES["32MB"] == (4096, 8192)
        assert PAPER_ARRAY_SIZES["128MB"] == (4096, 32768)
        assert PAPER_ARRAY_SIZES["1GB"] == (4096, 262144)
        assert PAPER_PROCESS_COUNTS == (4, 8, 16)
        for label, (m, n) in PAPER_ARRAY_SIZES.items():
            mb = m * n / (1024 * 1024)
            assert label.rstrip("MBG").isdigit()
        assert 4096 * 262144 == 1024 ** 3

    def test_workload_from_label(self):
        w = ColumnWiseWorkload.from_label("128MB", P=8, row_scale=32)
        assert w.effective_M == 4096 // 32
        assert w.file_bytes == w.effective_M * 32768
        assert w.nominal_bytes == 4096 * 32768

    def test_invalid_row_scale(self):
        with pytest.raises(ValueError):
            ColumnWiseWorkload("x", M=4096, N=8192, P=4, row_scale=0)
        with pytest.raises(ValueError):
            ColumnWiseWorkload("x", M=10, N=8192, P=4, row_scale=3)

    def test_rank_fill_bytes(self):
        assert rank_fill_bytes(0, 3) == b"AAA"
        assert rank_fill_bytes(1, 2) == b"BB"

    def test_rank_pattern_bytes_distinct_across_ranks(self):
        a = rank_pattern_bytes(0, 100)
        b = rank_pattern_bytes(1, 100)
        assert len(a) == len(b) == 100
        assert a != b

    def test_rank_pattern_bytes_is_its_formula(self):
        """The tiled period equals ``(rank * 41 + i) mod 251`` byte for byte,
        for every length up to and beyond two periods."""
        for rank in range(301):
            formula = bytes((rank * 41 + i) % 251 for i in range(600))
            for nbytes in range(601):
                assert rank_pattern_bytes(rank, nbytes) == formula[:nbytes], (rank, nbytes)


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @given(st.integers(1, 16), st.integers(1, 8), st.integers(0, 3))
    def test_column_wise_always_covers_file(self, m, p, r_half):
        n = p * 8
        R = 2 * r_half
        regions = build_region_sets(column_wise_views(m, n, p, R))
        union = merge_interval_sets([reg.coverage for reg in regions])
        assert union == IntervalSet.single(0, m * n)

    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2))
    def test_column_wise_only_neighbours_overlap(self, m, p, r_half):
        n = p * 10
        R = 2 * r_half
        regions = build_region_sets(column_wise_views(m, n, p, R))
        w = build_overlap_matrix(regions)
        for i in range(p):
            for j in range(p):
                if abs(i - j) > 1:
                    assert not w.matrix[i, j]

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2))
    def test_block_block_covers_file(self, pr, pc, r_half):
        M = pr * 8
        N = pc * 8
        R = 2 * r_half
        regions = build_region_sets(block_block_views(M, N, pr, pc, R))
        union = merge_interval_sets([reg.coverage for reg in regions])
        assert union == IntervalSet.single(0, M * N)


def outcome(call):
    """The call's result, or the text of the ``ValueError`` it raised."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def shapes(draw):
    """``(M, N, P, R, itemsize)``, sometimes invalid: R = N/P or M/P (the
    widest legal ghost), P = 1 (full-width rows), itemsize > 1."""
    M, N, P = draw(st.integers(-1, 9)), draw(st.integers(-1, 24)), draw(st.integers(1, 9))
    R = draw(st.one_of(st.integers(-1, 4), st.sampled_from([max(N, 0) // P, max(M, 0) // P])))
    return M, N, P, R, draw(st.integers(0, 3))


class TestViewsAreTheirSpecs:
    """``*_views`` lays every rank out in one pass; each rank's list is what
    its ``*_spec`` flattens to, and bad arguments raise the same text."""

    @given(shapes())
    def test_column_wise(self, shape):
        M, N, P, R, item = shape
        assert outcome(lambda: column_wise_views(M, N, P, R, item)) == outcome(
            lambda: [column_wise_spec(M, N, P, rank, R, item).segments() for rank in range(P)]
        )

    @given(shapes())
    def test_row_wise(self, shape):
        M, N, P, R, item = shape
        assert outcome(lambda: row_wise_views(M, N, P, R, item)) == outcome(
            lambda: [row_wise_spec(M, N, P, rank, R, item).segments() for rank in range(P)]
        )

    @given(shapes(), st.integers(1, 4))
    def test_block_block(self, shape, Pr):
        M, N, Pc, R, item = shape
        assert outcome(lambda: block_block_views(M, N, Pr, Pc, R, item)) == outcome(
            lambda: [
                block_block_spec(M, N, Pr, Pc, rank, R, item).segments()
                for rank in range(Pr * Pc)
            ]
        )

    @given(
        st.integers(1, 5), st.integers(1, 8), st.integers(1, 40), st.integers(0, 9), st.integers(1, 3)
    )
    def test_column_wise_cells(self, M, P, N, R, item):
        """Each rank's columns are its ``np.array_split`` block widened by
        ``R // 2`` on the left and ``R - R // 2`` on the right, at interior
        sides only."""
        assume(N // P >= R)
        views = column_wise_views(M, N, P, R, item)
        for rank, owned in enumerate(np.array_split(np.arange(N), P)):
            expected = []
            if len(owned):
                lo = max(int(owned[0]) - (R // 2 if rank > 0 else 0), 0)
                hi = min(int(owned[-1]) + 1 + (R - R // 2 if rank < P - 1 else 0), N)
                expected = [col for _ in range(M) for col in range(lo, hi)]
            cells = [
                (pos // item) % N
                for off, length in views[rank]
                for pos in range(off, off + length, item)
            ]
            assert sorted(cells) == sorted(expected)

    def test_no_ranks_is_an_error(self):
        for views in (column_wise_views, row_wise_views):
            with pytest.raises(ValueError, match="must be positive"):
                views(4, 4, 0)
        with pytest.raises(ValueError, match="must be positive"):
            block_block_views(4, 4, 0, 2)
