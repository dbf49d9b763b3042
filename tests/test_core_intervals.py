"""Unit and property-based tests for the interval algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import (
    Interval,
    IntervalSet,
    _intersect_arrays,
    _normalise_arrays,
    _subtract_arrays,
    clip_many,
    clip_sorted_runs,
    merge_interval_sets,
    py_intersection,
    py_normalise,
    py_subtract,
    py_union,
)


# ---------------------------------------------------------------------------
# Interval basics
# ---------------------------------------------------------------------------


class TestInterval:
    def test_length(self):
        assert Interval(2, 10).length == 8

    def test_empty(self):
        assert Interval(5, 5).is_empty()
        assert not Interval(5, 6).is_empty()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1, 5)

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 5)

    def test_overlap_true(self):
        assert Interval(0, 10).overlaps(Interval(5, 15))

    def test_overlap_false_adjacent(self):
        # Half-open ranges: [0,10) and [10,20) share no byte.
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_touches_adjacent(self):
        assert Interval(0, 10).touches(Interval(10, 20))

    def test_contains_offset(self):
        iv = Interval(3, 7)
        assert iv.contains_offset(3)
        assert iv.contains_offset(6)
        assert not iv.contains_offset(7)

    def test_contains_interval(self):
        assert Interval(0, 100).contains(Interval(10, 20))
        assert not Interval(0, 100).contains(Interval(90, 120))

    def test_intersection(self):
        assert Interval(0, 10).intersection(Interval(5, 20)) == Interval(5, 10)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 5).intersection(Interval(10, 20)).is_empty()

    def test_subtract_middle_splits(self):
        pieces = Interval(0, 10).subtract(Interval(3, 6))
        assert pieces == (Interval(0, 3), Interval(6, 10))

    def test_subtract_disjoint_unchanged(self):
        assert Interval(0, 10).subtract(Interval(20, 30)) == (Interval(0, 10),)

    def test_subtract_full_cover_empty(self):
        assert Interval(3, 6).subtract(Interval(0, 10)) == ()

    def test_shift(self):
        assert Interval(2, 5).shifted(10) == Interval(12, 15)


# ---------------------------------------------------------------------------
# IntervalSet construction and normalisation
# ---------------------------------------------------------------------------


class TestIntervalSetConstruction:
    def test_empty_set(self):
        s = IntervalSet()
        assert s.is_empty()
        assert s.total_bytes == 0
        assert s.extent() is None

    def test_coalesces_adjacent(self):
        s = IntervalSet([(0, 5), (5, 10)])
        assert s.intervals == (Interval(0, 10),)

    def test_coalesces_overlapping(self):
        s = IntervalSet([(0, 6), (4, 10)])
        assert s.intervals == (Interval(0, 10),)

    def test_drops_empty(self):
        s = IntervalSet([(3, 3), (5, 8)])
        assert s.intervals == (Interval(5, 8),)

    def test_sorted_output(self):
        s = IntervalSet([(20, 30), (0, 5)])
        assert [iv.start for iv in s] == [0, 20]

    def test_from_segments(self):
        s = IntervalSet.from_segments([(0, 5), (10, 5)])
        assert s.as_segments() == [(0, 5), (10, 5)]

    def test_single(self):
        assert IntervalSet.single(3, 9).total_bytes == 6

    def test_equality_and_hash(self):
        a = IntervalSet([(0, 5), (5, 10)])
        b = IntervalSet([(0, 10)])
        assert a == b
        assert hash(a) == hash(b)


class TestIntervalSetQueries:
    def test_total_bytes(self):
        assert IntervalSet([(0, 5), (10, 20)]).total_bytes == 15

    def test_extent(self):
        assert IntervalSet([(5, 10), (50, 60)]).extent() == Interval(5, 60)

    def test_min_max_offsets(self):
        s = IntervalSet([(5, 10), (50, 60)])
        assert s.min_offset == 5
        assert s.max_offset == 60

    def test_contains_offset(self):
        s = IntervalSet([(0, 5), (10, 15)])
        assert s.contains_offset(3)
        assert not s.contains_offset(7)
        assert s.contains_offset(10)
        assert not s.contains_offset(15)

    def test_covers(self):
        outer = IntervalSet([(0, 100)])
        inner = IntervalSet([(10, 20), (40, 60)])
        assert outer.covers(inner)
        assert not inner.covers(outer)


class TestIntervalSetAlgebra:
    def test_union_disjoint(self):
        a = IntervalSet([(0, 5)])
        b = IntervalSet([(10, 15)])
        assert a.union(b).as_segments() == [(0, 5), (10, 5)]

    def test_union_merging(self):
        a = IntervalSet([(0, 8)])
        b = IntervalSet([(5, 12)])
        assert a.union(b) == IntervalSet([(0, 12)])

    def test_intersection(self):
        a = IntervalSet([(0, 10), (20, 30)])
        b = IntervalSet([(5, 25)])
        assert a.intersection(b) == IntervalSet([(5, 10), (20, 25)])

    def test_intersection_empty(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(10, 20)])
        assert a.intersection(b).is_empty()

    def test_subtract(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(3, 6)])
        assert a.subtract(b) == IntervalSet([(0, 3), (6, 10)])

    def test_subtract_multiple_holes(self):
        a = IntervalSet([(0, 20)])
        b = IntervalSet([(2, 4), (6, 8), (15, 25)])
        assert a.subtract(b) == IntervalSet([(0, 2), (4, 6), (8, 15)])

    def test_subtract_everything(self):
        a = IntervalSet([(5, 15)])
        b = IntervalSet([(0, 100)])
        assert a.subtract(b).is_empty()

    def test_overlaps(self):
        a = IntervalSet([(0, 5), (10, 15)])
        assert a.overlaps(IntervalSet([(4, 6)]))
        assert not a.overlaps(IntervalSet([(5, 10)]))

    def test_shifted(self):
        assert IntervalSet([(0, 5)]).shifted(100) == IntervalSet([(100, 105)])

    def test_clipped(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.clipped(5, 25) == IntervalSet([(5, 10), (20, 25)])

    def test_merge_many(self):
        merged = merge_interval_sets([IntervalSet([(0, 5)]), IntervalSet([(3, 9)]), IntervalSet([(20, 21)])])
        assert merged == IntervalSet([(0, 9), (20, 21)])


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

segments_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 50)), max_size=12
).map(lambda pairs: [(a, a + b) for a, b in pairs])


def _as_set(pairs):
    return IntervalSet(pairs)


@st.composite
def interval_sets(draw):
    return _as_set(draw(segments_strategy))


class TestIntervalSetProperties:
    @given(interval_sets())
    def test_normalised_disjoint_and_sorted(self, s):
        ivs = s.intervals
        for i in range(len(ivs) - 1):
            # strictly increasing with a gap (otherwise they would have merged)
            assert ivs[i].stop < ivs[i + 1].start

    @given(interval_sets(), interval_sets())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(interval_sets(), interval_sets())
    def test_intersection_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(interval_sets(), interval_sets())
    def test_union_byte_count(self, a, b):
        union = a.union(b)
        inter = a.intersection(b)
        assert union.total_bytes == a.total_bytes + b.total_bytes - inter.total_bytes

    @given(interval_sets(), interval_sets())
    def test_subtract_then_intersect_empty(self, a, b):
        assert a.subtract(b).intersection(b).is_empty()

    @given(interval_sets(), interval_sets())
    def test_subtract_partitions_a(self, a, b):
        kept = a.subtract(b)
        removed = a.intersection(b)
        assert kept.union(removed) == a
        assert kept.total_bytes + removed.total_bytes == a.total_bytes

    @given(interval_sets(), interval_sets())
    def test_overlaps_consistent_with_intersection(self, a, b):
        assert a.overlaps(b) == (not a.intersection(b).is_empty())

    @given(interval_sets())
    def test_roundtrip_segments(self, s):
        assert IntervalSet.from_segments(s.as_segments()) == s

    @given(interval_sets(), st.integers(0, 1000))
    def test_contains_offset_matches_linear_scan(self, s, offset):
        expected = any(iv.start <= offset < iv.stop for iv in s)
        assert s.contains_offset(offset) == expected


# ---------------------------------------------------------------------------
# Differential tests: vectorized kernels vs the pure-Python references
# ---------------------------------------------------------------------------
#
# The IntervalSet algebra dispatches to numpy batch kernels above _SMALL_N
# inputs and to the py_* reference loops below it.  The two implementations
# must agree bit for bit on every input, or the answer would depend on the
# size of the workload that produced it.

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 2000), st.integers(0, 40)),
    min_size=0,
    max_size=64,
).map(lambda raw: [(a, a + b) for a, b in raw])


def as_pairs(starts, stops):
    return list(zip(np.asarray(starts).tolist(), np.asarray(stops).tolist()))


def as_arrays(pairs):
    return (
        np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs)),
        np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs)),
    )


class TestVectorizedKernelsMatchReference:
    @given(pairs_strategy)
    def test_normalise(self, pairs):
        assert as_pairs(*_normalise_arrays(*as_arrays(pairs))) == py_normalise(pairs)

    @given(pairs_strategy, pairs_strategy)
    def test_intersection(self, a, b):
        na, nb = py_normalise(a), py_normalise(b)
        got = as_pairs(*_intersect_arrays(*as_arrays(na), *as_arrays(nb)))
        assert got == py_intersection(na, nb)

    @given(pairs_strategy, pairs_strategy)
    def test_subtract(self, a, b):
        na, nb = py_normalise(a), py_normalise(b)
        got = as_pairs(*_subtract_arrays(*as_arrays(na), *as_arrays(nb)))
        # _subtract_arrays may emit un-coalesced-but-disjoint runs only when
        # inputs are empty (it returns `a` untouched); both sides are
        # normalised pair lists here, so equality is exact.
        assert got == py_subtract(na, nb)

    @given(pairs_strategy, pairs_strategy)
    def test_clip_many_matches_clip_sorted_runs(self, queries, runs):
        b = py_normalise(runs)
        b_starts = [s for s, _ in b]
        b_stops = [e for _, e in b]
        a_starts, a_stops = as_arrays(queries)
        a_idx, b_idx, lo, hi = clip_many(a_starts, a_stops, *as_arrays(b))
        got = list(
            zip(a_idx.tolist(), b_idx.tolist(), lo.tolist(), hi.tolist())
        )
        expected = [
            (qi, idx, qlo, qhi)
            for qi, (qstart, qstop) in enumerate(queries)
            for qlo, qhi, idx in clip_sorted_runs(b_starts, b_stops, qstart, qstop)
        ]
        assert got == expected

    def test_clip_many_accepts_touching_runs(self):
        """`b` may tile the file (elementary runs touch by construction): a
        query ending exactly on a boundary stays out of the run after it, one
        starting there out of the run before it, and a query spanning several
        touching runs is cut at each boundary."""
        b = [(0, 4), (4, 10), (10, 11), (11, 20)]
        queries = [(2, 4), (4, 6), (3, 12), (10, 11), (0, 20), (20, 25)]
        a_idx, b_idx, lo, hi = clip_many(*as_arrays(queries), *as_arrays(b))
        got = list(zip(a_idx.tolist(), b_idx.tolist(), lo.tolist(), hi.tolist()))
        assert got == [
            (0, 0, 2, 4),
            (1, 1, 4, 6),
            (2, 0, 3, 4), (2, 1, 4, 10), (2, 2, 10, 11), (2, 3, 11, 12),
            (3, 2, 10, 11),
            (4, 0, 0, 4), (4, 1, 4, 10), (4, 2, 10, 11), (4, 3, 11, 20),
        ]

    @given(pairs_strategy, st.sets(st.integers(0, 2100), min_size=2, max_size=24))
    def test_clip_many_on_a_tiling_matches_clip_sorted_runs(self, queries, cuts):
        edges = sorted(cuts)
        b_starts, b_stops = edges[:-1], edges[1:]
        a_idx, b_idx, lo, hi = clip_many(
            *as_arrays(queries), *as_arrays(list(zip(b_starts, b_stops)))
        )
        expected = [
            (qi, idx, qlo, qhi)
            for qi, (qstart, qstop) in enumerate(queries)
            for qlo, qhi, idx in clip_sorted_runs(b_starts, b_stops, qstart, qstop)
        ]
        assert list(zip(a_idx.tolist(), b_idx.tolist(), lo.tolist(), hi.tolist())) == expected

    def test_public_api_large_inputs_match_reference(self):
        """Seeded fuzz well above _SMALL_N: the numpy-only code paths."""
        rng = np.random.RandomState(20260807)
        for _ in range(25):
            n = int(rng.randint(100, 2000))
            raw_a = [
                (int(s), int(s + l))
                for s, l in zip(rng.randint(0, 10 * n, n), rng.randint(0, 12, n))
            ]
            raw_b = [
                (int(s), int(s + l))
                for s, l in zip(rng.randint(0, 10 * n, n), rng.randint(0, 12, n))
            ]
            a, b = IntervalSet(raw_a), IntervalSet(raw_b)
            na, nb = py_normalise(raw_a), py_normalise(raw_b)
            assert a._pairs() == na
            assert b._pairs() == nb
            assert a.union(b)._pairs() == py_union(na, nb)
            assert a.intersection(b)._pairs() == py_intersection(na, nb)
            assert a.subtract(b)._pairs() == py_subtract(na, nb)
            assert b.subtract(a)._pairs() == py_subtract(nb, na)
            assert a.overlaps(b) == bool(py_intersection(na, nb))
