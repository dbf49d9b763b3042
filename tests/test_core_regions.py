"""Tests for FileRegionSet (flattened per-process file views)."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import raw_segment_lists, segment_lists
from repro.core.executor import _Executor
from repro.core.intervals import Interval, IntervalSet
from repro.core.pipeline import exchange_views
from repro.core.regions import FileRegionSet, build_region_sets
from repro.mpi.comm import SharedList
from repro.mpi.cost import CommCostModel, payload_nbytes
from repro.verify.atomicity import rekey_regions


def four_pass_region_set(rank, segments):
    """``FileRegionSet.__init__`` as it was before the one-pass constructor:
    validate, drop empties, normalise through a sort, compare byte totals.
    Returns what the constructor stored, or raises what it raised."""
    segs = tuple((int(off), int(length)) for off, length in segments)
    for off, length in segs:
        if off < 0 or length < 0:
            raise ValueError(f"invalid segment ({off}, {length})")
    segs = tuple((off, length) for off, length in segs if length > 0)
    coverage = IntervalSet.from_segments(segs)
    if coverage.total_bytes != sum(length for _, length in segs):
        raise ValueError(
            f"rank {rank}: file view segments overlap each other; "
            "a single MPI request may not write the same byte twice"
        )
    return segs, coverage, sum(length for _, length in segs)


class TestConstruction:
    def test_basic(self):
        r = FileRegionSet(0, [(0, 10), (20, 10)])
        assert r.total_bytes == 20
        assert r.num_segments == 2

    def test_zero_length_segments_dropped(self):
        r = FileRegionSet(1, [(0, 10), (15, 0), (20, 5)])
        assert r.segments == ((0, 10), (20, 5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FileRegionSet(0, [(-1, 5)])
        with pytest.raises(ValueError):
            FileRegionSet(0, [(0, -5)])

    def test_self_overlap_rejected(self):
        # A single MPI request may not write the same byte twice.
        with pytest.raises(ValueError):
            FileRegionSet(0, [(0, 10), (5, 10)])

    @given(raw_segment_lists(24))
    def test_one_pass_constructor_equals_the_four_pass_one(self, segments):
        """Same segments, coverage and byte total — or the same ``ValueError``
        — on file-ordered, touching, shuffled, zero-length, self-overlapping
        and negative draws."""
        try:
            segs, coverage, total = four_pass_region_set(3, segments)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                FileRegionSet(3, segments)
            assert str(raised.value) == str(exc)
            return
        r = FileRegionSet(3, segments)
        assert r.segments == segs
        assert r.coverage.starts.tolist() == coverage.starts.tolist()
        assert r.coverage.stops.tolist() == coverage.stops.tolist()
        assert r.coverage.starts.dtype == coverage.starts.dtype
        assert r.total_bytes == total and type(r.total_bytes) is int

    def test_empty_region(self):
        r = FileRegionSet(0, [])
        assert r.is_empty()
        assert r.extent() is None
        assert r.extent_bytes() == 0

    def test_build_region_sets_assigns_ranks(self):
        regions = build_region_sets([[(0, 5)], [(5, 5)], [(10, 5)]])
        assert [r.rank for r in regions] == [0, 1, 2]


class TestValidatedOnce:
    """A region built from another region's ``segments`` reuses what the
    first build derived; every other input goes through the validation."""

    def test_rebuild_shares_the_coverage(self):
        region = FileRegionSet(0, [(100, 4), (0, 8), (50, 0)])
        again = FileRegionSet(2, region.segments)
        assert again.coverage is region.coverage
        assert again.total_bytes == region.total_bytes == 12
        assert again.rank == 2 and again.segments == ((100, 4), (0, 8))

    def test_rebuild_equals_a_fresh_build(self):
        region = FileRegionSet(1, [(100, 4), (0, 8), (50, 0)])
        again = FileRegionSet(1, region.segments)
        fresh = FileRegionSet(1, list(region.segments))
        assert again == fresh and hash(again) == hash(fresh)
        assert repr(again) == repr(fresh)
        assert repr(region.segments) == repr(tuple(region.segments))
        assert hash(region.segments) == hash(tuple(region.segments))
        unpickled = pickle.loads(pickle.dumps(again))
        assert unpickled == fresh and unpickled.total_bytes == fresh.total_bytes
        assert unpickled.coverage == fresh.coverage

    def test_segments_are_charged_as_the_tuple_they_replace(self):
        region = FileRegionSet(0, [(0, 10), (20, 5)])
        plain = tuple(region.segments)
        assert isinstance(region.segments, tuple)
        assert not hasattr(region.segments, "nbytes")
        assert payload_nbytes(region.segments) == payload_nbytes(plain)
        model = CommCostModel(latency=1e-6, byte_cost=1e-8)
        assert model.cost(region.segments) == model.cost(plain)

    @given(segment_lists(24))
    def test_rebuild_from_segments_equals_a_fresh_build(self, segments):
        region = FileRegionSet(3, segments)
        again = FileRegionSet(5, region.segments)
        fresh = FileRegionSet(5, list(region.segments))
        assert again == fresh and hash(again) == hash(fresh)
        assert again.coverage == fresh.coverage
        assert again.total_bytes == fresh.total_bytes

    @given(raw_segment_lists(24), st.sampled_from(["list", "generator", "tuple"]))
    def test_every_other_input_is_validated(self, segments, shape):
        """Lists, generators and plain tuples build what the four-pass
        constructor builds, or raise the same ``ValueError``."""
        make = {"list": list, "generator": lambda s: (seg for seg in s), "tuple": tuple}[shape]
        try:
            segs, coverage, total = four_pass_region_set(3, segments)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                FileRegionSet(3, make(segments))
            assert str(raised.value) == str(exc)
            return
        r = FileRegionSet(3, make(segments))
        assert r.segments == segs and r.total_bytes == total
        assert r.coverage == coverage

    def test_a_plain_tuple_is_validated_even_when_it_equals_valid_segments(self):
        region = FileRegionSet(0, [(0, 10), (20, 5)])
        assert FileRegionSet(0, tuple(region.segments)).coverage is not region.coverage
        with pytest.raises(ValueError, match="overlap"):
            FileRegionSet(0, tuple(region.segments) + ((5, 1),))
        with pytest.raises(ValueError, match="invalid segment"):
            FileRegionSet(0, tuple(region.segments) + ((-1, 1),))

    def test_rebuilders_build_no_interval_set(self, monkeypatch):
        """The view exchange, the executors' view collection and re-keying
        take segments from regions, so they derive no coverage again."""
        regions = build_region_sets([[(0, 4), (8, 4)], [(2, 4)], [], [(20, 1), (10, 2)]])
        built = []
        original_init = IntervalSet.__init__
        original_wrap = IntervalSet._from_normalised.__func__

        def counting_init(self, *args, **kwargs):
            built.append("init")
            original_init(self, *args, **kwargs)

        def counting_wrap(cls, starts, stops):
            built.append("wrap")
            return original_wrap(cls, starts, stops)

        monkeypatch.setattr(IntervalSet, "__init__", counting_init)
        monkeypatch.setattr(IntervalSet, "_from_normalised", classmethod(counting_wrap))

        class SharedComm:
            shared = SharedList(r.segments for r in regions)

            def allgather_shared(self, obj):
                return self.shared

        exchanged = exchange_views(SharedComm(), regions[1])
        collected = _Executor._views(len(regions), lambda rank, _P: regions[rank].segments)
        rekeyed = rekey_regions(regions, 10)
        assert built == []
        for rebuilt in (exchanged, collected):
            assert rebuilt == regions
            assert all(a.coverage is b.coverage for a, b in zip(rebuilt, regions))
        assert [r.rank for r in rekeyed] == [10, 11, 12, 13]
        FileRegionSet(0, [(0, 4)])
        assert built == ["wrap"]  # the counting patch does see a fresh build


class TestQueries:
    def test_contiguous_detection(self):
        assert FileRegionSet(0, [(0, 10)]).is_contiguous()
        assert FileRegionSet(0, [(0, 10), (10, 5)]).is_contiguous()
        assert not FileRegionSet(0, [(0, 10), (20, 5)]).is_contiguous()

    def test_extent(self):
        r = FileRegionSet(0, [(10, 5), (100, 10)])
        assert r.extent() == Interval(10, 110)
        assert r.extent_bytes() == 100

    def test_overlaps(self):
        a = FileRegionSet(0, [(0, 10), (20, 10)])
        b = FileRegionSet(1, [(25, 10)])
        c = FileRegionSet(2, [(10, 10)])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_overlap_bytes(self):
        a = FileRegionSet(0, [(0, 10), (20, 10)])
        b = FileRegionSet(1, [(5, 20)])
        assert a.overlap_bytes(b) == 10  # [5,10) and [20,25)

    def test_overlap_region(self):
        a = FileRegionSet(0, [(0, 10)])
        b = FileRegionSet(1, [(5, 10)])
        assert a.overlap_region(b) == IntervalSet([(5, 10)])


class TestTrimming:
    def test_trimmed_removes_range(self):
        r = FileRegionSet(0, [(0, 10), (20, 10)])
        trimmed = r.trimmed(IntervalSet([(5, 25)]))
        assert trimmed.segments == ((0, 5), (25, 5))
        assert trimmed.rank == 0

    def test_trimmed_noop_for_disjoint(self):
        r = FileRegionSet(0, [(0, 10)])
        assert r.trimmed(IntervalSet([(50, 60)])).segments == r.segments

    def test_trimmed_everything(self):
        r = FileRegionSet(0, [(0, 10)])
        assert r.trimmed(IntervalSet([(0, 100)])).is_empty()

    def test_restricted_to(self):
        r = FileRegionSet(0, [(0, 10), (20, 10)])
        kept = r.restricted_to(IntervalSet([(5, 25)]))
        assert kept.segments == ((5, 5), (20, 5))

    def test_trim_preserves_segment_order(self):
        # Segments stay in data-stream order even when split.
        r = FileRegionSet(0, [(100, 10), (0, 10)])
        trimmed = r.trimmed(IntervalSet([(105, 106)]))
        assert trimmed.segments == ((100, 5), (106, 4), (0, 10))


class TestBufferMapping:
    def test_buffer_map(self):
        r = FileRegionSet(0, [(100, 4), (200, 6)])
        assert r.buffer_map() == [(0, 100, 4), (4, 200, 6)]

    def test_buffer_map_restricted(self):
        r = FileRegionSet(0, [(100, 4), (200, 6)])
        keep = IntervalSet([(102, 203)])
        # keeps [102,104) from segment 1 (buffer offset 2) and [200,203) from
        # segment 2 (buffer offset 4).
        assert r.buffer_map_restricted(keep) == [(2, 102, 2), (4, 200, 3)]

    def test_buffer_map_restricted_full(self):
        r = FileRegionSet(0, [(0, 5), (10, 5)])
        assert r.buffer_map_restricted(r.coverage) == r.buffer_map()

    def test_buffer_map_restricted_empty(self):
        r = FileRegionSet(0, [(0, 5)])
        assert r.buffer_map_restricted(IntervalSet.empty()) == []


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


@st.composite
def disjoint_views(draw):
    """Random non-self-overlapping segment lists."""
    n = draw(st.integers(0, 8))
    offsets = sorted(draw(st.lists(st.integers(0, 400), min_size=n, max_size=n, unique=True)))
    segments = []
    prev_end = -1
    for off in offsets:
        start = max(off, prev_end + 1)
        length = draw(st.integers(1, 20))
        segments.append((start, length))
        prev_end = start + length
    return segments


class TestRegionProperties:
    @given(disjoint_views())
    def test_total_bytes_matches_coverage(self, segments):
        r = FileRegionSet(0, segments)
        assert r.total_bytes == r.coverage.total_bytes

    @given(disjoint_views(), disjoint_views())
    def test_trim_removes_all_overlap(self, a_segs, b_segs):
        a = FileRegionSet(0, a_segs)
        b = FileRegionSet(1, b_segs)
        trimmed = a.trimmed(b.coverage)
        assert not trimmed.overlaps(b)
        # Trimmed view is a subset of the original.
        assert a.coverage.covers(trimmed.coverage)

    @given(disjoint_views())
    def test_buffer_map_contiguous_stream(self, segments):
        r = FileRegionSet(0, segments)
        expected_buf = 0
        for buf_off, _file_off, length in r.buffer_map():
            assert buf_off == expected_buf
            expected_buf += length
        assert expected_buf == r.total_bytes
