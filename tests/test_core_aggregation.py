"""Unit tests for the scatter/assembly helpers of the aggregation layer.

Pins the :func:`repro.core.aggregation.assemble_stream` correctness fix:
overlapping delivered pieces used to double-count ``filled``, which could
make a short scatter (part of the request never delivered) look complete.
Overlaps now raise instead.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from repro.core.aggregation import (
    AggregatedRun,
    QueryBatch,
    assemble_stream,
    merge_origin_runs,
    scatter_pieces,
)
from repro.core.intervals import IntervalSet


class TestAggregatedRun:
    def test_an_immutable_record_with_a_length(self):
        run = AggregatedRun(3, 10, b"abcd")
        assert run == AggregatedRun(offset=10, data=b"abcd", origin=3)
        # The shape of the pieces the merge takes: a run is merged again as is.
        assert tuple(run) == (3, 10, b"abcd")
        assert (run.offset, run.data, run.origin, run.length) == (10, b"abcd", 3, 4)
        with pytest.raises(AttributeError):
            run.origin = 4
        with pytest.raises(AttributeError):
            run.extra = 1

    def test_the_merge_returns_records(self):
        runs = merge_origin_runs([(1, 0, b"aaaa"), (2, 2, b"bb")])
        assert runs == [AggregatedRun(1, 0, b"aa"), AggregatedRun(2, 2, b"bb")]
        assert all(type(run) is AggregatedRun for run in runs)
        assert [run.length for run in runs] == [2, 2]


class TestAssembleStream:
    def test_disjoint_pieces_fill_stream(self):
        # Request [0, 8) at buffer offset 0, delivered as two pieces.
        pieces = [(0, b"abcd"), (4, b"efgh")]
        stream, filled = assemble_stream(pieces, [(0, 0, 8)], 8)
        assert stream == b"abcdefgh"
        assert filled == 8

    def test_pieces_routed_through_buffer_map(self):
        # File bytes [10, 14) land at buffer offset 2.
        stream, filled = assemble_stream([(10, b"wxyz")], [(2, 10, 4)], 8)
        assert stream == b"\x00\x00wxyz\x00\x00"
        assert filled == 4

    def test_short_scatter_reports_partial_fill(self):
        stream, filled = assemble_stream([(0, b"ab")], [(0, 0, 8)], 8)
        assert stream == b"ab" + b"\x00" * 6
        assert filled == 2

    def test_overlapping_pieces_raise(self):
        # Regression: [0, 4) and [2, 6) share bytes [2, 4).  Accepting both
        # used to count the shared bytes twice in `filled`, so a delivery
        # of 6 distinct bytes reported 8 and masked the missing [6, 8).
        pieces = [(0, b"abcd"), (2, b"cdef")]
        with pytest.raises(ValueError, match="overlapping pieces"):
            assemble_stream(pieces, [(0, 0, 8)], 8)

    def test_duplicate_piece_raises(self):
        pieces = [(0, b"abcd"), (0, b"abcd")]
        with pytest.raises(ValueError, match="overlapping pieces"):
            assemble_stream(pieces, [(0, 0, 8)], 8)

    def test_adjacent_pieces_are_not_overlapping(self):
        pieces = [(4, b"efgh"), (0, b"abcd")]  # touching at 4, any order
        stream, filled = assemble_stream(pieces, [(0, 0, 8)], 8)
        assert stream == b"abcdefgh"
        assert filled == 8

    def test_empty_inputs(self):
        stream, filled = assemble_stream([], [(0, 0, 4)], 4)
        assert stream == b"\x00" * 4
        assert filled == 0


class TestScatterAssembleRoundtrip:
    @pytest.mark.parametrize("sink", [bytes, bytearray])
    def test_scatter_then_assemble_recovers_request(self, sink):
        # An aggregator holds file bytes [0, 16) contiguously (fetched into
        # ``bytes`` or, as a read plan's sink, a ``bytearray``); two consumers
        # request interleaved halves.  The scattered pieces are disjoint per
        # consumer, so assembly accepts them and fills each request exactly.
        buffer = sink(range(16))
        held = [(0, 16, 0)]
        coverages = [
            IntervalSet([(0, 4), (8, 12)]),
            IntervalSet([(4, 8), (12, 16)]),
        ]
        sends = scatter_pieces(held, buffer, coverages)
        assert all(type(piece) is bytes for sent in sends for _, piece in sent)
        for rank, coverage in enumerate(coverages):
            buffer_map = [
                (i * 4, off, 4) for i, (off, _) in enumerate(coverage.as_segments())
            ]
            stream, filled = assemble_stream(sends[rank], buffer_map, 8)
            assert filled == 8
            expected = b"".join(
                buffer[off : off + length]
                for off, length in coverage.as_segments()
            )
            assert stream == expected


class TestQueryBatch:
    """The consumers' coverages flattened once per collective: a cut against
    the prebuilt batch — or a window of it — is the cut against the
    coverages themselves."""

    @given(views=generators.view_sets(24, min_ranks=1, max_ranks=6), data=st.data())
    def test_batch_and_window_cut_like_the_plain_coverages(self, views, data):
        coverages = [IntervalSet([(off, off + n) for off, n in segs]) for segs in views]
        buffer = bytes(range(100, 124))
        # The aggregator holds a drawn file-ordered subset of the file, packed.
        cuts = sorted(data.draw(st.sets(st.integers(0, 24), max_size=6)))
        held, at = [], 0
        for start, stop in zip(cuts[::2], cuts[1::2]):
            held.append((start, stop, at))
            at += stop - start
        packed = b"".join(buffer[start:stop] for start, stop, _ in held)
        batch = QueryBatch.of(coverages)
        expected = scatter_pieces(held, packed, coverages)
        assert scatter_pieces(held, packed, batch) == expected
        for dest, pieces in enumerate(expected):
            assert all(data_ == buffer[off : off + len(data_)] for off, data_ in pieces)
        first = data.draw(st.integers(0, len(coverages) - 1))
        last = data.draw(st.integers(first + 1, len(coverages) + 2))  # may overshoot
        assert (
            scatter_pieces(held, packed, batch.window(first, last))
            == scatter_pieces(held, packed, coverages[first:last])
            == expected[first:last]
        )

    def test_no_consumers_and_empty_consumers(self):
        assert scatter_pieces([(0, 4, 0)], b"abcd", []) == []
        assert scatter_pieces([(0, 4, 0)], b"abcd", [IntervalSet(), IntervalSet()]) == [[], []]
