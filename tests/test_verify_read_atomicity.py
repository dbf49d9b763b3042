"""Tests for the read-atomicity verifier (`check_read_atomicity`).

The verifier must accept every observation explainable by a sequential
ordering of the write requests — the pre-write baseline, or any single
covering writer's data per elementary overlap segment — and reject torn
reads (a mixture of writers, or of a writer and the baseline, within one
segment) and stale reads (bytes outside every writer's view that differ from
the baseline).
"""

from __future__ import annotations

import pytest

from repro.core.regions import FileRegionSet
from repro.verify.atomicity import (
    ReadObservation,
    StreamTrace,
    check_read_atomicity,
    check_stream_atomicity,
)


def _regions_two_writers():
    """Two writers overlapping on bytes [10, 20)."""
    w0 = FileRegionSet(0, [(0, 20)])
    w1 = FileRegionSet(1, [(10, 10)])
    return [w0, w1], [b"A" * 20, b"B" * 10]


class TestAcceptedObservations:
    def test_winner_state_accepted(self):
        regions, data = _regions_two_writers()
        # Reader saw w0's prefix and w1's data on the overlap — the state
        # after the serialisation (w0 then w1).
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), b"A" * 10 + b"B" * 10)
        assert check_read_atomicity([obs], regions, data).ok

    def test_other_serialisation_accepted(self):
        regions, data = _regions_two_writers()
        # The w1-then-w0 ordering is just as legal.
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), b"A" * 20)
        assert check_read_atomicity([obs], regions, data).ok

    def test_baseline_state_accepted(self):
        regions, data = _regions_two_writers()
        # Read serialised before both writes: all zeros (fresh file).
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), bytes(20))
        assert check_read_atomicity([obs], regions, data).ok

    def test_explicit_baseline_accepted(self):
        regions, data = _regions_two_writers()
        baseline = bytes(range(30))
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), baseline[:20])
        assert check_read_atomicity([obs], regions, data, baseline=baseline).ok

    def test_observation_outside_writers_matches_baseline(self):
        regions, data = _regions_two_writers()
        obs = ReadObservation(7, FileRegionSet(7, [(40, 8)]), bytes(8))
        assert check_read_atomicity([obs], regions, data).ok

    def test_strided_observation_view(self):
        regions, data = _regions_two_writers()
        # An observation with a multi-segment view: [0, 5) and [15, 20).
        obs = ReadObservation(
            7, FileRegionSet(7, [(0, 5), (15, 5)]), b"A" * 5 + b"B" * 5
        )
        assert check_read_atomicity([obs], regions, data).ok


class TestRejectedObservations:
    def test_torn_read_mixture_of_writers(self):
        regions, data = _regions_two_writers()
        # Half of w0's data and half of w1's inside the one overlap segment:
        # no sequential ordering produces this state.
        torn = b"A" * 10 + b"A" * 5 + b"B" * 5
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), torn)
        report = check_read_atomicity([obs], regions, data)
        assert not report.ok
        assert report.violations[0].kind == "torn-read"
        assert "rank 7" in report.violations[0].detail

    def test_torn_read_mixture_with_baseline(self):
        regions, data = _regions_two_writers()
        # Baseline zeros mixed with w1's bytes within the overlap segment.
        torn = b"A" * 10 + bytes(5) + b"B" * 5
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), torn)
        assert not check_read_atomicity([obs], regions, data).ok

    def test_stale_read_outside_writers(self):
        regions, data = _regions_two_writers()
        obs = ReadObservation(7, FileRegionSet(7, [(40, 8)]), b"\x99" * 8)
        report = check_read_atomicity([obs], regions, data)
        assert not report.ok
        assert report.violations[0].kind == "stale-read"

    def test_foreign_bytes_in_single_writer_region(self):
        regions, data = _regions_two_writers()
        # Bytes [0, 10) are covered by w0 alone; observing something that is
        # neither baseline nor w0's data is a violation.
        obs = ReadObservation(7, FileRegionSet(7, [(0, 10)]), b"Z" * 10)
        assert not check_read_atomicity([obs], regions, data).ok


class TestReportAccounting:
    def test_overlap_statistics(self):
        regions, data = _regions_two_writers()
        obs = ReadObservation(7, FileRegionSet(7, [(0, 20)]), b"A" * 20)
        report = check_read_atomicity([obs], regions, data)
        assert report.ok
        assert report.overlap_regions_checked >= 2  # [0,10) and [10,20)
        assert report.overlapped_bytes == 10  # only [10,20) is multi-writer

    def test_no_observations_trivially_ok(self):
        regions, data = _regions_two_writers()
        assert check_read_atomicity([], regions, data).ok


class TestStreamLengths:
    """Every stream must be as long as its view: a short or long one raises,
    naming the rank, instead of indexing past the end or shifting the bytes
    of the streams behind it onto the wrong views."""

    VIEWS = [FileRegionSet(0, [(0, 4)]), FileRegionSet(1, [(4, 4)])]

    def check(self, read=(b"AAAA", b"BBBB"), written=(b"AAAA", b"BBBB")):
        observations = [
            ReadObservation(view.rank, view, data) for view, data in zip(self.VIEWS, read)
        ]
        return check_read_atomicity(observations, self.VIEWS, list(written))

    def test_exact_lengths_accepted(self):
        assert self.check().ok

    def test_short_observation_raises(self):
        with pytest.raises(ValueError, match="rank 0 observed 3 bytes"):
            self.check(read=(b"AAA", b"BBBB"))

    def test_long_observation_does_not_tear_the_next_rank(self):
        with pytest.raises(ValueError, match="rank 0 observed 5 bytes"):
            self.check(read=(b"AAAAX", b"BBBB"))

    def test_long_observation_of_the_last_rank_raises(self):
        with pytest.raises(ValueError, match="rank 1 observed 5 bytes"):
            self.check(read=(b"AAAA", b"BBBBX"))

    def test_short_writer_stream_raises(self):
        with pytest.raises(ValueError, match="rank 1 wrote 3 bytes"):
            self.check(written=(b"AAAA", b"BBB"))

    def test_stream_check_raises_too(self):
        observations = [ReadObservation(1, self.VIEWS[1], b"BBB")]
        trace = StreamTrace("s", self.VIEWS, [b"AAAA", b"BBBB"], observations)
        with pytest.raises(ValueError, match="rank 1 observed 3 bytes"):
            check_stream_atomicity([trace])
