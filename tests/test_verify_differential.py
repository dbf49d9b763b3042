"""The array-native verifiers, proven on generated inputs (ROADMAP aim 3a).

Two properties, on Hypothesis-generated view sets (irregular, nested, fully
overlapping, empty ranks, segments out of file order, ranks offset by a
``provenance_base``):

* **soundness by mutation** — a store painted by *some serial order* of the
  writers (or a read that observed some serial prefix) is reported ``ok`` with
  no violation; every seeded tear of an overlapped byte — a sub-range of one
  overlap swapped to another covering writer, a foreign writer, the rows of
  an overlap won alternately (Figure 2), a surrendered range never written,
  a stale page spliced into a read — is flagged;
* **report identity** — on all of those inputs the report equals the one the
  scalar implementation it replaced (``tests/reference_verify.py``) gives:
  ``ok``, every violation (kind, interval, text) in order, both counters;
* **loud lengths** — a read observation or a writer's stream one byte short
  or long, at the first, a middle or the last rank, raises the
  ``ValueError`` that names the rank;
* **layout identity** — the single-pass view layout (``core.overlap._flatten``,
  ``verify.atomicity._stack``) gives the arrays of its per-view predecessor,
  kept verbatim in the oracle module, dtype for dtype.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import generators
import reference_verify as oracle
from repro.core.overlap import _flatten, coverage_runs
from repro.core.regions import FileRegionSet
from repro.fs.storage import NO_WRITER, ByteStore
from repro.verify import atomicity
from repro.verify import (
    ReadObservation,
    StreamTrace,
    check_coverage,
    check_mpi_atomicity,
    check_posix_call_atomicity,
    check_read_atomicity,
    check_stream_atomicity,
)

FILE_BYTES = 32


def assert_same(new, old) -> None:
    """Field for field, violation for violation, in order."""
    assert new.ok == old.ok
    assert [(v.kind, v.interval, v.detail) for v in new.violations] == [
        (v.kind, v.interval, v.detail) for v in old.violations
    ]
    assert all(type(v.interval.start) is int for v in new.violations)
    assert new.overlap_regions_checked == old.overlap_regions_checked
    assert new.overlapped_bytes == old.overlapped_bytes


# -- generated views ------------------------------------------------------------------


@st.composite
def view_sets(draw, min_ranks=1, max_ranks=4):
    """``(base, regions)``: 1–4 views, ranks numbered from ``base``."""
    base = draw(st.sampled_from([0, 0, 16, 1000]))
    views = draw(generators.view_sets(FILE_BYTES, min_ranks, max_ranks))
    return base, [FileRegionSet(base + r, segs) for r, segs in enumerate(views)]


def stream_of(region: FileRegionSet, salt: int) -> bytes:
    """The rank's data stream: bytes no other rank and no baseline produces
    (value classes are disjoint per ``salt``), varying along the stream."""
    return bytes(1 + 6 * (salt % 40) + k % 6 for k in range(region.total_bytes))


def paint(store: ByteStore, region: FileRegionSet, data: bytes) -> None:
    for buf, off, length in region.buffer_map():
        store.write(off, data[buf:buf + length], writer=region.rank)


def overlapped_runs(regions):
    """``(start, stop, covering ranks)`` of every run two or more views cover."""
    bounds, depth, ptr, ranks = coverage_runs(regions)
    return [
        (int(bounds[i]), int(bounds[i + 1]), ranks[ptr[i]:ptr[i + 1]].tolist())
        for i in np.flatnonzero(depth >= 2).tolist()
    ]


def serial_order_explains(store: ByteStore, regions) -> bool:
    """Brute force over the P! serial orders: does one reproduce the
    provenance of every written overlapped byte?"""
    runs = overlapped_runs(regions)
    for order in permutations(range(len(regions))):
        replay = ByteStore()
        for idx in order:
            paint(replay, regions[idx], bytes(regions[idx].total_bytes))
        if all(
            w in (NO_WRITER, r)
            for start, stop, _ in runs
            for w, r in zip(
                store.writers(start, stop - start).tolist(),
                replay.writers(start, stop - start).tolist(),
            )
        ):
            return True
    return False


# -- write side -------------------------------------------------------------------------


@st.composite
def painted_stores(draw):
    base, regions = draw(view_sets())
    store = ByteStore()
    for idx in draw(st.permutations(range(len(regions)))):
        paint(store, regions[idx], stream_of(regions[idx], idx))
    return base, regions, store


def check_write_side(store, regions) -> bool:
    """Both write verifiers against the oracle; returns ``ok`` of the MPI one."""
    report = check_mpi_atomicity(store, regions)
    assert_same(report, oracle.check_mpi_atomicity(store, regions))
    assert_same(check_coverage(store, regions), oracle.check_coverage(store, regions))
    return report.ok


class TestWriteVerifiers:
    @given(painted_stores())
    def test_a_serial_order_is_never_flagged(self, case):
        _, regions, store = case
        assert check_write_side(store, regions)
        assert not check_mpi_atomicity(store, regions).violations
        assert check_coverage(store, regions).ok

    @given(painted_stores(), st.data())
    def test_swapping_part_of_an_overlap_to_another_writer_is_flagged(self, case, data):
        _, regions, store = case
        runs = [run for run in overlapped_runs(regions) if run[1] - run[0] >= 2]
        if not runs:
            return
        start, stop, covering = data.draw(st.sampled_from(runs))
        lo = data.draw(st.integers(start, stop - 1))
        hi = data.draw(st.integers(lo + 1, stop if lo > start else stop - 1))
        holder = int(store.writers(lo, 1)[0])
        thief = data.draw(st.sampled_from([r for r in covering if r != holder]))
        store.write(lo, bytes(hi - lo), writer=thief)
        assert not check_write_side(store, regions)
        assert not serial_order_explains(store, regions)

    @given(painted_stores(), st.data())
    def test_a_foreign_writer_in_an_overlap_is_flagged(self, case, data):
        base, regions, store = case
        runs = overlapped_runs(regions)
        if not runs:
            return
        start, stop, covering = data.draw(st.sampled_from(runs))
        lo = data.draw(st.integers(start, stop - 1))
        hi = data.draw(st.integers(lo + 1, stop))
        outsiders = [r for r in range(base, base + len(regions) + 2) if r not in covering]
        store.write(lo, bytes(hi - lo), writer=data.draw(st.sampled_from(outsiders)))
        assert not check_write_side(store, regions)
        kinds = {v.kind for v in check_mpi_atomicity(store, regions).violations}
        assert "foreign-writer" in kinds

    @given(painted_stores(), st.data())
    def test_rows_of_an_overlap_won_alternately_are_flagged(self, case, data):
        """Figure 2: each row is single-writer, the rows disagree on the order."""
        _, regions, store = case
        runs = overlapped_runs(regions)
        pairs = [
            (a, b, sorted(set(a[2]) & set(b[2])))
            for i, a in enumerate(runs)
            for b in runs[i + 1:]
            if len(set(a[2]) & set(b[2])) >= 2
        ]
        if not pairs:
            return
        first, second, both = data.draw(st.sampled_from(pairs))
        x, y = data.draw(st.permutations(both))[:2]
        store.write(first[0], bytes(first[1] - first[0]), writer=x)
        store.write(second[0], bytes(second[1] - second[0]), writer=y)
        assert not check_write_side(store, regions)
        assert check_mpi_atomicity(store, regions).violations[-1].interval.length == 0

    @given(painted_stores(), st.data())
    def test_a_dropped_range_is_flagged_by_coverage(self, case, data):
        _, regions, store = case
        covered = [iv for region in regions for iv in region.coverage]
        if not covered:
            return
        iv = data.draw(st.sampled_from(covered))
        lo = data.draw(st.integers(iv.start, iv.stop - 1))
        hi = data.draw(st.integers(lo + 1, iv.stop))
        store.write(lo, bytes(hi - lo), writer=NO_WRITER)
        check_write_side(store, regions)
        report = check_coverage(store, regions)
        assert not report.ok and any(v.kind == "unwritten" for v in report.violations)

    @given(view_sets(), st.data())
    def test_any_provenance_matches_the_oracle_and_the_brute_force(self, views, data):
        """No structure at all: every byte gets an arbitrary writer."""
        base, regions = views
        ids = st.sampled_from([NO_WRITER, *range(base, base + len(regions) + 1)])
        store = ByteStore()
        for pos, writer in enumerate(data.draw(st.lists(ids, max_size=FILE_BYTES))):
            if writer != NO_WRITER:
                store.write(pos, b"x", writer=writer)
        ok = check_write_side(store, regions)
        foreign = any(
            w != NO_WRITER and w not in ranks
            for start, stop, ranks in overlapped_runs(regions)
            for w in store.writers(start, stop - start).tolist()
        )
        assert ok == (not foreign and serial_order_explains(store, regions))


    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, FILE_BYTES), st.integers(0, 8))),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, FILE_BYTES), st.integers(0, 8))),
    )
    def test_posix_call_check_matches_the_per_call_loop(self, writes, calls):
        store = ByteStore()
        for writer, offset, length in writes:
            store.write(offset, bytes(length), writer=writer)
        expected = [
            (offset, offset + length, list(oracle._distinct_writers(store, offset, length)))
            for writer, offset, length in calls
            if list(oracle._distinct_writers(store, offset, length)) != [writer]
        ]
        report = check_posix_call_atomicity(store, calls)
        assert report.ok == (not expected)
        assert [v.kind for v in report.violations] == ["torn-call"] * len(expected)
        assert [(v.interval.start, v.interval.stop) for v in report.violations] == [
            (start, stop) for start, stop, _ in expected
        ]
        assert all(
            v.detail.endswith(f"shows provenance {seen}")
            for v, (_, _, seen) in zip(report.violations, expected)
        )


# -- read side --------------------------------------------------------------------------


@st.composite
def read_cases(draw):
    """Writers, a baseline, and readers that each observed a serial prefix."""
    base, writers = draw(view_sets())
    data = [stream_of(region, idx) for idx, region in enumerate(writers)]
    baseline = draw(
        st.one_of(
            st.none(),
            st.binary(max_size=FILE_BYTES).map(lambda b: bytes(250 + x % 6 for x in b)),
        )
    )
    _, readers = draw(view_sets(max_ranks=3))
    observations, applied_by_all = [], set(range(len(writers)))
    for reader in readers:
        image = ByteStore()
        image.write(0, (baseline or b"").ljust(FILE_BYTES, b"\0"))
        applied = draw(st.permutations(range(len(writers))))
        applied = applied[: draw(st.integers(0, len(writers)))]
        for idx in applied:
            paint(image, writers[idx], data[idx])
        applied_by_all &= set(applied)
        stream = b"".join(image.read(off, n) for _, off, n in reader.buffer_map())
        observations.append(ReadObservation(reader.rank, reader, stream))
    committed = draw(
        st.one_of(
            st.none(),
            st.sets(st.sampled_from(sorted(applied_by_all))) if applied_by_all else st.just(set()),
        )
    )
    committed = None if committed is None else {writers[i].rank for i in committed}
    return observations, writers, data, baseline, committed


def check_read_side(observations, writers, data, baseline, committed):
    report = check_read_atomicity(observations, writers, data, baseline, committed)
    assert_same(
        report, oracle.check_read_atomicity(observations, writers, data, baseline, committed)
    )
    return report


def spliced(obs: ReadObservation, lo: int, hi: int, patch: bytes) -> ReadObservation:
    """The observation with file range ``[lo, hi)`` replaced by ``patch``."""
    stream = bytearray(obs.data)
    for buf, off, length in obs.region.buffer_map():
        for pos in range(max(off, lo), min(off + length, hi)):
            stream[buf + pos - off] = patch[pos - lo]
    return ReadObservation(obs.rank, obs.region, bytes(stream))


class TestReadVerifier:
    @given(read_cases())
    def test_a_serial_prefix_is_never_flagged(self, case):
        report = check_read_side(*case)
        assert report.ok and not report.violations

    @given(read_cases(), st.data())
    def test_a_spliced_page_is_flagged(self, case, data):
        """Part of a read replaced by a stale (baseline) page or by garbage.
        Value classes are disjoint, so no coincidence makes a cut whole again:
        the splice must be flagged unless it changed nothing, or replaced one
        whole cut by a baseline that is still admissible there."""
        observations, writers, streams, baseline, committed = case
        garbage = bytes([249]) * FILE_BYTES
        cuts = [  # every cut of every observation: all-garbage reads violate everywhere
            (i, v.interval)
            for i, obs in enumerate(observations)
            for v in oracle.check_read_atomicity(
                [spliced(obs, 0, FILE_BYTES, garbage)], writers, streams, baseline, committed
            ).violations
        ]
        if not cuts:
            return
        i, cut = data.draw(st.sampled_from(cuts))
        lo = data.draw(st.integers(cut.start, cut.stop - 1))
        hi = data.draw(st.integers(lo + 1, cut.stop))
        stale = data.draw(st.booleans())
        page = (baseline or b"").ljust(FILE_BYTES, b"\0")[lo:hi] if stale else garbage
        torn = list(observations)
        torn[i] = spliced(observations[i], lo, hi, page)
        report = check_read_side(torn, writers, streams, baseline, committed)
        covering = {w.rank for w in writers if w.coverage.contains_offset(cut.start)}
        admissible = stale and (lo, hi) == (cut.start, cut.stop) and not (
            covering & set(committed or ())
        )
        expected = torn[i].data != observations[i].data and not admissible
        assert report.ok == (not expected)
        if expected:
            assert [v.interval for v in report.violations] == [cut]

    @given(read_cases())
    def test_the_baseline_under_committed_writers_is_flagged(self, case):
        """Every write waited on, every reader served the pre-write state."""
        observations, writers, streams, baseline, _ = case
        before = (baseline or b"").ljust(FILE_BYTES, b"\0")
        stale = [spliced(obs, 0, FILE_BYTES, before) for obs in observations]
        committed = {region.rank for region in writers}
        report = check_read_side(stale, writers, streams, baseline, committed)
        under_writer = any(
            w.region.overlaps(region) for w in stale for region in writers
        )
        assert report.ok == (not under_writer)
        assert all(v.kind == "torn-read" for v in report.violations)

    @given(read_cases(), st.integers(1, 9), st.data())
    def test_compare_windows_may_split_ranges(self, case, block, data):
        """The gather-compare walks fixed windows of compared bytes; a cut
        that straddles windows must still be judged as one."""
        observations, writers, streams, baseline, committed = case
        if observations and observations[0].region.total_bytes:
            iv = data.draw(st.sampled_from(observations[0].region.coverage.intervals))
            at = data.draw(st.integers(iv.start, iv.stop - 1))
            observations = [spliced(observations[0], at, at + 1, b"\xf9"), *observations[1:]]
        with mock.patch.object(atomicity, "_BLOCK", block):
            check_read_side(observations, writers, streams, baseline, committed)

    @given(st.lists(read_cases(), max_size=2), st.booleans())
    def test_streams_merge_like_the_oracle(self, cases, tear):
        streams = []
        for s, (observations, writers, wdata, baseline, committed) in enumerate(cases):
            if tear and observations and observations[0].region.total_bytes:
                iv = observations[0].region.coverage.intervals[0]
                observations = [spliced(observations[0], iv.start, iv.start + 1, b"\xf9")] + list(
                    observations[1:]
                )
            streams.append(StreamTrace(f"s{s}", writers, wdata, observations, committed, baseline))
        merged = check_stream_atomicity(streams)
        expected = [
            (v.kind, v.interval, f"[stream {t.stream_id}] {v.detail}")
            for t in streams
            for v in oracle.check_read_atomicity(
                t.observations, t.write_regions, t.writer_data, t.baseline, t.committed
            ).violations
        ]
        assert [(v.kind, v.interval, v.detail) for v in merged.violations] == expected
        assert merged.ok == (not expected)


class TestStreamLengths:
    """A read observation or a writer's stream one byte short or one byte
    long, at the first, a middle or the last rank, raises the
    ``ValueError`` naming that rank — from both read checkers."""

    @given(
        read_cases(),
        st.sampled_from(["observed", "wrote"]),
        st.sampled_from([0, 0.5, 1]),
        st.sampled_from([-1, 1]),
    )
    def test_a_stream_one_byte_off_raises_naming_its_rank(self, case, what, where, delta):
        observations, writers, data, baseline, committed = case
        views = [o.region for o in observations] if what == "observed" else writers
        assume(views)
        at = round(where * (len(views) - 1))
        assume(views[at].total_bytes + delta >= 0)
        if what == "observed":
            stream = observations[at].data
            observations = list(observations)
            observations[at] = ReadObservation(
                observations[at].rank, views[at], stream[:-1] if delta < 0 else stream + b"\xf9"
            )
        else:
            stream = data[at]
            data = list(data)
            data[at] = stream[:-1] if delta < 0 else stream + b"\xf9"
        message = f"rank {views[at].rank} {what} {len(stream) + delta} bytes"
        with pytest.raises(ValueError, match=message):
            check_read_atomicity(observations, writers, data, baseline, committed)
        trace = StreamTrace("s", writers, data, observations, committed, baseline)
        with pytest.raises(ValueError, match=message):
            check_stream_atomicity([trace])


# -- view layout ------------------------------------------------------------------------


def assert_arrays(new, old) -> None:
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestViewLayout:
    """Empty views, views out of file order (``segment_lists`` draws a
    permutation) and nested ones come from ``generators.view_sets``."""

    @given(view_sets(min_ranks=0))
    def test_flatten_matches_the_oracle(self, views):
        _, regions = views
        assert_arrays(_flatten(regions), oracle._flatten(regions))

    @given(view_sets(min_ranks=0), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_stack_matches_the_oracle(self, views, mutable):
        _, regions = views
        # Every byte distinct: a permutation error cannot hide behind a period.
        streams = [
            (bytearray if mutable[idx] else bytes)(
                (idx * FILE_BYTES + k) % 256 for k in range(region.total_bytes)
            )
            for idx, region in enumerate(regions)
        ]
        assert_arrays(atomicity._stack(regions, streams), oracle._stack(regions, streams))
