"""Test-only oracle: the scalar atomicity verifiers ``src/`` used before the
array-native rewrite, kept verbatim.

``repro.verify.atomicity`` is built on two array primitives
(``core.overlap.coverage_runs`` and ``ByteStore.writer_runs``).  The functions
below are the implementations it replaced — a pure-Python event sweep
(``_elementary_segments``), one provenance query per overlapped run, one
``_StreamImage.bytes_for`` call per (cut, candidate) — moved here unchanged so
``tests/test_verify_differential.py`` can require the new reports to equal the
old ones field for field on generated inputs.  The only edit: the per-run
provenance query is spelled out locally (``_distinct_writers``) instead of
calling ``ByteStore.distinct_writers``, which is itself re-expressed over
``writer_runs`` now and must not be its own oracle.

``_flatten`` and ``_stack`` are the array verifiers' view layout as it was
before it became one pass over all views — one list comprehension per array
in ``_flatten``, three numpy calls per view in ``_stack`` — kept verbatim so
the single-pass forms can be required to give equal arrays.

Never imported by ``src/``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import Interval, IntervalSet, _ranges, clip_sorted_runs
from repro.core.regions import FileRegionSet
from repro.fs.storage import NO_WRITER, ByteStore
from repro.verify.atomicity import (
    AtomicityReport,
    ReadObservation,
    Violation,
    _has_cycle,
)


def _distinct_writers(store: ByteStore, offset: int, nbytes: int) -> Tuple[int, ...]:
    """``ByteStore.distinct_writers`` as it was: copy the range, ``np.unique``."""
    vals = np.unique(store.writers(offset, nbytes))
    return tuple(int(v) for v in vals if v != NO_WRITER)


def _elementary_segments(
    regions: Sequence[FileRegionSet],
) -> List[Tuple[Interval, Tuple[int, ...]]]:
    """Split the file into maximal runs with a constant set of covering ranks.

    Returns ``(interval, covering_ranks)`` pairs, only for runs covered by at
    least one rank.  Within such a run every byte is written (if at all) under
    identical overlap conditions, which is the granularity at which the MPI
    atomicity condition must be evaluated.

    Computed with one sweep over the file-ordered interval boundaries while
    maintaining the active covering-rank set, so the cost is
    ``O(E log E + R)`` for ``E`` intervals and ``R`` emitted run entries —
    independent of the process count per boundary, which keeps verification
    of thousand-rank writes in the noise.
    """
    events: List[Tuple[int, int, int]] = []
    for region in regions:
        for iv in region.coverage:
            events.append((iv.start, 1, region.rank))
            events.append((iv.stop, 0, region.rank))
    events.sort()
    out: List[Tuple[Interval, Tuple[int, ...]]] = []
    active: set = set()
    prev: int | None = None
    i = 0
    while i < len(events):
        pos = events[i][0]
        if prev is not None and active and pos > prev:
            out.append((Interval(prev, pos), tuple(sorted(active))))
        while i < len(events) and events[i][0] == pos:
            _, is_start, rank = events[i]
            if is_start:
                active.add(rank)
            else:
                active.discard(rank)
            i += 1
        prev = pos
    return out


def check_mpi_atomicity(store: ByteStore, regions: Sequence[FileRegionSet]) -> AtomicityReport:
    """Verify the MPI atomic-mode guarantee for a completed concurrent write.

    MPI atomic mode requires the outcome of concurrent overlapping writes to
    be *as if* the requests executed in some sequential order.  The checker
    verifies exactly that:

    1. split the file into elementary runs with a constant covering-rank set;
    2. within any run covered by two or more ranks, all bytes must carry one
       writer, and that writer must be one of the covering ranks;
    3. across runs, "writer *w* beat rank *x* here" induces the ordering
       constraint *x before w*; the constraints of all runs together must be
       satisfiable by a single total order (no cycles).  Alternating
       ownership of the rows of one overlapped region — Figure 2's
       "interleaved" outcome — produces a cycle and is reported.
    """
    report = AtomicityReport(ok=True)
    order_edges: set = set()
    participants: set = set()
    for interval, covering in _elementary_segments(regions):
        if len(covering) < 2:
            continue
        report.overlap_regions_checked += 1
        report.overlapped_bytes += interval.length
        participants.update(covering)
        writers = _distinct_writers(store, interval.start, interval.length)
        if not writers:
            continue  # unwritten overlap: reported by check_coverage
        foreign = [w for w in writers if w not in covering]
        for w in foreign:
            report.ok = False
            report.violations.append(
                Violation(
                    kind="foreign-writer",
                    interval=interval,
                    detail=(
                        f"bytes [{interval.start},{interval.stop}) overlapped by ranks "
                        f"{list(covering)} were written by rank {w} whose view does not "
                        f"cover them"
                    ),
                )
            )
        own_writers = [w for w in writers if w in covering]
        if len(own_writers) > 1:
            report.ok = False
            report.violations.append(
                Violation(
                    kind="interleaved",
                    interval=interval,
                    detail=(
                        f"bytes [{interval.start},{interval.stop}) overlapped by ranks "
                        f"{list(covering)} contain data from writers {sorted(own_writers)}"
                    ),
                )
            )
        elif len(own_writers) == 1:
            winner = own_writers[0]
            for other in covering:
                if other != winner:
                    order_edges.add((other, winner))
    if participants and _has_cycle(order_edges, participants):
        report.ok = False
        report.violations.append(
            Violation(
                kind="interleaved",
                interval=Interval(0, 0),
                detail=(
                    "no sequential ordering of the write requests explains the file "
                    "contents: different parts of the overlapped regions were won by "
                    "conflicting writers (interleaving across an overlapped region)"
                ),
            )
        )
    return report


class _StreamImage:
    """Random access into a (region, stream) pair by *file* offset.

    Both a writer's request and a reader's observation are a flattened view
    plus a contiguous data stream; this index answers "which bytes does this
    stream hold for file range [start, stop)?" in O(log S + pieces touched).
    """

    def __init__(self, region: FileRegionSet, data: bytes) -> None:
        self.pieces = sorted(
            (file_off, buf_off, length)
            for buf_off, file_off, length in region.buffer_map()
        )
        self.starts = [p[0] for p in self.pieces]
        self.stops = [off + length for off, _, length in self.pieces]
        self.data = data

    def bytes_for(self, start: int, stop: int) -> Optional[bytes]:
        """The stream's bytes for file range ``[start, stop)``; ``None``
        unless the view covers the range completely."""
        out = bytearray(stop - start)
        filled = 0
        for lo, hi, idx in clip_sorted_runs(self.starts, self.stops, start, stop):
            off, buf, _ = self.pieces[idx]
            out[lo - start : hi - start] = self.data[buf + lo - off : buf + hi - off]
            filled += hi - lo
        return bytes(out) if filled == stop - start else None


def check_read_atomicity(
    observations: Sequence[ReadObservation],
    write_regions: Sequence[FileRegionSet],
    writer_data: Sequence[bytes],
    baseline: Optional[bytes] = None,
    committed: Optional[Collection[int]] = None,
) -> AtomicityReport:
    """Verify that no collective read was *torn* by concurrent writes.

    MPI atomic mode requires every read to be serialisable against the
    concurrent write requests: within each elementary file segment with a
    constant set of covering writers, the bytes a reader observed must be
    exactly what a *single* committed state provides — one covering writer's
    data for that segment, or the pre-write ``baseline`` (zeros for a fresh
    file).  A mixture of two writers — or of a writer and the baseline —
    within one segment means the reader saw a state no sequential ordering
    of the write calls could produce (a torn read); an observation outside
    every writer's view that differs from the baseline means the reader was
    served stale or corrupt data (e.g. by an unflushed peer cache).

    Parameters
    ----------
    observations:
        One record per collective read performed.
    write_regions:
        The concurrent writers' (untrimmed) file views.
    writer_data:
        ``writer_data[i]`` is the contiguous stream ``write_regions[i]``
        wrote, in view order.
    baseline:
        Snapshot of the file before the writes (defaults to all-zero bytes,
        the state of a freshly created file).
    committed:
        Ranks whose write *requests were completed* — ``Wait`` (or a true
        ``Test``) returned — before the reads began.  A nonblocking write is
        only readable-after via ``Wait``: while it is in flight a reader may
        legitimately observe the pre-write state, but once waited-on its
        data must be visible, so for any segment covered by a committed
        writer the baseline stops being an admissible observation (a reader
        returning it was served stale data).  Default: no write is known
        committed, i.e. every write is treated as potentially in flight.
    """
    report = AtomicityReport(ok=True)
    committed_set = frozenset(committed) if committed is not None else frozenset()
    writers = {
        region.rank: _StreamImage(region, data)
        for region, data in zip(write_regions, writer_data)
    }
    segments = _elementary_segments(write_regions)
    seg_starts = [iv.start for iv, _ in segments]

    def baseline_for(start: int, stop: int) -> bytes:
        if baseline is None:
            return bytes(stop - start)
        chunk = baseline[start:stop]
        return chunk + bytes(stop - start - len(chunk))

    for obs in observations:
        image = _StreamImage(obs.region, obs.data)
        for piece in obs.region.coverage:
            # Split the observed range at every boundary where the covering
            # writer set changes; check each sub-range independently.
            cuts: List[Tuple[Interval, Tuple[int, ...]]] = []
            idx = max(bisect_right(seg_starts, piece.start) - 1, 0) if segments else 0
            pos = piece.start
            while idx < len(segments):
                seg, covering = segments[idx]
                if seg.start >= piece.stop:
                    break
                lo = max(piece.start, seg.start)
                hi = min(piece.stop, seg.stop)
                if lo < hi:
                    if pos < lo:
                        cuts.append((Interval(pos, lo), ()))
                    cuts.append((Interval(lo, hi), covering))
                    pos = hi
                idx += 1
            if pos < piece.stop:
                cuts.append((Interval(pos, piece.stop), ()))
            for interval, covering in cuts:
                observed = image.bytes_for(interval.start, interval.stop)
                if observed is None:  # pragma: no cover - coverage is exact
                    continue
                report.overlap_regions_checked += 1
                if len(covering) >= 2:
                    report.overlapped_bytes += interval.length
                # The baseline is admissible only while every covering write
                # may still be in flight; a committed (waited-on) writer's
                # data must have replaced it.
                if committed_set and committed_set.intersection(covering):
                    candidates = []
                else:
                    candidates = [baseline_for(interval.start, interval.stop)]
                for w in covering:
                    expected = writers[w].bytes_for(interval.start, interval.stop)
                    if expected is not None:
                        candidates.append(expected)
                if any(observed == c for c in candidates):
                    continue
                report.ok = False
                kind = "torn-read" if covering else "stale-read"
                who = (
                    f"writers {list(covering)}" if covering else "no covering writer"
                )
                report.violations.append(
                    Violation(
                        kind=kind,
                        interval=interval,
                        detail=(
                            f"rank {obs.rank} read [{interval.start},{interval.stop}) "
                            f"({who}) and observed bytes matching no single "
                            f"committed write"
                        ),
                    )
                )
    return report


def check_coverage(store: ByteStore, regions: Sequence[FileRegionSet]) -> AtomicityReport:
    """Verify that every byte covered by some view was written by a covering rank.

    This catches the failure mode where a coordination strategy drops data —
    e.g. a rank-ordering implementation that trims too much and leaves holes.
    """
    report = AtomicityReport(ok=True)
    for region in regions:
        for iv in region.coverage:
            writers = store.writers(iv.start, iv.length)
            unwritten = int(np.count_nonzero(writers == NO_WRITER))
            if unwritten:
                report.ok = False
                report.violations.append(
                    Violation(
                        kind="unwritten",
                        interval=iv,
                        detail=(
                            f"{unwritten} byte(s) of [{iv.start},{iv.stop}) covered by rank "
                            f"{region.rank}'s view were never written"
                        ),
                    )
                )
                continue
            covering = {r.rank for r in regions if r.coverage.overlaps(IntervalSet.single(iv.start, iv.stop))}
            foreign = {int(w) for w in np.unique(writers)} - covering
            if foreign:
                report.ok = False
                report.violations.append(
                    Violation(
                        kind="foreign-writer",
                        interval=iv,
                        detail=(
                            f"bytes of [{iv.start},{iv.stop}) were written by rank(s) "
                            f"{sorted(foreign)} whose views do not cover them"
                        ),
                    )
                )
    return report


def _flatten(
    regions: Sequence[FileRegionSet],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All coverage intervals of all ranks as flat ``(starts, stops, ranks)``
    arrays, rank by rank (one array append per rank, no sort)."""
    covs = [(r.coverage, r.rank) for r in regions if len(r.coverage.starts)]
    if not covs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.concatenate([cov.starts for cov, _ in covs]),
        np.concatenate([cov.stops for cov, _ in covs]),
        np.repeat(
            np.array([rank for _, rank in covs], dtype=np.int64),
            [len(cov.starts) for cov, _ in covs],
        ),
    )


def _stack(
    regions: Sequence[FileRegionSet], streams: Sequence[bytes]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lay (view, stream) pairs out for comparison by *file* offset.

    Returns ``(buf, starts, stops, view)``: ``buf`` concatenates every
    stream's bytes re-ordered into ascending file order, so the coverage
    pieces ``[starts[j], stops[j])`` of all views (view by view, ``view[j]``
    says which) tile it: piece ``j`` sits at ``cumsum(stops - starts)[j - 1]``.
    """
    bufs = [np.empty(0, dtype=np.uint8)]
    for region, data in zip(regions, streams):
        stream = np.frombuffer(data, dtype=np.uint8)
        offs, lengths = np.array(region.segments, dtype=np.int64).reshape(-1, 2).T
        if (offs[1:] < offs[:-1]).any():  # view not in file order: permute
            order = np.argsort(offs)
            stream = stream[_ranges((np.cumsum(lengths) - lengths)[order], lengths[order])]
        bufs.append(stream)
    starts, stops, _ = _flatten(regions)
    pieces = [len(region.coverage.starts) for region in regions]
    return np.concatenate(bufs), starts, stops, np.repeat(np.arange(len(pieces)), pieces)
