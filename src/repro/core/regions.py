"""File-region descriptions of per-process file views.

The atomicity strategies in :mod:`repro.core.strategies` operate on the
*flattened* form of each process's MPI file view: an ordered list of
contiguous file segments ``(offset, length)`` that a single MPI read/write
call will touch.  :class:`FileRegionSet` packages that list together with the
owning rank and provides the queries the strategies need (overlap tests,
extent, trimming against other processes' regions).

The ordered segment list (``segments``) preserves the data-stream order of
the MPI file view — segment ``i`` receives the next ``length_i`` bytes of the
user buffer — while the normalised :class:`~repro.core.intervals.IntervalSet`
(``coverage``) is used for the set-algebra questions.

A view is validated once: the ``segments`` tuple a region stores carries the
coverage and byte count derived from it, so a region built from another
region's ``segments`` (the view exchange, the executors, re-keying into a
global rank space) reuses both and checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .intervals import Interval, IntervalSet, _complement_arrays, clip_many

__all__ = ["FileRegionSet", "build_region_sets"]


def _segment_arrays(
    segments: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """The view's segments as parallel ``(starts, stops)`` arrays (stream order)."""
    n = len(segments)
    starts = np.fromiter((off for off, _ in segments), dtype=np.int64, count=n)
    stops = starts + np.fromiter(
        (length for _, length in segments), dtype=np.int64, count=n
    )
    return starts, stops


class _Segments(tuple):
    """A validated view's segments: a plain ``tuple`` to every reader (it
    compares, hashes and reprs as one, and has no ``nbytes``, so a collective
    charges it as the tuple it replaces) that also carries the ``coverage``
    and ``total_bytes`` its :class:`FileRegionSet` derived."""


@dataclass(frozen=True)
class FileRegionSet:
    """The file regions one process will access in a single MPI I/O call.

    Parameters
    ----------
    rank:
        The MPI rank owning this view.
    segments:
        Ordered ``(file_offset, length)`` pairs in data-stream order.  The
        same file byte must not appear twice within one process's view (MPI
        forbids overlapping writes *within* a single request in atomic mode);
        this is validated at construction — once: another region's
        ``segments`` are taken as validated, with its coverage and byte count.
    """

    rank: int
    segments: Tuple[Tuple[int, int], ...]
    coverage: IntervalSet = field(init=False, compare=False, repr=False)
    #: Number of bytes this process accesses.
    total_bytes: int = field(init=False, compare=False, repr=False)

    def __init__(self, rank: int, segments: Iterable[Tuple[int, int]]):
        if type(segments) is not _Segments:
            segments = self._validate(rank, segments)
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "coverage", segments.coverage)
        object.__setattr__(self, "total_bytes", segments.total_bytes)

    @staticmethod
    def _validate(rank: int, segments: Iterable[Tuple[int, int]]) -> _Segments:
        # One pass validates, drops empty segments, and — while the segments
        # arrive file-ordered and disjoint, as flattened views do — builds the
        # coverage by coalescing touching neighbours, with nothing to sort.
        segs: List[Tuple[int, int]] = []
        starts: List[int] = []
        stops: List[int] = []
        ordered = True
        total = 0
        for off, length in segments:
            off, length = int(off), int(length)
            if off < 0 or length < 0:
                raise ValueError(f"invalid segment ({off}, {length})")
            if length == 0:
                continue
            segs.append((off, length))
            total += length
            if not stops or off > stops[-1]:
                starts.append(off)
                stops.append(off + length)
            elif off == stops[-1]:
                stops[-1] = off + length
            else:
                ordered = False
        if ordered:
            coverage = IntervalSet._from_normalised(
                np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)
            )
        else:
            coverage = IntervalSet.from_segments(segs)
            if coverage.total_bytes != total:
                raise ValueError(
                    f"rank {rank}: file view segments overlap each other; "
                    "a single MPI request may not write the same byte twice"
                )
        validated = _Segments(segs)
        validated.coverage = coverage
        validated.total_bytes = total
        return validated

    # -- inspection ----------------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Number of contiguous file segments in the view."""
        return len(self.segments)

    def is_empty(self) -> bool:
        """True when the view accesses no bytes."""
        return not self.segments

    def is_contiguous(self) -> bool:
        """True when the whole view is a single contiguous file range."""
        return len(self.coverage.intervals) <= 1

    def extent(self) -> Interval | None:
        """Hull ``[first byte, last byte)`` of the view (what locking locks)."""
        return self.coverage.extent()

    def extent_bytes(self) -> int:
        """Size in bytes of the extent hull (0 when empty)."""
        ext = self.extent()
        return 0 if ext is None else ext.length

    # -- relations -------------------------------------------------------------

    def overlaps(self, other: "FileRegionSet") -> bool:
        """True when the two processes access at least one common byte."""
        return self.coverage.overlaps(other.coverage)

    def overlap_bytes(self, other: "FileRegionSet") -> int:
        """Number of bytes accessed by both processes."""
        return self.coverage.intersection(other.coverage).total_bytes

    def overlap_region(self, other: "FileRegionSet") -> IntervalSet:
        """The byte ranges accessed by both processes."""
        return self.coverage.intersection(other.coverage)

    # -- transformation ---------------------------------------------------------

    def trimmed(self, remove: IntervalSet) -> "FileRegionSet":
        """A copy of the view with the ``remove`` byte ranges cut out.

        This is the core operation of the process-rank ordering strategy: a
        lower-ranked process surrenders the bytes that a higher-ranked
        process will also write.  Segment order is preserved; segments that
        intersect ``remove`` are split, segments fully covered are dropped.
        """
        if remove.is_empty() or not self.segments:
            return self
        # Subtracting `remove` is intersecting with its complement; one batch
        # clip then handles every segment at once, in stream order.
        starts, stops = _segment_arrays(self.segments)
        comp = _complement_arrays(remove.starts, remove.stops, int(stops.max()))
        _, _, lo, hi = clip_many(starts, stops, *comp)
        return FileRegionSet(self.rank, zip(lo.tolist(), (hi - lo).tolist()))

    def restricted_to(self, keep: IntervalSet) -> "FileRegionSet":
        """A copy of the view containing only bytes inside ``keep``."""
        if not self.segments:
            return self
        starts, stops = _segment_arrays(self.segments)
        _, _, lo, hi = clip_many(starts, stops, keep.starts, keep.stops)
        return FileRegionSet(self.rank, zip(lo.tolist(), (hi - lo).tolist()))

    # -- buffer mapping -----------------------------------------------------------

    def buffer_map(self) -> List[Tuple[int, int, int]]:
        """Map user-buffer offsets to file segments.

        Returns a list of ``(buffer_offset, file_offset, length)`` triples in
        data-stream order: byte ``buffer_offset + i`` of the user buffer goes
        to file byte ``file_offset + i``.
        """
        out: List[Tuple[int, int, int]] = []
        buf = 0
        for off, length in self.segments:
            out.append((buf, off, length))
            buf += length
        return out

    def buffer_map_restricted(self, keep: IntervalSet) -> List[Tuple[int, int, int]]:
        """Like :meth:`buffer_map` but keeping only the file bytes in ``keep``.

        Needed by the rank-ordering strategy: after trimming, each remaining
        file range must still be paired with the *original* position of its
        data in the user buffer (the surrendered bytes are simply never
        transferred).
        """
        if not self.segments:
            return []
        _, buf, lo, length = self.cut_at(keep.starts, keep.stops)
        return list(zip(buf.tolist(), lo.tolist(), length.tolist()))

    def cut_at(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The segments cut at file-ordered disjoint runs ``[starts[j],
        stops[j])``: ``(run, buffer_offset, file_offset, length)`` arrays, one
        row per cut, in data-stream order."""
        seg_starts, seg_stops = _segment_arrays(self.segments)
        lengths = seg_stops - seg_starts
        a_idx, b_idx, lo, hi = clip_many(seg_starts, seg_stops, starts, stops)
        buf = (np.cumsum(lengths) - lengths)[a_idx] + (lo - seg_starts[a_idx])
        return b_idx, buf, lo, hi - lo


def build_region_sets(
    views: Sequence[Sequence[Tuple[int, int]]]
) -> List[FileRegionSet]:
    """Build one :class:`FileRegionSet` per rank from raw segment lists."""
    return [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
