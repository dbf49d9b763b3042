"""Byte-range interval algebra on flat offset arrays.

Every file view, lock request, overlap computation and rank-ordering trim in
this library ultimately operates on sets of half-open byte intervals
``[start, stop)`` over the file's linear offset space.  This module provides
the interval-set implementation with the operations the atomicity algorithms
in :mod:`repro.core` need:

* normalisation (sorting + coalescing of adjacent/overlapping intervals),
* union, intersection, subtraction,
* overlap queries between interval sets,
* extent (the ``[first, last)`` hull used by the byte-range locking strategy).

The representation is a pair of flat ``int64`` arrays (``starts``/``stops``)
so the set algebra runs as numpy batch operations: normalisation is one
lexsort plus a running-maximum coalesce, and intersection/subtraction
enumerate only the actually-overlapping interval pairs through
``searchsorted`` bisection.  At the 16k–64k rank scale the Section 3.4 sweep
targets, the per-object tuple representation this replaces dominated the
wall-clock profile; a handful of array sweeps per collective does not.

Small sets (a few intervals — the common case for one rank's view in one
operation) take a plain-Python fast path, because a lexsort on a 2-element
array costs more than the loop it replaces.

The pure-Python kernels are kept as module functions (``py_normalise``,
``py_union``, ``py_intersection``, ``py_subtract``) — they are the reference
the property-based differential tests pin the vectorized kernels against,
bit for bit, and they document the algorithms in their simplest form.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Interval",
    "IntervalSet",
    "clip_sorted_runs",
    "clip_many",
    "merge_interval_sets",
]

#: Below this many intervals the plain-Python kernels beat the numpy ones
#: (array setup costs more than the loop it replaces).
_SMALL_N = 16

_EMPTY = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Pure-Python reference kernels (differential-test baseline)
# ---------------------------------------------------------------------------


def py_normalise(pairs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort/coalesce ``(start, stop)`` pairs; the reference normalisation."""
    items = sorted((int(s), int(e)) for s, e in pairs)
    merged: List[Tuple[int, int]] = []
    for start, stop in items:
        if stop <= start:
            continue
        if merged and start <= merged[-1][1]:
            last_start, last_stop = merged[-1]
            if stop > last_stop:
                merged[-1] = (last_start, stop)
        else:
            merged.append((start, stop))
    return merged


def py_union(
    a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Reference union of two normalised pair lists."""
    return py_normalise(list(a) + list(b))


def py_intersection(
    a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Reference intersection of two normalised pair lists (linear merge)."""
    out: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def py_subtract(
    a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Reference subtraction of two normalised pair lists (linear sweep)."""
    if not b or not a:
        return list(a)
    out: List[Tuple[int, int]] = []
    j = 0
    for start, stop in a:
        cur = start
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < stop:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            if cur >= stop:
                break
            k += 1
        if cur < stop:
            out.append((cur, stop))
    return out


# ---------------------------------------------------------------------------
# Vectorized kernels over flat (starts, stops) arrays
# ---------------------------------------------------------------------------


def _normalise_arrays(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort/coalesce interval arrays (any order, empties allowed)."""
    keep = stops > starts
    if not keep.all():
        starts, stops = starts[keep], stops[keep]
    n = len(starts)
    if n <= 1:
        return starts, stops
    order = np.lexsort((stops, starts))
    starts, stops = starts[order], stops[order]
    running = np.maximum.accumulate(stops)
    fresh = np.empty(n, dtype=np.bool_)
    fresh[0] = True
    # A new run begins where an interval starts beyond everything coalesced
    # so far (adjacency merges: `>` not `>=`).
    np.greater(starts[1:], running[:-1], out=fresh[1:])
    heads = np.flatnonzero(fresh)
    ends = np.concatenate((heads[1:], [n])) - 1
    return starts[heads], running[ends]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the loop — the index form of a batch of ranges."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(len(out), dtype=np.int64)
    return out


def clip_many(
    a_starts: np.ndarray,
    a_stops: np.ndarray,
    b_starts: np.ndarray,
    b_stops: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clip every query run ``a`` against sorted disjoint runs ``b`` at once.

    ``b`` must be file-ordered and disjoint; its runs may touch (the
    half-open bisection sends a query ending exactly on a boundary to the run
    before it and one starting there to the run after, so the elementary runs
    of :func:`repro.core.overlap.coverage_runs` — which tile the file — are a
    valid ``b``).  The query runs ``a`` may be in any order and are processed
    independently.
    Returns ``(a_idx, b_idx, lo, hi)`` — one row per non-empty intersection
    of query ``a_idx`` with run ``b_idx`` — grouped by query in input order,
    ascending in file offset within each query.  This is the vectorized form
    of :func:`clip_sorted_runs` over a whole batch of queries: the two-phase
    routes, the region trims, and the overlap analysis all reduce to it.
    """
    if len(a_starts) == 0 or len(b_starts) == 0:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    first = np.searchsorted(b_stops, a_starts, side="right")
    last = np.searchsorted(b_starts, a_stops, side="left")
    counts = last - first
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    a_idx = np.repeat(np.arange(len(a_starts), dtype=np.int64), counts)
    b_idx = _ranges(first, counts)
    lo = np.maximum(a_starts[a_idx], b_starts[b_idx])
    hi = np.minimum(a_stops[a_idx], b_stops[b_idx])
    nonempty = lo < hi
    if not nonempty.all():
        a_idx, b_idx, lo, hi = (
            a_idx[nonempty], b_idx[nonempty], lo[nonempty], hi[nonempty]
        )
    return a_idx, b_idx, lo, hi


def _intersect_arrays(
    a_starts: np.ndarray,
    a_stops: np.ndarray,
    b_starts: np.ndarray,
    b_stops: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Intersection of two normalised interval arrays (already normalised)."""
    _, _, lo, hi = clip_many(a_starts, a_stops, b_starts, b_stops)
    return lo, hi


def _complement_arrays(
    starts: np.ndarray, stops: np.ndarray, hull_stop: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaps of a normalised interval array within ``[0, hull_stop)``."""
    comp_starts = np.concatenate(([0], stops))
    comp_stops = np.concatenate((starts, [hull_stop]))
    keep = comp_stops > comp_starts
    return comp_starts[keep], comp_stops[keep]


def _subtract_arrays(
    a_starts: np.ndarray,
    a_stops: np.ndarray,
    b_starts: np.ndarray,
    b_stops: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Subtraction of normalised interval arrays: intersect with b's gaps."""
    if len(a_starts) == 0 or len(b_starts) == 0:
        return a_starts, a_stops
    comp = _complement_arrays(b_starts, b_stops, int(a_stops[-1]))
    return _intersect_arrays(a_starts, a_stops, *comp)


def clip_sorted_runs(
    starts: Sequence[int],
    stops: Sequence[int],
    qstart: int,
    qstop: int,
) -> Iterator[Tuple[int, int, int]]:
    """Clip the query range ``[qstart, qstop)`` against sorted, disjoint runs.

    ``starts``/``stops`` describe runs ``[starts[i], stops[i])`` in ascending
    file order.  Yields ``(lo, hi, i)`` for every non-empty intersection of
    the query with run ``i``, found by bisection.  The library routes with
    the batch form, :func:`clip_many`; this scalar form is the definition
    the tests pin :func:`clip_many` against.
    """
    idx = max(bisect_right(starts, qstart) - 1, 0)
    n = len(starts)
    while idx < n:
        start = starts[idx]
        if start >= qstop:
            break
        lo = max(qstart, start)
        hi = min(qstop, stops[idx])
        if lo < hi:
            yield lo, hi, idx
        idx += 1


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open byte range ``[start, stop)``.

    ``start`` and ``stop`` are non-negative integers with ``start <= stop``.
    Empty intervals (``start == stop``) are permitted as values but are
    dropped when building an :class:`IntervalSet`.
    """

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < 0:
            raise ValueError(f"negative offsets not allowed: {self!r}")
        if self.stop < self.start:
            raise ValueError(f"stop < start in {self!r}")

    # -- basic properties -------------------------------------------------

    @property
    def length(self) -> int:
        """Number of bytes covered by the interval."""
        return self.stop - self.start

    def is_empty(self) -> bool:
        """True when the interval covers no bytes."""
        return self.stop == self.start

    # -- relations ---------------------------------------------------------

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one byte."""
        return self.start < other.stop and other.start < self.stop

    def touches(self, other: "Interval") -> bool:
        """True when the intervals overlap or are exactly adjacent."""
        return self.start <= other.stop and other.start <= self.stop

    def contains_offset(self, offset: int) -> bool:
        """True when ``offset`` falls inside the interval."""
        return self.start <= offset < self.stop

    def contains(self, other: "Interval") -> bool:
        """True when ``other`` is fully inside this interval."""
        if other.is_empty():
            return self.start <= other.start <= self.stop
        return self.start <= other.start and other.stop <= self.stop

    # -- operations ---------------------------------------------------------

    def intersection(self, other: "Interval") -> "Interval":
        """The overlapping sub-range (possibly empty, anchored at ``start``)."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi < lo:
            return Interval(lo, lo)
        return Interval(lo, hi)

    def subtract(self, other: "Interval") -> Tuple["Interval", ...]:
        """Bytes of ``self`` not covered by ``other`` (0, 1 or 2 pieces)."""
        if not self.overlaps(other):
            return (self,) if not self.is_empty() else ()
        pieces: List[Interval] = []
        if self.start < other.start:
            pieces.append(Interval(self.start, other.start))
        if other.stop < self.stop:
            pieces.append(Interval(other.stop, self.stop))
        return tuple(pieces)

    def shifted(self, delta: int) -> "Interval":
        """The interval translated by ``delta`` bytes."""
        return Interval(self.start + delta, self.stop + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval({self.start}, {self.stop})"


class IntervalSet:
    """An immutable, normalised set of disjoint byte intervals.

    The constructor accepts any iterable of :class:`Interval` (or
    ``(start, stop)`` pairs); the result is sorted, with empty intervals
    dropped and overlapping/adjacent intervals coalesced.

    Storage is a pair of flat ``int64`` arrays (:attr:`starts` /
    :attr:`stops`) so the set algebra runs as numpy batch operations; the
    tuple-of-:class:`Interval` view (:attr:`intervals`) is materialised
    lazily for callers that iterate.
    """

    __slots__ = ("_starts", "_stops", "_tuple")

    def __init__(self, intervals: Iterable["Interval | Tuple[int, int]"] = ()) -> None:
        pairs: List[Tuple[int, int]] = []
        for item in intervals:
            if isinstance(item, Interval):
                pairs.append((item.start, item.stop))
            else:
                start, stop = item
                pairs.append((int(start), int(stop)))
        if len(pairs) < _SMALL_N:
            self._init_small(pairs)
        else:
            starts = np.fromiter(
                (p[0] for p in pairs), dtype=np.int64, count=len(pairs)
            )
            stops = np.fromiter(
                (p[1] for p in pairs), dtype=np.int64, count=len(pairs)
            )
            self._init_arrays(starts, stops)

    def _init_small(self, pairs: List[Tuple[int, int]]) -> None:
        for start, stop in pairs:
            self._validate(start, stop)
        merged = py_normalise(pairs)
        self._starts = np.fromiter(
            (p[0] for p in merged), dtype=np.int64, count=len(merged)
        )
        self._stops = np.fromiter(
            (p[1] for p in merged), dtype=np.int64, count=len(merged)
        )
        self._tuple = None

    def _init_arrays(self, starts: np.ndarray, stops: np.ndarray) -> None:
        if len(starts) and (starts.min() < 0 or stops.min() < 0):
            bad = int(np.flatnonzero((starts < 0) | (stops < 0))[0])
            raise ValueError(
                "negative offsets not allowed: "
                f"Interval({int(starts[bad])}, {int(stops[bad])})"
            )
        if len(starts) and (stops < starts).any():
            bad = int(np.flatnonzero(stops < starts)[0])
            raise ValueError(
                f"stop < start in Interval({int(starts[bad])}, {int(stops[bad])})"
            )
        self._starts, self._stops = _normalise_arrays(starts, stops)
        self._tuple = None

    @staticmethod
    def _validate(start: int, stop: int) -> None:
        if start < 0 or stop < 0:
            raise ValueError(
                f"negative offsets not allowed: Interval({start}, {stop})"
            )
        if stop < start:
            raise ValueError(f"stop < start in Interval({start}, {stop})")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_normalised(
        cls, starts: np.ndarray, stops: np.ndarray
    ) -> "IntervalSet":
        """Wrap already-normalised arrays without copying or re-sorting."""
        out = cls.__new__(cls)
        out._starts = starts
        out._stops = stops
        out._tuple = None
        return out

    @classmethod
    def from_arrays(cls, starts, stops) -> "IntervalSet":
        """Build from parallel start/stop arrays (any order, validated)."""
        out = cls.__new__(cls)
        out._init_arrays(
            np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
        )
        return out

    @classmethod
    def from_segments(cls, segments: Iterable[Tuple[int, int]]) -> "IntervalSet":
        """Build from ``(offset, length)`` pairs (the flattened-datatype form)."""
        return cls((off, off + length) for off, length in segments)

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty interval set."""
        return cls._from_normalised(_EMPTY, _EMPTY)

    @classmethod
    def single(cls, start: int, stop: int) -> "IntervalSet":
        """An interval set holding one range ``[start, stop)``."""
        cls._validate(int(start), int(stop))
        if stop <= start:
            return cls.empty()
        return cls._from_normalised(
            np.array([start], dtype=np.int64), np.array([stop], dtype=np.int64)
        )

    # -- inspection ----------------------------------------------------------

    @property
    def starts(self) -> np.ndarray:
        """Sorted interval start offsets (do not mutate)."""
        return self._starts

    @property
    def stops(self) -> np.ndarray:
        """Sorted interval stop offsets (do not mutate)."""
        return self._stops

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The normalised, sorted, disjoint intervals."""
        if self._tuple is None:
            self._tuple = tuple(
                Interval(int(s), int(e))
                for s, e in zip(self._starts.tolist(), self._stops.tolist())
            )
        return self._tuple

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return len(self._starts) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            len(self._starts) == len(other._starts)
            and bool(np.array_equal(self._starts, other._starts))
            and bool(np.array_equal(self._stops, other._stops))
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._stops.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"[{s},{e})" for s, e in zip(self._starts.tolist(), self._stops.tolist())
        )
        return f"IntervalSet({inner})"

    @property
    def total_bytes(self) -> int:
        """Total number of bytes covered."""
        return int((self._stops - self._starts).sum())

    def is_empty(self) -> bool:
        """True when no bytes are covered."""
        return len(self._starts) == 0

    @property
    def min_offset(self) -> Optional[int]:
        """Lowest covered offset, or ``None`` when empty."""
        return int(self._starts[0]) if len(self._starts) else None

    @property
    def max_offset(self) -> Optional[int]:
        """One past the highest covered offset, or ``None`` when empty."""
        return int(self._stops[-1]) if len(self._stops) else None

    def extent(self) -> Optional[Interval]:
        """The hull ``[min_offset, max_offset)`` — what the locking strategy locks."""
        if not len(self._starts):
            return None
        return Interval(int(self._starts[0]), int(self._stops[-1]))

    def contains_offset(self, offset: int) -> bool:
        """True when ``offset`` is covered by some interval (binary search)."""
        idx = int(np.searchsorted(self._starts, offset, side="right")) - 1
        return idx >= 0 and offset < int(self._stops[idx])

    def covers(self, other: "IntervalSet") -> bool:
        """True when every byte of ``other`` is also in ``self``."""
        return other.subtract(self).is_empty()

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Bytes in either set."""
        if not len(self._starts):
            return other
        if not len(other._starts):
            return self
        n = len(self._starts) + len(other._starts)
        if n < _SMALL_N:
            merged = py_union(self._pairs(), other._pairs())
            return IntervalSet(merged)
        return IntervalSet._from_normalised(
            *_normalise_arrays(
                np.concatenate((self._starts, other._starts)),
                np.concatenate((self._stops, other._stops)),
            )
        )

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Bytes present in both sets."""
        if not len(self._starts) or not len(other._starts):
            return IntervalSet.empty()
        if len(self._starts) + len(other._starts) < _SMALL_N:
            return IntervalSet(py_intersection(self._pairs(), other._pairs()))
        return IntervalSet._from_normalised(
            *_intersect_arrays(self._starts, self._stops, other._starts, other._stops)
        )

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """Bytes in ``self`` but not in ``other``."""
        if not len(other._starts) or not len(self._starts):
            return self
        if len(self._starts) + len(other._starts) < _SMALL_N:
            return IntervalSet(py_subtract(self._pairs(), other._pairs()))
        return IntervalSet._from_normalised(
            *_subtract_arrays(self._starts, self._stops, other._starts, other._stops)
        )

    def overlaps(self, other: "IntervalSet") -> bool:
        """True when the two sets share at least one byte."""
        a, b = self, other
        if not len(a._starts) or not len(b._starts):
            return False
        if len(a._starts) > len(b._starts):
            a, b = b, a
        first = np.searchsorted(b._stops, a._starts, side="right")
        last = np.searchsorted(b._starts, a._stops, side="left")
        return bool((last > first).any())

    def shifted(self, delta: int) -> "IntervalSet":
        """The whole set translated by ``delta`` bytes."""
        if len(self._starts) and int(self._starts[0]) + delta < 0:
            raise ValueError(
                f"negative offsets not allowed: shift by {delta} moves "
                f"{int(self._starts[0])} below zero"
            )
        return IntervalSet._from_normalised(self._starts + delta, self._stops + delta)

    def clipped(self, lo: int, hi: int) -> "IntervalSet":
        """Bytes of the set falling inside ``[lo, hi)``."""
        return self.intersection(IntervalSet.single(lo, hi))

    def as_segments(self) -> List[Tuple[int, int]]:
        """Return ``(offset, length)`` pairs (inverse of :meth:`from_segments`)."""
        return list(
            zip(self._starts.tolist(), (self._stops - self._starts).tolist())
        )

    def _pairs(self) -> List[Tuple[int, int]]:
        """The set as plain ``(start, stop)`` pairs (for the Python kernels)."""
        return list(zip(self._starts.tolist(), self._stops.tolist()))


def merge_interval_sets(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Union of many interval sets (one concatenate + one normalise)."""
    arrays = [(s._starts, s._stops) for s in sets if len(s._starts)]
    if not arrays:
        return IntervalSet.empty()
    if len(arrays) == 1:
        return IntervalSet._from_normalised(*arrays[0])
    return IntervalSet._from_normalised(
        *_normalise_arrays(
            np.concatenate([a for a, _ in arrays]),
            np.concatenate([b for _, b in arrays]),
        )
    )
