"""Overlap analysis between per-process file views: one kernel.

Every overlap question the library asks is *which ranks cover each byte?*,
and :func:`coverage_runs` answers it once: it cuts the file at every view
boundary into elementary runs, each covered by a fixed set of ranks, and
lists those ranks as a CSR.  Everything else is read off its output:

* the **graph-coloring** strategy's boolean overlap matrix ``W`` (Figure 5),
  set for every pair of ranks that share a run (:func:`build_overlap_matrix`);
* the exact byte ranges each overlapping pair shares
  (:func:`pairwise_overlap_regions`);
* the bytes accessed by more than one process, the runs of depth two or
  more (:func:`overlapped_bytes_total`);
* the **process-rank ordering** winner of every run (Figure 7), and from it
  each rank's kept bytes and surrendered count
  (:mod:`repro.core.rank_ordering`);
* the MPI-atomicity verdicts of :mod:`repro.verify.atomicity`, decided run
  by run.

In the distributed implementation each rank contributes its own flattened
view through ``allgather`` and then runs these routines locally — exactly
the negotiation the paper describes (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .intervals import IntervalSet, _ranges
from .regions import FileRegionSet

__all__ = [
    "OverlapMatrix",
    "build_overlap_matrix",
    "pairwise_overlap_regions",
    "overlapped_bytes_total",
    "coverage_runs",
]


@dataclass(frozen=True)
class OverlapMatrix:
    """Boolean overlap matrix ``W`` over ``nprocs`` processes.

    ``matrix[i, j]`` is ``True`` when the file views of processes *i* and *j*
    (``i != j``) share at least one byte.  The matrix is symmetric with a
    ``False`` diagonal, as in Figure 5 of the paper.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("overlap matrix must be square")
        if m.dtype != np.bool_:
            raise ValueError("overlap matrix must be boolean")
        if np.any(np.diag(m)):
            raise ValueError("overlap matrix diagonal must be False")
        if not np.array_equal(m, m.T):
            raise ValueError("overlap matrix must be symmetric")

    @classmethod
    def _symmetric(cls, matrix: np.ndarray) -> "OverlapMatrix":
        """A matrix symmetric with a ``False`` diagonal by construction,
        spared the O(P²) checks."""
        built = object.__new__(cls)
        object.__setattr__(built, "matrix", matrix)
        return built

    @property
    def nprocs(self) -> int:
        """Number of processes the matrix describes."""
        return self.matrix.shape[0]

    def neighbors(self, rank: int) -> List[int]:
        """Ranks whose views overlap ``rank``'s view."""
        return [int(j) for j in np.nonzero(self.matrix[rank])[0]]

    def degree(self, rank: int) -> int:
        """Number of overlapping neighbours of ``rank``."""
        return int(self.matrix[rank].sum())

    def max_degree(self) -> int:
        """Largest neighbour count over all ranks (0 for an empty graph)."""
        if self.nprocs == 0:
            return 0
        return int(self.matrix.sum(axis=1).max())

    def has_any_overlap(self) -> bool:
        """True when at least one pair of processes overlaps."""
        return bool(self.matrix.any())

    def edges(self) -> List[Tuple[int, int]]:
        """All overlapping pairs ``(i, j)`` with ``i < j``."""
        out: List[Tuple[int, int]] = []
        n = self.nprocs
        for i in range(n):
            for j in range(i + 1, n):
                if self.matrix[i, j]:
                    out.append((i, j))
        return out

    def as_int_matrix(self) -> np.ndarray:
        """The matrix as 0/1 integers (the form printed in Figure 6)."""
        return self.matrix.astype(np.int8)


def _flatten(
    regions: Sequence[FileRegionSet],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All coverage intervals of all ranks as flat ``(starts, stops, ranks)``
    arrays, rank by rank: one pass over the regions, then one ``concatenate``
    per array and one ``repeat`` (no sort)."""
    starts, stops, ranks, counts = [], [], [], []
    for region in regions:
        cov = region.coverage
        n = len(cov.starts)
        if n:
            starts.append(cov.starts)
            stops.append(cov.stops)
            ranks.append(region.rank)
            counts.append(n)
    if not counts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.concatenate(starts),
        np.concatenate(stops),
        np.repeat(np.array(ranks, dtype=np.int64), counts),
    )


def coverage_runs(
    regions: Sequence[FileRegionSet],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut the file at every view boundary: the coverage-run kernel.

    Returns ``(bounds, depth, ptr, ranks)``.  ``bounds`` holds the sorted
    distinct interval end points; elementary run ``i`` is
    ``[bounds[i], bounds[i + 1])``, the maximal range over which the set of
    covering ranks is constant.  ``depth[i]`` is the size of that set (0 for a
    gap between views) and ``ranks[ptr[i]:ptr[i + 1]]`` lists it, ascending —
    a CSR over the runs.  This is the granularity at which MPI atomicity is
    decided, and at which rank ordering picks a winner.
    """
    starts, stops, owner = _flatten(regions)
    bounds, depth, ptr, entries = _interval_runs(starts, stops, owner)
    return bounds, depth, ptr, owner[entries]


def _interval_runs(
    starts: np.ndarray, stops: np.ndarray, owner: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`coverage_runs` over intervals ``[starts[k], stops[k])`` owned
    by ``owner[k]``, its CSR listing the covering *intervals* (ascending by
    owner): ``O(E log E + R log R)``, no Python loop over intervals."""
    bounds = np.unique(np.concatenate((starts, stops)))
    first = np.searchsorted(bounds, starts)
    counts = np.searchsorted(bounds, stops) - first
    run = _ranges(first, counts)
    entries = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    order = np.lexsort((owner[entries], run))
    depth = np.bincount(run, minlength=max(len(bounds) - 1, 0))
    ptr = np.concatenate(([0], np.cumsum(depth)))
    return bounds, depth, ptr, entries[order]


def _check_rank_order(regions: Sequence[FileRegionSet]) -> None:
    """Raise unless ``regions[i]`` is the view of rank ``i``."""
    for rank, region in enumerate(regions):
        if region.rank != rank:
            raise ValueError(
                f"regions must be ordered by rank: index {rank} holds rank {region.rank}"
            )


def _shared_runs(
    regions: Sequence[FileRegionSet],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(bounds, run, low, high)``: one row per pair of ranks ``low < high``
    that both cover elementary run ``run`` of :func:`coverage_runs`.

    A run's covering ranks are listed ascending, so each CSR entry pairs with
    the entries after it in its run — one index range per entry,
    ``d (d - 1) / 2`` pairs for a run of depth ``d``, built without a loop.
    """
    bounds, depth, ptr, ranks = coverage_runs(regions)
    entry = np.arange(len(ranks), dtype=np.int64)
    run = np.repeat(np.arange(len(depth), dtype=np.int64), depth)
    partners = ptr[1:][run] - entry - 1
    first = np.repeat(entry, partners)
    return bounds, run[first], ranks[first], ranks[_ranges(entry + 1, partners)]


def build_overlap_matrix(regions: Sequence[FileRegionSet]) -> OverlapMatrix:
    """Construct the boolean overlap matrix ``W`` from all processes' views.

    ``regions[i]`` must be the view of rank ``i``.  ``W[i, j]`` is set for
    every pair of ranks sharing a coverage run, so the cost is that of
    :func:`coverage_runs` plus one entry per (run, pair) — near-linear in the
    view intervals for the paper's partitioned workloads, where each byte is
    covered by a handful of ranks.
    """
    _check_rank_order(regions)
    n = len(regions)
    w = np.zeros((n, n), dtype=np.bool_)
    _, _, low, high = _shared_runs(regions)
    w[low, high] = True
    w[high, low] = True
    return OverlapMatrix._symmetric(w)


def pairwise_overlap_regions(
    regions: Sequence[FileRegionSet],
) -> Dict[Tuple[int, int], IntervalSet]:
    """Exact overlapped byte ranges for every overlapping pair ``(i, j)``, i<j.

    Unlike the colouring strategy's single bit per pair, these are the byte
    ranges the two ranks both access: the runs the pair shares, grouped by
    pair with one ``lexsort`` — no pass over non-overlapping pairs.
    """
    bounds, run, low, high = _shared_runs(regions)
    key = low * len(regions) + high
    order = np.lexsort((run, key))
    key, run = key[order], run[order]
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    out: Dict[Tuple[int, int], IntervalSet] = {}
    for head, tail in zip(heads.tolist(), np.append(heads[1:], len(key)).tolist()):
        pair = divmod(int(key[head]), len(regions))
        out[pair] = IntervalSet.from_arrays(bounds[run[head:tail]], bounds[run[head:tail] + 1])
    return out


def overlapped_bytes_total(regions: Sequence[FileRegionSet]) -> int:
    """Total number of file bytes accessed by more than one process: the
    summed length of the coverage runs of depth two or more."""
    bounds, depth, _, _ = coverage_runs(regions)
    return int(np.diff(bounds)[depth >= 2].sum())
