"""Overlap analysis between per-process file views.

The handshaking strategies of the paper (Section 3.3) both begin by having
every process learn which other processes its file view overlaps with:

* the **graph-coloring** strategy needs only a boolean overlap matrix ``W``
  (``W[i][j] = 1`` when process *i* and *j* access at least one common byte,
  Figure 5);
* the **process-rank ordering** strategy needs the *exact* overlapped byte
  ranges so each process can trim them from its own view (Figure 7).

Both are computed here from :class:`~repro.core.regions.FileRegionSet`
objects.  In the distributed implementation
(:class:`repro.core.strategies.GraphColoringStrategy` and friends) each rank
contributes its own flattened view through ``allgather`` and then runs these
routines locally — exactly the negotiation the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .intervals import IntervalSet, _ranges, merge_interval_sets
from .regions import FileRegionSet

__all__ = [
    "OverlapMatrix",
    "build_overlap_matrix",
    "pairwise_overlap_regions",
    "overlapped_bytes_total",
    "coverage_runs",
    "conflict_free_groups_are_disjoint",
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


def _flatten_sorted(
    regions: Sequence[FileRegionSet],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_flatten`, sorted by start (each rank's own coverage is already
    normalised, so the only sort is the global one)."""
    starts, stops, ranks = _flatten(regions)
    order = np.lexsort((stops, starts))
    return starts[order], stops[order], ranks[order]


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

    One ``unique`` over the ``2E`` end points, one bisection per interval end,
    and one ``lexsort`` of the ``R`` emitted (run, rank) entries:
    ``O(E log E + R log R)`` with no Python loop over intervals.
    """
    starts, stops, owner = _flatten(regions)
    bounds = np.unique(np.concatenate((starts, stops)))
    first = np.searchsorted(bounds, starts)
    counts = np.searchsorted(bounds, stops) - first
    run = _ranges(first, counts)
    ranks = np.repeat(owner, counts)
    order = np.lexsort((ranks, run))
    depth = np.bincount(run, minlength=max(len(bounds) - 1, 0))
    ptr = np.concatenate(([0], np.cumsum(depth)))
    return bounds, depth, ptr, ranks[order]


def _overlapping_interval_pairs(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of overlapping intervals.

    ``starts`` must be ascending.  Because interval ``i`` overlaps a
    later-starting interval ``j`` exactly when ``starts[j] < stops[i]``, the
    overlap partners of ``i`` form the contiguous index run
    ``(i, searchsorted(starts, stops[i]))`` — so the enumeration visits only
    the actually-overlapping pairs, never the full ``O(E^2)`` cross product.
    """
    n = len(starts)
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    reach = np.searchsorted(starts, stops, side="left")
    counts = reach - np.arange(1, n + 1, dtype=np.int64)
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    i_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    bases = np.cumsum(counts) - counts
    j_idx = np.arange(total, dtype=np.int64) - bases[i_idx] + i_idx + 1
    return i_idx, j_idx


def build_overlap_matrix(regions: Sequence[FileRegionSet]) -> OverlapMatrix:
    """Construct the boolean overlap matrix ``W`` from all processes' views.

    ``regions[i]`` must be the view of rank ``i``.  One global sort of the
    file-ordered intervals followed by a bisection sweep enumerates exactly
    the overlapping interval pairs, so the cost is ``O(E log E + K)`` for
    ``E`` total intervals and ``K`` overlapping pairs — for the paper's
    partitioned workloads (each byte touched by a handful of ranks) this is
    near-linear in ``E``, which is what makes colouring feasible at tens of
    thousands of ranks.
    """
    n = len(regions)
    for rank, region in enumerate(regions):
        if region.rank != rank:
            raise ValueError(
                f"regions must be ordered by rank: index {rank} holds rank {region.rank}"
            )
    w = np.zeros((n, n), dtype=np.bool_)
    starts, stops, ranks = _flatten_sorted(regions)
    i_idx, j_idx = _overlapping_interval_pairs(starts, stops)
    if len(i_idx):
        ri, rj = ranks[i_idx], ranks[j_idx]
        distinct = ri != rj
        ri, rj = ri[distinct], rj[distinct]
        w[ri, rj] = True
        w[rj, ri] = True
    return OverlapMatrix(w)


def pairwise_overlap_regions(
    regions: Sequence[FileRegionSet],
) -> Dict[Tuple[int, int], IntervalSet]:
    """Exact overlapped byte ranges for every overlapping pair ``(i, j)``, i<j.

    This is the information the process-rank ordering strategy needs: unlike
    the coloring strategy's single bit per pair, rank ordering must know the
    byte ranges so lower ranks can surrender exactly those bytes.  The same
    bisection sweep as :func:`build_overlap_matrix` enumerates only the
    actually-overlapping interval pairs, then one argsort groups the clipped
    pieces by process pair — no ``O(P^2)`` pass over non-overlapping pairs.
    """
    out: Dict[Tuple[int, int], IntervalSet] = {}
    n = len(regions)
    starts, stops, ranks = _flatten_sorted(regions)
    i_idx, j_idx = _overlapping_interval_pairs(starts, stops)
    if not len(i_idx):
        return out
    ri, rj = ranks[i_idx], ranks[j_idx]
    distinct = ri != rj
    if not distinct.any():
        return out
    i_idx, j_idx, ri, rj = i_idx[distinct], j_idx[distinct], ri[distinct], rj[distinct]
    # Clip each overlapping pair: starts are ascending, so the later-starting
    # interval's start is the overlap's low edge.
    lo = starts[j_idx]
    hi = np.minimum(stops[i_idx], stops[j_idx])
    key = np.minimum(ri, rj) * n + np.maximum(ri, rj)
    order = np.lexsort((lo, key))
    key, lo, hi = key[order], lo[order], hi[order]
    heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    bounds = np.append(heads, len(key))
    for h, head in enumerate(heads):
        tail = bounds[h + 1]
        pair = int(key[head])
        out[(pair // n, pair % n)] = IntervalSet.from_arrays(
            lo[head:tail], hi[head:tail]
        )
    return out


def overlapped_bytes_total(regions: Sequence[FileRegionSet]) -> int:
    """Total number of file bytes written by more than one process.

    One coverage-depth sweep over all intervals (each process's own view is
    overlap-free by construction, so depth >= 2 at a byte means two distinct
    processes), costing ``O(E log E)`` for ``E`` total intervals instead of
    a pairwise intersection over all process pairs.
    """
    starts, stops, _ = _flatten_sorted(regions)
    if not len(starts):
        return 0
    positions = np.concatenate((starts, stops))
    deltas = np.concatenate(
        (np.ones(len(starts), dtype=np.int64), -np.ones(len(stops), dtype=np.int64))
    )
    order = np.lexsort((deltas, positions))
    positions, deltas = positions[order], deltas[order]
    depth = np.cumsum(deltas)
    covered = (positions[1:] - positions[:-1])[depth[:-1] >= 2]
    return int(covered.sum())


def conflict_free_groups_are_disjoint(
    regions: Sequence[FileRegionSet], groups: Sequence[Sequence[int]]
) -> bool:
    """Check that no two ranks placed in the same group overlap.

    Used to validate graph-coloring output: every colour class must be an
    independent set of the overlap graph.
    """
    for group in groups:
        members = list(group)
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                if regions[members[a_idx]].overlaps(regions[members[b_idx]]):
                    return False
    return True
