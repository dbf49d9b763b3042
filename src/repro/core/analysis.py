"""Closed-form scalability analysis (Section 3.4 of the paper).

The paper's Section 3.4 argues, without running code, why the three
strategies scale the way they do for the column-wise partitioning case:

* **file locking** locks ``M*N - (N/P - R)*M`` bytes — nearly the whole file —
  per process, so the P writes serialise;
* **graph colouring** pays an overlap-matrix negotiation (one allgather of
  file-view summaries) and splits the I/O into a small number of phases while
  writing the full (overlapping) volume;
* **rank ordering** pays the negotiation with exact byte ranges, then writes
  strictly less data (the overlaps are written exactly once) with full
  parallelism.

This module provides those formulas so the benchmarks can print the
analytical expectations next to the measured virtual-time results, and so the
tests can check the measured behaviour against the model's ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .overlap import overlapped_bytes_total
from .rank_ordering import resolve_by_rank
from .regions import FileRegionSet

__all__ = [
    "ColumnWiseCase",
    "StrategyEstimate",
    "estimate_column_wise",
    "analyze_regions",
    "pattern_features",
]


@dataclass(frozen=True)
class ColumnWiseCase:
    """Parameters of the paper's column-wise partitioning workload.

    A global ``M x N`` array of ``itemsize``-byte elements, partitioned
    column-wise over ``P`` processes, with ``R`` overlapped columns between
    neighbouring processes.
    """

    M: int
    N: int
    P: int
    R: int
    itemsize: int = 1

    def __post_init__(self) -> None:
        if self.M <= 0 or self.N <= 0 or self.P <= 0 or self.itemsize <= 0:
            raise ValueError("M, N, P and itemsize must be positive")
        if self.R < 0:
            raise ValueError("R must be non-negative")
        if self.P > 1 and self.N // self.P < self.R:
            raise ValueError("overlap R must not exceed the per-process column count")

    @property
    def file_bytes(self) -> int:
        """Size of the shared file."""
        return self.M * self.N * self.itemsize

    @property
    def locked_bytes_per_process(self) -> int:
        """Bytes covered by the locking strategy's extent lock (interior rank).

        The first and last row of the process's view are ``N`` columns apart,
        so the extent spans nearly the whole file: ``M*N - (N - width)`` columns
        worth of bytes, where ``width = N/P + R``.
        """
        if self.P == 1:
            return self.file_bytes
        width_cols = self.N // self.P + self.R
        # extent = (M - 1) rows * N columns + width columns
        return ((self.M - 1) * self.N + width_cols) * self.itemsize

    @property
    def overlapped_bytes(self) -> int:
        """Total bytes written by more than one process."""
        if self.P == 1:
            return 0
        return (self.P - 1) * self.R * self.M * self.itemsize

    @property
    def total_requested_bytes(self) -> int:
        """Total bytes requested across all processes (overlaps counted twice)."""
        return self.file_bytes + self.overlapped_bytes


@dataclass(frozen=True)
class StrategyEstimate:
    """Analytical expectations for one strategy on one workload."""

    strategy: str
    bytes_transferred: int
    parallel_steps: int
    degree_of_parallelism: float
    locked_bytes: int = 0

    def relative_time(self, per_byte: float = 1.0) -> float:
        """A unitless time estimate: transferred volume divided by parallelism,
        times the number of serial steps implied by the strategy."""
        if self.degree_of_parallelism <= 0:
            return float("inf")
        return self.bytes_transferred * per_byte / self.degree_of_parallelism


def estimate_column_wise(case: ColumnWiseCase) -> Dict[str, StrategyEstimate]:
    """Section 3.4 style estimates for the three strategies."""
    P = case.P
    estimates: Dict[str, StrategyEstimate] = {}
    # Locking: everyone writes its full view, one process at a time.
    estimates["locking"] = StrategyEstimate(
        strategy="locking",
        bytes_transferred=case.total_requested_bytes,
        parallel_steps=P,
        degree_of_parallelism=1.0,
        locked_bytes=case.locked_bytes_per_process,
    )
    # Graph colouring: full volume, two phases (even/odd), P/2-way parallel.
    phases = 1 if P == 1 else 2
    estimates["graph-coloring"] = StrategyEstimate(
        strategy="graph-coloring",
        bytes_transferred=case.total_requested_bytes,
        parallel_steps=phases,
        degree_of_parallelism=max(P / phases, 1.0),
    )
    # Rank ordering: overlaps written once, one fully parallel phase.
    estimates["rank-ordering"] = StrategyEstimate(
        strategy="rank-ordering",
        bytes_transferred=case.file_bytes,
        parallel_steps=1,
        degree_of_parallelism=float(P),
    )
    return estimates


def analyze_regions(regions: Sequence[FileRegionSet]) -> Dict[str, float]:
    """Workload-agnostic analysis of a set of file views.

    Returns the quantities Section 3.4 talks about, computed exactly from the
    views: total requested bytes, overlapped bytes, bytes remaining after
    rank-ordering trims, and the average fraction of the file each process's
    extent lock would cover.
    """
    total_requested = sum(r.total_bytes for r in regions)
    overlapped = overlapped_bytes_total(regions)
    resolution = resolve_by_rank(regions)
    remaining = resolution.total_remaining
    file_end = max((r.coverage.max_offset or 0) for r in regions) if regions else 0
    if file_end > 0:
        lock_fraction = sum(r.extent_bytes() for r in regions) / (len(regions) * file_end)
    else:
        lock_fraction = 0.0
    return {
        "total_requested_bytes": float(total_requested),
        "overlapped_bytes": float(overlapped),
        "rank_ordering_bytes": float(remaining),
        "surrendered_bytes": float(resolution.total_surrendered),
        "mean_extent_lock_fraction": float(lock_fraction),
    }


def _uniform_stride(regions: Sequence[FileRegionSet]) -> int:
    """The common inter-segment stride over all multi-segment views, or 0.

    A view is *uniformly strided* when all its segments have the same length
    and consecutive segment offsets differ by one constant.  The stride is
    only meaningful for the classifier when every non-empty view agrees on
    it (the paper's column-wise and block-block partitionings both do: the
    stride is the array row length ``N``).
    """
    stride = 0
    for region in regions:
        segs = region.segments
        if len(segs) < 2:
            if segs:
                return 0  # a single-segment view mixed in: not strided
            continue
        lengths = {length for _, length in segs}
        gaps = {segs[i + 1][0] - segs[i][0] for i in range(len(segs) - 1)}
        if len(lengths) != 1 or len(gaps) != 1:
            return 0
        gap = gaps.pop()
        if gap <= 0 or (stride and gap != stride):
            return 0
        stride = gap
    return stride


def pattern_features(regions: Sequence[FileRegionSet]) -> Dict[str, float]:
    """Access-pattern features of a set of file views, for the autotuner.

    Feeds :func:`repro.core.autotune.classify_pattern`.  All quantities are
    computed from the already-exchanged views — no extra communication — and
    reuse the existing sweep-line overlap analysis:

    ``max_segments`` / ``total_bytes`` / ``extent_bytes``
        Shape of the request: the worst per-rank fragmentation, the summed
        requested volume, and the hull ``[min start, max stop)`` of all views.
    ``stride``
        The common inter-segment stride when every view is uniformly strided
        (0 otherwise) — column-wise and block-block partitionings of an
        ``M x N`` array both report the row length ``N`` here.
    ``interleave``
        How many ranks interleave within one stride period: ``P`` divided by
        the number of distinct period-aligned start groups.  A column-wise
        partitioning interleaves all ``P`` ranks in every file row
        (``interleave == P``); a ``Pr x Pc`` block-block partitioning
        interleaves only the ``Pc`` ranks of one row-block.
    ``overlapped_bytes``
        Bytes touched by more than one rank (sweep-line depth >= 2).
    """
    nonempty = [r for r in regions if not r.is_empty()]
    if not nonempty:
        return {
            "nprocs": float(len(regions)),
            "max_segments": 0.0,
            "total_bytes": 0.0,
            "extent_bytes": 0.0,
            "stride": 0.0,
            "interleave": 1.0,
            "overlapped_bytes": 0.0,
        }
    start = min(int(r.coverage.starts[0]) for r in nonempty)
    stop = max(int(r.coverage.stops[-1]) for r in nonempty)
    stride = _uniform_stride(nonempty)
    if stride:
        groups = {(int(r.coverage.starts[0]) - start) // stride for r in nonempty}
        interleave = len(nonempty) / max(1, len(groups))
    else:
        interleave = 1.0
    return {
        "nprocs": float(len(regions)),
        "max_segments": float(max(r.num_segments for r in nonempty)),
        "total_bytes": float(sum(r.total_bytes for r in nonempty)),
        "extent_bytes": float(stop - start),
        "stride": float(stride),
        "interleave": float(interleave),
        "overlapped_bytes": float(overlapped_bytes_total(regions)),
    }
