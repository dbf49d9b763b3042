"""2-D array partitioning patterns with ghost overlap (Figures 1 and 3).

The paper's workloads partition a global ``M x N`` array (row-major on disk)
across ``P`` processes:

* **row-wise** — split along the most significant axis; each process's file
  view is one contiguous file range, overlapping its neighbours by ``R`` rows;
* **column-wise** — split along the least significant axis; each process's
  view is ``M`` non-contiguous file segments (one per row), overlapping its
  neighbours by ``R`` columns.  This is the pattern of the evaluation;
* **block-block** — split along both axes with a ghost border of ``R`` cells,
  the Figure 1 pattern where corner ghost cells are accessed by up to four
  processes.

A ``*_spec`` function returns one rank's ``(sizes, subsizes, starts)``
triple, to feed ``MPI_Type_create_subarray`` exactly as the paper's Figure 4
does.  A ``*_views`` function returns every rank's flattened file segments
(``(offset, length)`` pairs, ready for
:class:`repro.core.regions.FileRegionSet`) in one pass over the ranks,
without building a spec; both flatten through the same row helper.

Overlap convention: each process extends its owned span by ``R/2`` cells on
each interior side, so two neighbouring processes share ``R`` rows/columns,
matching Section 3.1 ("the sub-arrays partitioned in every two processes with
consecutive rank id numbers overlap with each other for a few rows/columns").
Edge processes have ``R/2`` fewer cells than interior ones, as the paper
notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple

__all__ = [
    "SubarraySpec",
    "column_wise_spec",
    "row_wise_spec",
    "block_block_spec",
    "column_wise_views",
    "row_wise_views",
    "block_block_views",
    "spec_to_segments",
    "PATTERN_NAMES",
    "process_grid",
    "views_for_pattern",
]


@dataclass(frozen=True)
class SubarraySpec:
    """The ``MPI_Type_create_subarray`` arguments for one rank's file view."""

    sizes: Tuple[int, int]
    subsizes: Tuple[int, int]
    starts: Tuple[int, int]
    itemsize: int = 1

    @property
    def total_bytes(self) -> int:
        """Bytes covered by the sub-array."""
        return self.subsizes[0] * self.subsizes[1] * self.itemsize

    def segments(self) -> List[Tuple[int, int]]:
        """Flattened ``(offset, length)`` file segments (row-major storage)."""
        return spec_to_segments(self)


def spec_to_segments(spec: SubarraySpec) -> List[Tuple[int, int]]:
    """Flatten a 2-D subarray spec into per-row file segments."""
    (r0, c0), (sm, sn) = spec.starts, spec.subsizes
    return _rows(spec.sizes[1], spec.itemsize, [(r0, r0 + sm)], [(c0, c0 + sn)])[0]


def _rows(
    N: int, item: int, row_spans: Iterable[Tuple[int, int]], col_spans: Iterable[Tuple[int, int]]
) -> List[List[Tuple[int, int]]]:
    """File segments of each block ``[r0, r1) x [c0, c1)`` of a row-major
    array ``N`` elements wide (the blocks' row and column spans are zipped):
    one segment per row, or one in all when the rows are full-width."""
    row, out = N * item, []
    for (r0, r1), (c0, c1) in zip(row_spans, col_spans):
        if r1 - r0 == 0 or c1 - c0 == 0:
            out.append([])
        elif c1 - c0 == N and c0 == 0:
            # Full-width rows collapse to a single contiguous segment.
            out.append([(r0 * row, (r1 - r0) * row)])
        else:
            width = (c1 - c0) * item
            offsets = range((r0 * N + c0) * item, (r1 * N + c0) * item, row)
            out.append([(off, width) for off in offsets])
    return out


def _spans(total: int, parts: int, R: int, indices: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """The (start, stop) span of each block ``index`` when ``total`` cells are
    divided into ``parts`` nearly equal consecutive blocks, extended by R/2
    ghost cells on each interior side."""
    base, extra = divmod(total, parts)
    half = R // 2
    for index in indices:
        start = index * base + min(index, extra)
        stop = start + base + (1 if index < extra else 0)
        lo = start - (half if index > 0 else 0)
        hi = stop + (R - half if index < parts - 1 else 0)
        yield max(lo, 0), min(hi, total)


def column_wise_spec(M: int, N: int, P: int, rank: int, R: int = 0, itemsize: int = 1) -> SubarraySpec:
    """Subarray spec for the column-wise partitioning of Figure 3(b)."""
    _validate(M, N, P, rank, R, itemsize)
    if N // P < R:
        raise ValueError("overlap R must not exceed N/P")
    (start, stop), = _spans(N, P, R, (rank,))
    return SubarraySpec(
        sizes=(M, N), subsizes=(M, stop - start), starts=(0, start), itemsize=itemsize
    )


def row_wise_spec(M: int, N: int, P: int, rank: int, R: int = 0, itemsize: int = 1) -> SubarraySpec:
    """Subarray spec for the row-wise partitioning of Figure 3(a)."""
    _validate(M, N, P, rank, R, itemsize)
    if M // P < R:
        raise ValueError("overlap R must not exceed M/P")
    (start, stop), = _spans(M, P, R, (rank,))
    return SubarraySpec(
        sizes=(M, N), subsizes=(stop - start, N), starts=(start, 0), itemsize=itemsize
    )


def block_block_spec(
    M: int, N: int, Pr: int, Pc: int, rank: int, R: int = 0, itemsize: int = 1
) -> SubarraySpec:
    """Subarray spec for the block-block ghost-cell partitioning of Figure 1.

    Ranks are laid out row-major on a ``Pr x Pc`` process grid; each process's
    view is its owned block extended by ``R/2`` ghost cells towards every
    interior neighbour, so interior edges overlap by ``R`` cells and corner
    ghost regions are accessed by four processes.
    """
    _validate_grid(M, N, Pr, Pc, rank, R, itemsize)
    pr, pc = divmod(rank, Pc)
    (r_start, r_stop), = _spans(M, Pr, R, (pr,))
    (c_start, c_stop), = _spans(N, Pc, R, (pc,))
    return SubarraySpec(
        sizes=(M, N),
        subsizes=(r_stop - r_start, c_stop - c_start),
        starts=(r_start, c_start),
        itemsize=itemsize,
    )


def column_wise_views(M: int, N: int, P: int, R: int = 0, itemsize: int = 1) -> List[List[Tuple[int, int]]]:
    """Flattened file segments of every rank for column-wise partitioning."""
    _validate(M, N, P, 0, R, itemsize)
    if N // P < R:
        raise ValueError("overlap R must not exceed N/P")
    return _rows(N, itemsize, repeat((0, M), P), _spans(N, P, R, range(P)))


def row_wise_views(M: int, N: int, P: int, R: int = 0, itemsize: int = 1) -> List[List[Tuple[int, int]]]:
    """Flattened file segments of every rank for row-wise partitioning."""
    _validate(M, N, P, 0, R, itemsize)
    if M // P < R:
        raise ValueError("overlap R must not exceed M/P")
    return _rows(N, itemsize, _spans(M, P, R, range(P)), repeat((0, N), P))


def block_block_views(
    M: int, N: int, Pr: int, Pc: int, R: int = 0, itemsize: int = 1
) -> List[List[Tuple[int, int]]]:
    """Flattened file segments of every rank for block-block partitioning."""
    _validate_grid(M, N, Pr, Pc, 0, R, itemsize)
    cols = list(_spans(N, Pc, R, range(Pc)))
    rows = (span for span in _spans(M, Pr, R, range(Pr)) for _ in cols)
    return _rows(N, itemsize, rows, cols * Pr)


#: Partitioning patterns the benchmark harness can sweep.
PATTERN_NAMES: Tuple[str, ...] = ("column-wise", "row-wise", "block-block")


def process_grid(P: int) -> Tuple[int, int]:
    """Factor ``P`` into the most square ``Pr x Pc`` process grid (Pr <= Pc)."""
    if P <= 0:
        raise ValueError("P must be positive")
    pr = int(P ** 0.5)
    while P % pr:
        pr -= 1
    return pr, P // pr


def views_for_pattern(
    pattern: str, M: int, N: int, P: int, R: int = 0, itemsize: int = 1
) -> List[List[Tuple[int, int]]]:
    """Per-rank flattened file views for a named partitioning pattern.

    ``"column-wise"`` and ``"row-wise"`` are the 1-D splits of Figure 3;
    ``"block-block"`` lays the ranks out on the most square ``Pr x Pc`` grid
    (Figure 1's ghost-cell pattern).  This is the selection point the
    benchmark harness uses to sweep patterns.
    """
    if pattern == "column-wise":
        return column_wise_views(M, N, P, R, itemsize)
    if pattern == "row-wise":
        return row_wise_views(M, N, P, R, itemsize)
    if pattern == "block-block":
        Pr, Pc = process_grid(P)
        return block_block_views(M, N, Pr, Pc, R, itemsize)
    raise ValueError(f"unknown pattern {pattern!r}; known: {PATTERN_NAMES}")


def _validate(M: int, N: int, P: int, rank: int, R: int, itemsize: int) -> None:
    if M <= 0 or N <= 0 or P <= 0 or itemsize <= 0:
        raise ValueError("M, N, P and itemsize must be positive")
    if R < 0:
        raise ValueError("R must be non-negative")
    if rank < 0 or rank >= P:
        raise ValueError(f"rank {rank} outside 0..{P - 1}")


def _validate_grid(M: int, N: int, Pr: int, Pc: int, rank: int, R: int, itemsize: int) -> None:
    if Pr <= 0 or Pc <= 0:
        raise ValueError("process grid dimensions must be positive")
    if rank < 0 or rank >= Pr * Pc:
        raise ValueError(f"rank {rank} outside process grid {Pr}x{Pc}")
    if M <= 0 or N <= 0 or itemsize <= 0 or R < 0:
        raise ValueError("invalid array parameters")
