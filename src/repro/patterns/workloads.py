"""Workload generators for the evaluation.

The paper's evaluation writes a column-wise partitioned 2-D character array
of three sizes — ``4096 x 8192`` (32 MB), ``4096 x 32768`` (128 MB) and
``4096 x 262144`` (1 GB) — from 4, 8 and 16 processes.  This module encodes
those parameters, provides rank-identifying fill data, and offers a row-count
scaling knob so the benchmark grid stays tractable on a laptop-sized machine
while preserving the segment sizes and counts per row that drive the
performance behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "PAPER_ARRAY_SIZES",
    "PAPER_PROCESS_COUNTS",
    "PAPER_OVERLAP_COLUMNS",
    "ColumnWiseWorkload",
    "CheckpointRestartWorkload",
    "rank_fill_bytes",
    "rank_pattern_bytes",
]

#: (M, N) array shapes used in the paper's Figure 8, in elements of 1 byte.
PAPER_ARRAY_SIZES: Dict[str, Tuple[int, int]] = {
    "32MB": (4096, 8192),
    "128MB": (4096, 32768),
    "1GB": (4096, 262144),
}

#: Process counts used in the paper's Figure 8.
PAPER_PROCESS_COUNTS: Tuple[int, ...] = (4, 8, 16)

#: Number of overlapped columns between neighbouring processes.  The paper
#: does not report the exact ghost width used; 4 columns is representative of
#: the ghost-cell workloads it cites and is what the benchmarks default to.
PAPER_OVERLAP_COLUMNS: int = 4


@dataclass(frozen=True)
class ColumnWiseWorkload:
    """A column-wise checkpoint workload instance.

    ``row_scale`` divides the number of rows ``M`` (keeping every row's
    length and the per-rank segment count proportionally smaller) so the full
    Figure 8 grid runs quickly; ``row_scale=1`` reproduces the paper's exact
    array shapes.
    """

    label: str
    M: int
    N: int
    P: int
    R: int = PAPER_OVERLAP_COLUMNS
    row_scale: int = 1

    def __post_init__(self) -> None:
        if self.row_scale <= 0:
            raise ValueError("row_scale must be positive")
        if self.M % self.row_scale != 0:
            raise ValueError("row_scale must divide M")

    @property
    def effective_M(self) -> int:
        """Row count after scaling."""
        return self.M // self.row_scale

    @property
    def file_bytes(self) -> int:
        """Size of the shared file actually written (after scaling)."""
        return self.effective_M * self.N

    @property
    def nominal_bytes(self) -> int:
        """Unscaled size of the paper's file."""
        return self.M * self.N

    @classmethod
    def from_label(cls, label: str, P: int, R: int = PAPER_OVERLAP_COLUMNS,
                   row_scale: int = 1) -> "ColumnWiseWorkload":
        """Build one of the paper's three workloads by its size label."""
        M, N = PAPER_ARRAY_SIZES[label]
        return cls(label=label, M=M, N=N, P=P, R=R, row_scale=row_scale)


@dataclass(frozen=True)
class CheckpointRestartWorkload:
    """A checkpoint-then-restart workload (the read-heavy scenario).

    ``writers`` processes checkpoint a partitioned 2-D array (a concurrent
    overlapping atomic write, ghost columns included), then a restart job of
    ``readers`` processes — typically a *different* process count, which is
    exactly why the restart cannot assume its views match the checkpoint's —
    collectively reads its own overlapping partitioning of the same file.
    ``row_scale`` works as in :class:`ColumnWiseWorkload`.
    """

    label: str
    M: int
    N: int
    writers: int
    readers: int
    R: int = PAPER_OVERLAP_COLUMNS
    row_scale: int = 1
    pattern: str = "column-wise"

    def __post_init__(self) -> None:
        if self.writers <= 0 or self.readers <= 0:
            raise ValueError("writers and readers must be positive")
        if self.row_scale <= 0:
            raise ValueError("row_scale must be positive")
        if self.M % self.row_scale != 0:
            raise ValueError("row_scale must divide M")

    @property
    def effective_M(self) -> int:
        """Row count after scaling."""
        return self.M // self.row_scale

    @property
    def file_bytes(self) -> int:
        """Size of the shared checkpoint file (after scaling)."""
        return self.effective_M * self.N

    def write_views(self) -> List[List[Tuple[int, int]]]:
        """Per-writer flattened file views of the checkpoint phase."""
        from .partition import views_for_pattern

        return views_for_pattern(self.pattern, self.effective_M, self.N,
                                 self.writers, self.R)

    def read_views(self) -> List[List[Tuple[int, int]]]:
        """Per-reader flattened file views of the restart phase."""
        from .partition import views_for_pattern

        return views_for_pattern(self.pattern, self.effective_M, self.N,
                                 self.readers, self.R)

    def writer_stream(self, rank: int) -> bytes:
        """Rank-identifying checkpoint data for ``rank`` (pattern fill, so
        content-based verification works alongside provenance)."""
        nbytes = sum(length for _, length in self.write_views()[rank])
        return rank_pattern_bytes(rank, nbytes)

    @classmethod
    def from_label(
        cls,
        label: str,
        writers: int,
        readers: int,
        R: int = PAPER_OVERLAP_COLUMNS,
        row_scale: int = 1,
    ) -> "CheckpointRestartWorkload":
        """Build one of the paper's three array sizes as a restart workload."""
        M, N = PAPER_ARRAY_SIZES[label]
        return cls(label=label, M=M, N=N, writers=writers, readers=readers,
                   R=R, row_scale=row_scale)


def rank_fill_bytes(rank: int, nbytes: int) -> bytes:
    """A constant, rank-identifying fill ('A' + rank)."""
    return bytes([ord("A") + (rank % 26)]) * nbytes


#: One period of :func:`rank_pattern_bytes`; a rank's stream is a tiling of
#: it read from the rank's shift.
_PATTERN_PERIOD = bytes(range(251))


def rank_pattern_bytes(rank: int, nbytes: int) -> bytes:
    """A varying but rank-identifying pattern: byte ``i`` is
    ``(rank * 41 + i) mod 251``.

    Unlike :func:`rank_fill_bytes`, equal byte values across ranks are rare,
    so content-based interleaving detection (as opposed to provenance-based)
    also works on this data.
    """
    shift = (rank * 41) % len(_PATTERN_PERIOD)
    periods = (shift + nbytes) // len(_PATTERN_PERIOD) + 1
    return (_PATTERN_PERIOD * periods)[shift : shift + nbytes]
