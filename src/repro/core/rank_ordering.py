"""Process-rank ordering strategy — file-view trimming (Figure 7).

Under process-rank ordering, all processes agree on a fixed access priority
to overlapped file regions: the **highest-ranked** process that accesses a
region wins the right to write it and every lower-ranked process surrenders
(removes) those bytes from its own file view.  After trimming, no two
processes' views overlap, so all writes proceed fully in parallel with no
locks and no phase barriers, and the total volume written shrinks by the
amount of surrendered data.

This module computes, for a set of per-rank
:class:`~repro.core.regions.FileRegionSet` views, the trimmed views and the
statistics the paper's Section 3.4 analysis quotes (surrendered bytes,
remaining bytes).  The priority policy is pluggable; the paper's
"higher rank wins" rule is the default and a "lower rank wins" variant is
provided for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .intervals import IntervalSet, merge_interval_sets
from .overlap import coverage_runs
from .regions import FileRegionSet

__all__ = [
    "RankOrderingResult",
    "resolve_by_rank",
    "surrendered_bytes_by_priority",
    "HIGHER_RANK_WINS",
    "LOWER_RANK_WINS",
]

# A priority policy maps a rank to a priority value; for each overlapped byte
# the process with the highest priority keeps it.  Ties cannot occur because
# ranks are unique.
PriorityPolicy = Callable[[int], int]

HIGHER_RANK_WINS: PriorityPolicy = lambda rank: rank  # noqa: E731 - paper's policy
LOWER_RANK_WINS: PriorityPolicy = lambda rank: -rank  # noqa: E731 - ablation variant


@dataclass(frozen=True)
class RankOrderingResult:
    """Outcome of the rank-ordering negotiation.

    Attributes
    ----------
    trimmed:
        ``trimmed[rank]`` is the rank's file view after surrendering every
        byte that a higher-priority process also writes.  Trimmed views are
        pairwise disjoint.
    surrendered_bytes:
        ``surrendered_bytes[rank]`` is how many bytes the rank gave up.
    """

    trimmed: tuple
    surrendered_bytes: tuple

    @property
    def total_surrendered(self) -> int:
        """Total bytes removed from the concurrent write across all ranks."""
        return sum(self.surrendered_bytes)

    @property
    def total_remaining(self) -> int:
        """Total bytes still written after trimming."""
        return sum(r.total_bytes for r in self.trimmed)

    def view_of(self, rank: int) -> FileRegionSet:
        """The trimmed view of ``rank``."""
        return self.trimmed[rank]


def resolve_by_rank(
    regions: Sequence[FileRegionSet],
    policy: PriorityPolicy = HIGHER_RANK_WINS,
) -> RankOrderingResult:
    """Trim every process's view so that exactly one process owns each byte.

    Parameters
    ----------
    regions:
        ``regions[i]`` is rank *i*'s flattened file view.
    policy:
        Priority function; the process whose rank has the highest policy
        value keeps each contested byte.  Defaults to the paper's
        higher-rank-wins rule.

    Returns
    -------
    RankOrderingResult
        Trimmed (pairwise disjoint) views plus per-rank surrendered byte
        counts.  Coverage is preserved: the union of the trimmed views equals
        the union of the original views.
    """
    n = len(regions)
    for rank, region in enumerate(regions):
        if region.rank != rank:
            raise ValueError(
                f"regions must be ordered by rank: index {rank} holds rank {region.rank}"
            )

    # Ranks sorted from highest to lowest priority; each rank surrenders the
    # bytes claimed by every rank of strictly higher priority.
    by_priority = sorted(range(n), key=policy, reverse=True)
    claimed = IntervalSet.empty()
    trimmed: List[FileRegionSet] = [None] * n  # type: ignore[list-item]
    surrendered: List[int] = [0] * n
    for rank in by_priority:
        original = regions[rank]
        new_view = original.trimmed(claimed)
        trimmed[rank] = new_view
        surrendered[rank] = original.total_bytes - new_view.total_bytes
        claimed = claimed.union(original.coverage)
    return RankOrderingResult(trimmed=tuple(trimmed), surrendered_bytes=tuple(surrendered))


def surrendered_bytes_by_priority(
    regions: Sequence[FileRegionSet],
    policy: PriorityPolicy = HIGHER_RANK_WINS,
) -> List[int]:
    """Per-rank surrendered byte counts, without materialising trimmed views.

    ``surrendered[rank]`` counts the bytes of ``rank``'s view also covered by
    some strictly-higher-priority rank (ties break towards the lower rank, as
    everywhere else) — exactly the counts :func:`resolve_by_rank` reports,
    but computed as one winner sweep instead of ``P`` incremental set unions:
    :func:`~repro.core.overlap.coverage_runs` cuts the file into elementary
    runs with their covering ranks, the run's winner is the covering rank of
    highest priority (one ``maximum.reduceat`` over the priority index), and
    each rank then surrenders everything it covers minus what it won.  This
    is the form the two-phase negotiation can afford at tens of thousands of
    ranks, where it only needs the counts.
    """
    n = len(regions)
    for rank, region in enumerate(regions):
        if region.rank != rank:
            raise ValueError(
                f"regions must be ordered by rank: index {rank} holds rank {region.rank}"
            )
    bounds, depth, ptr, ranks = coverage_runs(regions)
    if not len(ranks):
        return [0] * n
    by_priority = np.array(sorted(range(n), key=lambda r: (policy(r), -r)), dtype=np.int64)
    priority = np.empty(n, dtype=np.int64)
    priority[by_priority] = np.arange(n)
    covered = depth > 0
    winner = by_priority[np.maximum.reduceat(priority[ranks], ptr[:-1][covered])]
    won = np.zeros(n, dtype=np.int64)
    np.add.at(won, winner, (bounds[1:] - bounds[:-1])[covered])
    return [region.total_bytes - kept for region, kept in zip(regions, won.tolist())]


def verify_disjoint(result: RankOrderingResult) -> bool:
    """True when the trimmed views are pairwise disjoint (the MPI-atomicity
    precondition the strategy relies on)."""
    views = result.trimmed
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            if views[i].overlaps(views[j]):
                return False
    return True


def verify_coverage_preserved(
    regions: Sequence[FileRegionSet], result: RankOrderingResult
) -> bool:
    """True when the trimmed views still cover every byte some process wrote.

    Rank ordering must not leave holes: every byte of the original union is
    written by exactly one process afterwards.
    """
    before = merge_interval_sets([r.coverage for r in regions])
    after = merge_interval_sets([r.coverage for r in result.trimmed])
    return before == after
