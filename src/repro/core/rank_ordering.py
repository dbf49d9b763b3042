"""Process-rank ordering strategy — file-view trimming (Figure 7).

Under process-rank ordering, all processes agree on a fixed access priority
to overlapped file regions: the **highest-ranked** process that accesses a
region wins the right to write it and every lower-ranked process surrenders
(removes) those bytes from its own file view.  After trimming, no two
processes' views overlap, so all writes proceed fully in parallel with no
locks and no phase barriers, and the total volume written shrinks by the
amount of surrendered data.

The priority is decided per elementary run of
:func:`~repro.core.overlap.coverage_runs`: one winner sweep gives every
covered run to its covering rank of highest priority.  From the winners,
:func:`resolve_by_rank` cuts each rank's *kept* bytes (its trimmed view is
built only when asked for) and :func:`surrendered_bytes_by_priority` counts
what each rank gave up, building no per-rank set.  The priority policy is
pluggable; the paper's "higher rank wins" rule is the default and a "lower
rank wins" variant is provided for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .intervals import IntervalSet
from .overlap import _check_rank_order, coverage_runs
from .regions import FileRegionSet

__all__ = [
    "RankOrderingResult",
    "resolve_by_rank",
    "surrendered_bytes_by_priority",
    "HIGHER_RANK_WINS",
    "LOWER_RANK_WINS",
]

# A priority policy maps a rank to a priority value; for each overlapped byte
# the process with the highest priority keeps it.  Ties between ranks of equal
# priority go to the lower rank.
PriorityPolicy = Callable[[int], int]

HIGHER_RANK_WINS: PriorityPolicy = lambda rank: rank  # noqa: E731 - paper's policy
LOWER_RANK_WINS: PriorityPolicy = lambda rank: -rank  # noqa: E731 - ablation variant


@dataclass(frozen=True)
class RankOrderingResult:
    """Outcome of the rank-ordering negotiation.

    Attributes
    ----------
    regions:
        The untrimmed views, ``regions[rank]`` the view of ``rank``.
    kept:
        ``kept[rank]`` is the set of file bytes the rank still writes: its
        coverage minus every byte a higher-priority process also writes.
        The kept sets are pairwise disjoint and their union is the union of
        the views.
    surrendered_bytes:
        ``surrendered_bytes[rank]`` is how many bytes the rank gave up.
    """

    regions: tuple
    kept: tuple
    surrendered_bytes: tuple

    @property
    def total_surrendered(self) -> int:
        """Total bytes removed from the concurrent write across all ranks."""
        return sum(self.surrendered_bytes)

    @property
    def total_remaining(self) -> int:
        """Total bytes still written after trimming."""
        return sum(kept.total_bytes for kept in self.kept)

    def view_of(self, rank: int) -> FileRegionSet:
        """The trimmed view of ``rank``: its view restricted to its kept
        bytes, segment order preserved (built on each call)."""
        return self.regions[rank].restricted_to(self.kept[rank])

    @property
    def trimmed(self) -> Tuple[FileRegionSet, ...]:
        """Every rank's trimmed view (built on each access)."""
        return tuple(self.view_of(rank) for rank in range(len(self.kept)))


def _priority(n: int, policy: PriorityPolicy) -> np.ndarray:
    """Each rank's place in ascending ``(policy(rank), -rank)`` order (a
    stable sort of the ranks listed high to low)."""
    priority = np.empty(n, dtype=np.int64)
    priority[sorted(range(n - 1, -1, -1), key=policy)] = np.arange(n)
    return priority


def _group_winners(priority: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The index of the highest-priority entry of each group of consecutive
    entries, groups starting at ``heads`` (distinct priorities in a group)."""
    best = np.maximum.reduceat(priority, heads)
    return np.flatnonzero(priority == np.repeat(best, np.diff(np.append(heads, len(priority)))))


def _run_winners(bounds, depth, ptr, ranks, priority) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, stops, winner)`` of every covered run of a
    :func:`~repro.core.overlap.coverage_runs` CSR, in file order: the
    winner is the run's covering rank of highest ``priority``."""
    covered = np.flatnonzero(depth)
    winner = ranks[_group_winners(priority[ranks], ptr[covered])]
    return bounds[covered], bounds[covered + 1], winner


def _winners(regions: Sequence[FileRegionSet], policy: PriorityPolicy):
    """:func:`_run_winners` over ``regions[i]``, the view of rank ``i``."""
    _check_rank_order(regions)
    return _run_winners(*coverage_runs(regions), _priority(len(regions), policy))


def _surrendered(totals: Sequence[int], starts, stops, winner) -> List[int]:
    """Per rank, its ``totals`` bytes minus the bytes of the runs it won."""
    won = np.zeros(len(totals), dtype=np.int64)
    np.add.at(won, winner, stops - starts)
    return [total - kept for total, kept in zip(totals, won.tolist())]


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
        value keeps each contested byte (ties go to the lower rank).
        Defaults to the paper's higher-rank-wins rule.

    Returns
    -------
    RankOrderingResult
        Per-rank kept byte sets (pairwise disjoint, covering the union of
        the views) plus per-rank surrendered byte counts.  Each rank's won
        runs are grouped with one stable sort and its touching runs
        coalesced in one vectorised pass.
    """
    starts, stops, winner = _winners(regions, policy)
    order = np.argsort(winner, kind="stable")
    starts, stops, winner = starts[order], stops[order], winner[order]
    head = np.ones(len(winner), dtype=bool)
    head[1:] = (winner[1:] != winner[:-1]) | (starts[1:] != stops[:-1])
    starts, stops, winner = starts[head], stops[np.roll(head, -1)], winner[head]
    cuts = np.searchsorted(winner, np.arange(len(regions) + 1)).tolist()
    kept = tuple(
        IntervalSet._from_normalised(starts[lo:hi], stops[lo:hi])
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )
    return RankOrderingResult(
        regions=tuple(regions),
        kept=kept,
        surrendered_bytes=tuple(r.total_bytes - k.total_bytes for r, k in zip(regions, kept)),
    )


def surrendered_bytes_by_priority(
    regions: Sequence[FileRegionSet],
    policy: PriorityPolicy = HIGHER_RANK_WINS,
) -> List[int]:
    """Per-rank surrendered byte counts, building no per-rank set.

    ``surrendered[rank]`` counts the bytes of ``rank``'s view also covered by
    some higher-priority rank — exactly the counts :func:`resolve_by_rank`
    reports: everything the rank covers minus the runs it won.  This is the
    form that scales to tens of thousands of ranks.
    """
    return _surrendered([r.total_bytes for r in regions], *_winners(regions, policy))
