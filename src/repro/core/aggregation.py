"""Two-phase I/O aggregation: aggregator election, file-domain partitioning
and conflict-resolving merge.

The two-phase (collective buffering) strategy — ROMIO's classic optimisation
and the natural next point of comparison to the paper's Section 3 family —
splits a concurrent overlapping write into a communication phase and an I/O
phase:

1. a subset of ranks is elected as **aggregators**, and the *file domain*
   (the union of every rank's file view) is partitioned among them into
   disjoint, file-ordered chunks of near-equal byte counts;
2. every rank ships the data for each file byte it covers to the aggregator
   owning that byte (an ``alltoallv``-style shuffle); each aggregator merges
   the incoming pieces, resolving overlapped bytes by the same priority rule
   as process-rank ordering (highest-priority covering rank wins);
3. the aggregators write their now pairwise-disjoint chunks fully in
   parallel — no locks, no inter-phase barriers.

MPI atomicity holds by construction: after the merge every overlapped byte
carries exactly one rank's data, chosen by a fixed total order, and the
aggregators' write ranges never intersect.

The **two-phase collective read** is the mirror image: the aggregators each
read their disjoint file-domain chunk *once* (so an overlapped byte costs one
server read no matter how many consumers want it), then scatter the pieces of
every consumer's view back through the same ``alltoallv`` primitive.

This module holds the deterministic, communication-free pieces (every rank
computes the identical election and partitioning from the exchanged views),
among them each direction's routes, built once per collective from the
negotiation's piece table (ROMIO's ``ADIOI_Calc_my_req`` /
``ADIOI_Calc_others_req``): :class:`WriteRoutes` and :class:`ReadRoutes` say
what each hop sends where and what each aggregator keeps, so the coroutines
of :class:`repro.core.strategies.TwoPhaseStrategy` merge and clip nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .intervals import IntervalSet, _normalise_arrays, clip_many
from .overlap import _interval_runs
from .rank_ordering import HIGHER_RANK_WINS, PriorityPolicy, _group_winners, _priority
from .rank_ordering import _surrendered

if TYPE_CHECKING:  # the negotiation record lives with the strategy
    from .regions import FileRegionSet
    from .strategies import Negotiation

__all__ = [
    "AggregatedRun",
    "choose_aggregators",
    "node_leaders",
    "choose_node_aggregators",
    "partition_domain",
    "merge_pieces",
    "merge_origin_runs",
    "WriteRoutes",
    "joined",
    "QueryBatch",
    "ReadRoutes",
    "delivered",
    "stream_order",
]

#: One contiguous merged extent an aggregator writes: the rank its data
#: originated from (recorded as the write's provenance) and the winning data —
#: in the ``(origin, offset, data)`` order of the pieces the merge takes, so a
#: merged run is routed or merged again as it is.
class AggregatedRun(NamedTuple):
    origin: int
    offset: int
    data: bytes

    @property
    def length(self) -> int:
        """Bytes in the run."""
        return len(self.data)


def choose_aggregators(nprocs: int, num_aggregators: int) -> List[int]:
    """Elect ``num_aggregators`` evenly spaced ranks as I/O aggregators.

    Deterministic so that every rank elects the identical set without
    communication.  Rank 0 is always an aggregator (ROMIO's convention).
    """
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    count = max(1, min(num_aggregators, nprocs))
    return [(i * nprocs) // count for i in range(count)]


def node_leaders(nprocs: int, ranks_per_node: int) -> List[int]:
    """First rank of every node under a block rank-to-node placement.

    With ``ranks_per_node`` consecutive ranks per node (the default MPI
    block mapping), rank ``r`` lives on node ``r // ranks_per_node`` and the
    node's leader is its lowest rank.  Deterministic, so every rank elects
    the identical leaders without communication.
    """
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    if ranks_per_node <= 0:
        raise ValueError("ranks_per_node must be positive")
    return list(range(0, nprocs, ranks_per_node))


def choose_node_aggregators(
    nprocs: int, ranks_per_node: int, num_aggregator_nodes: int
) -> List[int]:
    """Elect topology-aware global aggregators: evenly spaced *node leaders*.

    The two-level scheme's upper tier.  ``num_aggregator_nodes`` (the
    ``cb_nodes`` hint) picks that many nodes, evenly spread over the job, and
    each contributes its leader rank as a global aggregator — so global
    aggregation traffic enters every chosen node exactly once instead of
    hitting arbitrary ranks.  Rank 0's node is always included (ROMIO's
    convention, as in :func:`choose_aggregators`).
    """
    leaders = node_leaders(nprocs, ranks_per_node)
    picks = choose_aggregators(len(leaders), num_aggregator_nodes)
    return [leaders[i] for i in picks]


def partition_domain(domain: IntervalSet, num_chunks: int) -> List[IntervalSet]:
    """Split the aggregate file domain into ``num_chunks`` file-ordered chunks.

    Chunk byte counts differ by at most one, mirroring ROMIO's
    ``fd_start``/``fd_end`` assignment but on the *covered* bytes only, so a
    sparse domain still balances the actual I/O volume.  Chunks may be empty
    when the domain has fewer bytes than there are aggregators.
    """
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    total = domain.total_bytes
    base, extra = divmod(total, num_chunks)
    targets = [base + (1 if i < extra else 0) for i in range(num_chunks)]
    chunks: List[IntervalSet] = []
    pending = iter(domain)
    current = next(pending, None)
    for want in targets:
        pieces: List[Tuple[int, int]] = []
        while want > 0 and current is not None:
            take = min(want, current.length)
            pieces.append((current.start, take))
            want -= take
            if take == current.length:
                current = next(pending, None)
            else:
                current = type(current)(current.start + take, current.stop)
        chunks.append(IntervalSet.from_segments(pieces))
    return chunks


def merge_pieces(
    pieces_by_sender: Sequence[Tuple[int, Sequence[Tuple[int, bytes]]]],
    policy: PriorityPolicy = HIGHER_RANK_WINS,
) -> List[AggregatedRun]:
    """Merge shuffled pieces into disjoint runs, resolving conflicts.

    ``pieces_by_sender`` maps each sending rank to its ``(file_offset, data)``
    pieces (already restricted to this aggregator's file-domain chunk).  The
    highest-priority rank's bytes win every contested range — the same
    winner process-rank ordering would pick, keeping the two strategies
    byte-for-byte comparable.  Priority ties (a non-injective policy) break
    towards the *lower* rank, matching :func:`resolve_by_rank`'s stable
    highest-priority-first claiming order.

    Returns contiguous runs of constant origin, in file order.
    """
    return merge_origin_runs(
        [(rank, off, data) for rank, pieces in pieces_by_sender for off, data in pieces],
        policy,
    )


def merge_origin_runs(
    runs: Sequence[Tuple[int, int, bytes]],
    policy: PriorityPolicy = HIGHER_RANK_WINS,
) -> List[AggregatedRun]:
    """Merge ``(origin_rank, file_offset, data)`` runs, resolving conflicts.

    The general form of :func:`merge_pieces`: each run carries its own origin
    rank instead of inheriting it from the sender, so *pre-merged* runs (a
    node-local aggregator's output, whose bytes originate from several ranks)
    can be merged again at a higher tier, as they are.

    The coverage-run kernel over the pieces, each owning itself: every
    elementary run goes to its covering piece greatest in a total order —
    highest ``policy(origin)``, then lowest origin, then highest file offset,
    then latest position in ``runs`` (the last two only decide between
    overlapping pieces of one origin).  Touching cuts of one origin are one
    run.  Between origins the order is ``(policy(origin), -origin)`` whatever
    the grouping, so a merge of merges is the flat merge — what the two-phase
    shuffle's routes (:class:`WriteRoutes`) rely on.
    """
    # Exact ``int`` / ``bytes`` pieces are taken as they are; others coerced.
    pieces = [
        (origin, off, data)
        if type(off) is int and type(origin) is int and type(data) is bytes
        else (int(origin), int(off), bytes(data))
        for origin, off, data in runs
        if len(data) > 0
    ]
    if not pieces:
        return []
    lowest = min(off for _, off, _ in pieces)
    if lowest < 0:
        raise ValueError(f"negative offsets not allowed: a piece at {lowest}")
    # In ascending total order: each run's last covering piece wins.
    pieces = [
        pieces[key[-1]]
        for key in sorted(
            (policy(origin), -origin, off, position)
            for position, (origin, off, _) in enumerate(pieces)
        )
    ]
    count = len(pieces)
    starts = np.fromiter((off for _, off, _ in pieces), dtype=np.int64, count=count)
    stops = starts + np.fromiter((len(data) for _, _, data in pieces), dtype=np.int64, count=count)
    bounds, depth, ptr, entries = _interval_runs(starts, stops, np.arange(count))
    covered = np.flatnonzero(depth)
    merged: List[AggregatedRun] = []
    parts: List[bytes] = []
    start = stop = who = None
    for piece, lo, hi in zip(
        entries[ptr[covered + 1] - 1].tolist(),
        bounds[covered].tolist(),
        bounds[covered + 1].tolist(),
    ):
        origin, off, data = pieces[piece]
        if lo != stop or origin != who:
            if parts:
                merged.append(AggregatedRun(who, start, b"".join(parts)))
            start, who, parts = lo, origin, []
        parts.append(data[lo - off : hi - off])
        stop = hi
    merged.append(AggregatedRun(who, start, b"".join(parts)))
    return merged


def _kept_rows(dest, length, at, g_dest, g_origin, g_lo, g_hi, g_at):
    """Each aggregator's keep rows ``(itself, origin, offset, lo, hi)``, grouped,
    from what reaches it — pieces to ``dest`` of ``length`` bytes at
    coverage-stream position ``at`` — and its global winner cuts: its buffer
    holds what arrived in stream order, and a winner lies in the arriving
    piece whose stretch of the stream holds its own position."""
    order = np.lexsort((at, dest))
    placed = np.empty(len(order), dtype=np.int64)
    placed[order] = _placed(length[order], dest[order])
    by_stream = np.argsort(at)
    inside = by_stream[np.searchsorted(at[by_stream], g_at, side="right") - 1]
    lo = placed[inside] + (g_at - at[inside])
    return _grouped(np.column_stack((g_dest, g_origin, g_lo, lo, lo + g_hi - g_lo)), g_dest)


def _placed(length: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Each item's offset in its group's buffer: the lengths of the items of
    its group before it.  ``group`` is sorted."""
    ahead = np.cumsum(length) - length
    return ahead - ahead[np.searchsorted(group, group)]


def _grouped(rows: np.ndarray, holder: np.ndarray) -> Tuple[np.ndarray, Dict[int, tuple]]:
    """``rows`` grouped by ``holder`` (stably: a holder's rows keep their
    order) and each holder's ``(first, last)`` of them."""
    order = np.argsort(holder, kind="stable")
    holder = holder[order]
    first = np.flatnonzero(np.diff(holder, prepend=-1)).tolist()
    return rows[order], dict(zip(holder[first].tolist(), zip(first, first[1:] + [len(holder)])))


@dataclass(frozen=True)
class _Routes:
    """Per hop, rows grouped by the rank holding the data and each holder's
    ``(first, last)`` of them (:func:`_grouped`); a hop whose rows are
    ``None`` is read off the rank's region on demand (``_own``)."""

    rows: Tuple[Optional[np.ndarray], ...]
    spans: Tuple[Dict[int, Tuple[int, int]], ...]

    def rows_of(self, hop: int, region: "FileRegionSet") -> List[Sequence[int]]:
        """The rows ``region``'s rank holds on ``hop``."""
        rows = self.rows[hop]
        if rows is None:
            return self._own(region)
        span = self.spans[hop].get(region.rank)
        return rows[span[0] : span[1]].tolist() if span else []


@dataclass(frozen=True)
class WriteRoutes(_Routes):
    """What every hop of a two-phase write sends and keeps, read once per
    collective off the negotiation's coverage-run kernel by one winner
    sweep, which also gives each rank's surrender count.

    A row ``(dest, origin, offset, lo, hi)`` sends ``[lo, hi)`` of its
    holder's source to ``dest`` as the piece ``(origin, offset, data)``.  A
    receiver orders what arrived by ``(origin, offset)`` and joins the data
    (:func:`joined`): a leader's buffer is its ranks' bytes, each rank's in
    file order — a stretch of the *coverage stream*, every rank's covered
    bytes rank after rank, which places everything below.

    * Hop 0, read off the rank's region on demand: its view, whole to its
      leader with several ranks per node, else cut at the pieces.
    * Hop 1, only with several ranks per node: a leader's node winner runs
      cut at the pieces.
    * The keeps, on the hop after the last: an aggregator's rows to itself,
      the global winner runs of its chunk — each one ``TransferStep``, so
      these rows shape the write's requests.
    """

    ranks_per_node: int
    #: The negotiation's piece table.
    pieces: np.ndarray
    #: ``surrendered[rank]``: bytes of ``rank``'s view that a higher-priority
    #: rank also covers.
    surrendered: List[int]

    def _own(self, region: "FileRegionSet") -> List[Sequence[int]]:
        """Hop 0's rows of ``region``'s rank."""
        rank, ppn = region.rank, self.ranks_per_node
        if ppn > 1:
            leader, at, rows = rank - rank % ppn, 0, []
            for offset, length in region.segments:
                rows.append((leader, rank, offset, at, at + length))
                at += length
            return rows
        if not region.total_bytes:
            return []
        starts, stops, aggregator, _ = self.pieces
        piece, buf, lo, length = region.cut_at(starts, stops)
        origin = np.full(len(piece), rank)
        return np.column_stack((aggregator[piece], origin, lo, buf, buf + length)).tolist()

    @classmethod
    def of(cls, neg: "Negotiation") -> "WriteRoutes":
        """The routes of ``neg``, from one winner sweep over its coverage
        runs: a byte's node winner is its covering rank of the node with the
        highest ``(policy(rank), -rank)``, its global winner the highest node
        winner — so each aggregator's run lies inside one piece a leader sent
        it."""
        batch, ppn = neg.scatter_batch, neg.ranks_per_node
        bounds, depth, _, entries = neg.runs
        stream = np.concatenate(([0], np.cumsum(batch.stops - batch.starts)))
        starts, stops, aggregator, _ = neg.pieces

        def cuts(interval: np.ndarray, run: np.ndarray):
            """Won elementary runs, in emission order, joined while one
            interval wins (its runs are consecutive: it covers those between)
            and cut at the pieces: ``(dest, origin, lo, hi, at)``, ``at`` the
            coverage-stream position of ``lo``."""
            head = np.ones(len(run), dtype=bool)
            head[1:] = interval[1:] != interval[:-1]
            query, piece, lo, hi = clip_many(
                bounds[run[head]], bounds[run[np.roll(head, -1)] + 1], starts, stops
            )
            interval = interval[head][query]
            at = stream[interval] + (lo - batch.starts[interval])
            return aggregator[piece], batch.dest[interval], lo, hi, at

        # Every (run, node) group's winner — a run's entries of one node are
        # consecutive — node by node in file order, and every run's best.
        run = np.repeat(np.arange(len(depth), dtype=np.int64), depth)
        rank = batch.dest[entries]
        node = rank // ppn
        head = np.ones(len(rank), dtype=bool)
        head[1:] = (run[1:] != run[:-1]) | (node[1:] != node[:-1])
        priority = _priority(batch.count, neg.policy)[rank]
        won = _group_winners(priority, np.flatnonzero(head))
        best = won[_group_winners(priority[won], np.flatnonzero(np.diff(run[won], prepend=-1)))]
        won = won[np.lexsort((run[won], node[won]))]
        kept = cuts(entries[best], run[best])
        dest, origin, lo, hi, at = cuts(entries[won], run[won])
        hops = [(None, {})]
        if ppn > 1:
            leader = origin - origin % ppn
            base = at - stream[batch.bounds[leader]]
            sends = np.column_stack((dest, origin, lo, base, base + hi - lo))
            hops.append(_grouped(sends, leader))
        hops.append(_kept_rows(dest, hi - lo, at, *kept))
        # A rank surrenders what it covers but did not win.
        run, totals = run[best], np.diff(stream[batch.bounds]).tolist()
        surrendered = _surrendered(totals, bounds[run], bounds[run + 1], rank[best])
        rows, spans = zip(*hops)
        return cls(rows, spans, ppn, neg.pieces, surrendered)


def joined(received: Sequence[Tuple[int, Sequence[tuple]]]) -> bytes:
    """The ``[(src, pieces)]`` a hop received as one buffer: the pieces —
    tuples ending in their data, as a write's ``(origin, offset, data)`` —
    in order, their data joined."""
    return b"".join([piece[-1] for piece in sorted([p for _, sent in received for p in sent])])


class QueryBatch(NamedTuple):
    """Every rank's coverage intervals flattened into one batch.

    ``starts`` / ``stops`` hold the ranks' intervals back to back in rank
    order, ``dest[i]`` names the rank interval ``i`` belongs to and
    ``bounds[r] : bounds[r + 1]`` is rank ``r``'s slice.  The negotiation
    builds it once per collective; the coverage-run kernel and both
    directions' routes read it.
    """

    starts: np.ndarray
    stops: np.ndarray
    dest: np.ndarray
    bounds: np.ndarray

    @property
    def count(self) -> int:
        """How many ranks the batch holds the intervals of."""
        return len(self.bounds) - 1

    @classmethod
    def of(cls, coverages: Sequence[IntervalSet]) -> "QueryBatch":
        """Flatten ``coverages[r]``, the byte set rank ``r``'s view covers."""
        count = len(coverages)
        sizes = np.fromiter((len(c.starts) for c in coverages), dtype=np.int64, count=count)
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        if count:
            starts = np.concatenate([c.starts for c in coverages])
            stops = np.concatenate([c.stops for c in coverages])
        else:
            starts = stops = np.empty(0, dtype=np.int64)
        dest = np.repeat(np.arange(count, dtype=np.int64), sizes)
        return cls(starts, stops, dest, bounds)


@dataclass(frozen=True)
class ReadRoutes(_Routes):
    """What every hop of a two-phase read sends — the read's
    :class:`WriteRoutes`, built once per collective from the negotiation.
    A row ``(dest, offset, lo, hi)`` sends ``[lo, hi)`` of its holder's
    source to ``dest`` as the piece ``(offset, data)``.

    * Hop 0: an aggregator's source is its fetched sink; it sends each node's
      union request, node by node in file order, cut at the aggregators'
      pieces, to the node's leader (with one rank per node, the rank itself).
    * Hop 1, only with several ranks per node: a leader's source is what it
      received, joined — its node's union in file order; it sends each rank
      its request cut at the pieces.

    After the last hop a rank holds its request in file order.
    """

    #: With several ranks per node, what hop 0 owes each leader: its node's
    #: union request.
    unions: Dict[int, IntervalSet]

    @classmethod
    def of(cls, neg: "Negotiation") -> "ReadRoutes":
        """The routes of ``neg``'s read."""
        batch, ppn = neg.scatter_batch, neg.ranks_per_node
        starts, stops, dests, sinks = neg.pieces
        # Every node's union at once: one normalise over the intervals keyed
        # by node, in elementary-run coordinates (``node * width`` plus an
        # index into ``bounds``), where no two nodes' keys touch.
        bounds = neg.runs[0]
        width = max(len(bounds), 1)
        node = batch.dest // ppn
        key = node * width + np.searchsorted(bounds, batch.starts)
        u_key, u_end = _normalise_arrays(key, node * width + np.searchsorted(bounds, batch.stops))
        u_node, u_start, u_stop = u_key // width, bounds[u_key % width], bounds[u_end % width]

        query, piece, lo, hi = clip_many(u_start, u_stop, starts, stops)
        at = sinks[piece] + (lo - starts[piece])
        rows = np.column_stack((u_node[query] * ppn, lo, at, at + hi - lo))
        hops, unions = [_grouped(rows, dests[piece])], {}
        if ppn > 1:
            # A rank's cut lies in one union interval of its node; the
            # leader's source holds that union from the node's first byte.
            u_at = _placed(u_stop - u_start, u_node)
            query, piece, lo, hi = clip_many(batch.starts, batch.stops, starts, stops)
            union = np.searchsorted(u_key, key[query], side="right") - 1
            at = u_at[union] + (lo - u_start[union])
            dest = batch.dest[query]
            rows = np.column_stack((dest, lo, at, at + hi - lo))
            hops.append(_grouped(rows, dest - dest % ppn))
            runs, spans = _grouped(np.column_stack((u_start, u_stop)), u_node * ppn)
            unions = {n: IntervalSet._from_normalised(*runs[a:b].T) for n, (a, b) in spans.items()}
        rows, spans = zip(*hops)
        return cls(rows, spans, unions)


def delivered(
    rank: int, received: Sequence[Tuple[int, Sequence[tuple]]], owed: IntervalSet
) -> bytes:
    """The ``(offset, data)`` pieces a read hop brought ``rank``, joined in
    file order; ``ValueError`` naming the rank unless they tile ``owed``
    exactly, so a dropped, duplicated, overlapping or stray piece cannot pass
    for a complete delivery."""
    pieces = sorted([piece for _, sent in received for piece in sent])
    bounds: List[int] = []  # the pieces' runs, touching ones joined
    for offset, data in pieces:
        if bounds and bounds[-1] == offset:
            bounds[-1] += len(data)
        else:
            bounds += (offset, offset + len(data))
    data = b"".join([piece[1] for piece in pieces])
    if bounds[::2] != owed.starts.tolist() or bounds[1::2] != owed.stops.tolist():
        raise ValueError(
            f"rank {rank}: the scatter delivered {len(data)} bytes that do not "
            f"tile its {owed.total_bytes}-byte request"
        )
    return data


def stream_order(region: "FileRegionSet", data: bytes) -> bytes:
    """``region``'s bytes, given in file order, in its data-stream order."""
    segments = region.segments
    ordered = sorted(segments)
    if ordered == list(segments):
        return data
    # A view's segments are disjoint: in file order they lie back to back.
    at, placed = 0, {}
    for offset, length in ordered:
        placed[offset] = at
        at += length
    return b"".join([data[placed[off] : placed[off] + n] for off, n in segments])
