"""Test-only oracle: the two-phase shuffle and scatter coroutines as they
were before each piece's work was done once, kept verbatim.

``repro.core.strategies.TwoPhaseStrategy.shuffle`` / ``scatter`` are the one
body both drivers of the aggregation schedule run (the engine's ``_pump`` and
``repro.core.bulk``'s lockstep).  :class:`ReferenceShuffle` holds the bodies
they replaced — ``shuffle``, ``scatter``, the ``_merge`` they call and the
``_bytes_to_others`` helper — moved here unchanged, so
``tests/test_shuffle_differential.py`` can require the old and the new
coroutines to yield the same messages round by round and return the same
plans, payloads and streams on generated views.  It is a mixin: put it in
front of the strategy class under test (:func:`reference`), which supplies
everything else — ``negotiate``, ``_plan``, ``_roles``, ``_hops`` — since
those did not change.  ``_merge`` merges with the byte-painting oracle
``tests/reference_merge.py``, not with ``src/``'s merge, so a fault in the
sweep merge shows as a difference here too.  The read's routing helpers
that ``scatter`` calls — ``scatter_pieces``, ``node_coverages``,
``gather_runs``, ``assemble_stream``, ``QueryBatch.window`` and
``Negotiation.node_scatter_batch`` — live here too, their bodies unchanged
(the two methods as functions of their ``self``).  The parent's negotiation
fields these bodies read — ``pieces`` and its columns, ``held``, ``agg_set``,
``coverages``, ``surrendered`` — come through one adapter, :class:`Legacy`,
which derives them from the negotiation as the parent's ``negotiate`` did.

Never imported by ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from reference_merge import merge_origin_runs
from repro.core.aggregation import QueryBatch
from repro.core.intervals import IntervalSet, clip_many, clip_sorted_runs, merge_interval_sets
from repro.core.pipeline import USER_PAYLOAD, PhasePlan, TransferStep
from repro.core.rank_ordering import _priority, _run_winners, _surrendered
from repro.core.regions import FileRegionSet
from repro.core.strategies import AGGREGATE_PAYLOAD, IOOutcome, Negotiation

__all__ = ["Legacy", "ReferenceShuffle", "reference"]


class Legacy:
    """A negotiation with the parent's fields beside its own: the piece list
    ``pieces`` of ``(start, stop, aggregator)`` and its ``piece_starts`` /
    ``piece_stops``, each aggregator's ``held`` sink runs laid out by the
    parent's loop, ``agg_set``, ``coverages``, and ``surrendered`` from the
    negotiation's coverage-run kernel by the parent's winner sweep
    (``_run_winners`` + ``_surrendered``), not from the routes."""

    def __init__(self, neg: Negotiation) -> None:
        self._neg = neg
        starts, stops, aggregators, _ = neg.pieces.tolist()
        self.pieces = list(zip(starts, stops, aggregators))
        self.piece_starts, self.piece_stops = starts, stops
        self.agg_set = frozenset(neg.aggregators)
        self.held: Dict[int, List[Tuple[int, int, int]]] = {}
        for start, stop, agg_rank in self.pieces:
            runs = self.held.setdefault(agg_rank, [])
            # Each run lands in the sink right behind the previous one.
            buf = runs[-1][2] + (runs[-1][1] - runs[-1][0]) if runs else 0
            runs.append((start, stop, buf))
        batch = neg.scatter_batch
        bounds = batch.bounds.tolist()
        self.coverages = [
            IntervalSet._from_normalised(batch.starts[lo:hi], batch.stops[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        ranks, priority = batch.dest[neg.runs[3]], _priority(batch.count, neg.policy)
        winners = _run_winners(*neg.runs[:3], ranks, priority)
        self.surrendered = _surrendered([c.total_bytes for c in self.coverages], *winners)

    def __getattr__(self, name: str):
        return getattr(self._neg, name)


def _bytes_to_others(rank: int, outgoing: Dict[int, list]) -> int:
    """Data bytes of the pieces ``outgoing`` sends to ranks other than
    ``rank`` — what :attr:`IOOutcome.bytes_shuffled` means in both directions
    and what ``alltoallv_sparse`` charges (self-delivery is free)."""
    total = 0
    for dest, pieces in outgoing.items():
        if dest != rank:
            for piece in pieces:
                total += len(piece[-1])
    return total


def window(self: QueryBatch, first: int, last: int) -> QueryBatch:
    """The batch of consumers ``[first, last)`` alone, renumbered from 0
    (a node leader's cut for its local ranks)."""
    last = min(last, self.count)
    lo, hi = self.bounds[first], self.bounds[last]
    return QueryBatch(
        self.starts[lo:hi],
        self.stops[lo:hi],
        self.dest[lo:hi] - first,
        self.bounds[first : last + 1] - lo,
    )


def scatter_pieces(
    held: Sequence[Tuple[int, int, int]],
    buffer: "bytes | bytearray",
    coverages: "Sequence[IntervalSet] | QueryBatch",
) -> List[List[Tuple[int, bytes]]]:
    """Cut an aggregator's fetched file-domain chunk into per-consumer pieces.

    ``held`` lists the aggregator's resident runs as ``(start, stop,
    buffer_offset)`` triples in file order: file bytes ``[start, stop)`` live
    at ``buffer[buffer_offset : buffer_offset + (stop - start)]``.
    ``coverages[r]`` is consumer ``r``'s requested byte set — or the
    :class:`QueryBatch` already built from them, when many aggregators cut
    against the same consumers.  Returns, for each consumer, the
    ``(file_offset, data)`` pieces of its request that this aggregator holds
    — the send buffers of the scatter half of a two-phase collective read.

    Routed by one batch clip of every consumer interval against the
    file-ordered runs, so the cost scales with the consumers' piece count,
    not with ``len(held) * len(coverages)``.
    """
    batch = coverages if isinstance(coverages, QueryBatch) else QueryBatch.of(coverages)
    out: List[List[Tuple[int, bytes]]] = [[] for _ in range(batch.count)]
    if not held:
        return out
    run_starts = np.fromiter((s for s, _, _ in held), dtype=np.int64, count=len(held))
    run_stops = np.fromiter((e for _, e, _ in held), dtype=np.int64, count=len(held))
    run_bufs = np.fromiter((b for _, _, b in held), dtype=np.int64, count=len(held))
    a_idx, b_idx, lo, hi = clip_many(batch.starts, batch.stops, run_starts, run_stops)
    piece_dest = batch.dest[a_idx].tolist()
    src = (run_bufs[b_idx] + (lo - run_starts[b_idx])).tolist()
    for dest, piece_lo, piece_src, piece_hi in zip(
        piece_dest, lo.tolist(), src, hi.tolist()
    ):
        out[dest].append(
            (piece_lo, bytes(buffer[piece_src : piece_src + (piece_hi - piece_lo)]))
        )
    return out


def node_coverages(
    coverages: Sequence[IntervalSet], ranks_per_node: int
) -> List[IntervalSet]:
    """Union of the consumers' requested byte sets, one set per node.

    ``coverages[r]`` is rank ``r``'s request; under the block rank-to-node
    placement (``ranks_per_node`` consecutive ranks per node, as in
    :func:`node_leaders`) the union of a node's requests is what must cross
    the inter-node network to that node *once* in a hierarchical read —
    however many of the node's ranks ask for the same byte.  Deterministic
    and communication-free, like the rest of the negotiation.
    """
    if ranks_per_node <= 0:
        raise ValueError("ranks_per_node must be positive")
    return [
        merge_interval_sets(coverages[base : base + ranks_per_node])
        for base in range(0, len(coverages), ranks_per_node)
    ]


def gather_runs(
    pieces: Sequence[Tuple[int, bytes]],
) -> Tuple[List[Tuple[int, int, int]], bytearray]:
    """Splice disjoint ``(file_offset, data)`` pieces into resident runs.

    The inverse of one :func:`scatter_pieces` cut: the pieces a node leader
    received from the global aggregators become ``(start, stop,
    buffer_offset)`` runs over one concatenated buffer — the exact ``held`` /
    ``buffer`` shape :func:`scatter_pieces` consumes, so the leader can cut
    again for its local ranks.  Pieces must be pairwise disjoint (aggregator
    file domains are), else ``ValueError``.
    """
    held: List[Tuple[int, int, int]] = []
    buffer = bytearray()
    for off, data in sorted(pieces):
        if not data:
            continue
        if held and off < held[-1][1]:
            raise ValueError(
                "overlapping pieces delivered to gather_runs: "
                f"[{held[-1][0]}, {held[-1][1]}) and [{off}, {off + len(data)}) "
                "share bytes"
            )
        held.append((off, off + len(data), len(buffer)))
        buffer.extend(data)
    return held, buffer


def assemble_stream(
    pieces: Sequence[Tuple[int, bytes]],
    buffer_map: Sequence[Tuple[int, int, int]],
    total_bytes: int,
) -> Tuple[bytes, int]:
    """Place received ``(file_offset, data)`` pieces into a contiguous stream.

    ``buffer_map`` is the consumer's
    :meth:`~repro.core.regions.FileRegionSet.buffer_map`; the returned stream
    is the rank's user data stream with every covered byte filled from the
    pieces.  Returns ``(stream, filled_bytes)`` so the caller can verify that
    the scatter delivered the whole request.

    The pieces must be pairwise disjoint (a correct scatter cuts each
    consumer's request into non-overlapping pieces); overlapping deliveries
    raise ``ValueError``.  Silently accepting them would double-count
    ``filled`` — the routing below bisects over sorted *disjoint* runs — and
    a duplicated delivery could then mask a short scatter that left part of
    the request unfilled.
    """
    stream = bytearray(total_bytes)
    filled = 0
    ordered = sorted(pieces)
    starts = [off for off, _ in ordered]
    stops = [off + len(data) for off, data in ordered]
    for idx in range(1, len(ordered)):
        if starts[idx] < stops[idx - 1]:
            raise ValueError(
                "overlapping pieces delivered to assemble_stream: "
                f"[{starts[idx - 1]}, {stops[idx - 1]}) and "
                f"[{starts[idx]}, {stops[idx]}) share bytes"
            )
    for buf_off, file_off, length in buffer_map:
        for lo, hi, idx in clip_sorted_runs(starts, stops, file_off, file_off + length):
            off, data = ordered[idx]
            stream[buf_off + (lo - file_off) : buf_off + (hi - file_off)] = data[
                lo - off : hi - off
            ]
            filled += hi - lo
    return bytes(stream), filled


def node_scatter_batch(self: Negotiation) -> QueryBatch:
    """The per-node *union* requests as the one query batch every
    aggregator's cut clips against, built on first use (a write never
    needs it).  The union of one rank's request is that request."""
    if self.ranks_per_node == 1:
        return self.scatter_batch
    return QueryBatch.of(node_coverages(self.coverages, self.ranks_per_node))


class ReferenceShuffle:
    """The parent's write and read delivery coroutines of the two-phase schedule."""

    def _merge(self, received) -> list:
        """The ``[(src, runs)]`` a hop delivered, merged: highest priority wins."""
        if not received:
            return []
        return merge_origin_runs([run for _, sent in received for run in sent], self.policy)

    def shuffle(self, region: FileRegionSet, data: bytes, neg: Negotiation):
        """This rank's write schedule, as a coroutine (see :func:`_pump`);
        returns ``(plan, payloads)``."""
        # All P coroutines are alive between rounds, so the hops reuse
        # ``outgoing`` / ``received`` rather than keep each hop's dicts.
        neg = Legacy(neg)
        rank, ppn = region.rank, self.ranks_per_node
        leader, hops = rank - rank % ppn, self._hops
        runs = [
            (rank, file_off, data[buf_off : buf_off + length])
            for buf_off, file_off, length in region.buffer_map()
        ]

        # Node hop — combine: ship this rank's raw view pieces to its node
        # leader, which sees every piece of its node and pre-merges them,
        # keeping per-byte origins.  No routing yet.
        shuffled = 0
        if hops == 2:
            outgoing = {leader: runs} if runs else {}
            shuffled = _bytes_to_others(rank, outgoing)
            received = yield outgoing
            runs = [(run.origin, run.offset, run.data) for run in self._merge(received)]

        # Global hop — shuffle: route each run through the file-ordered piece
        # table to the aggregator owning each byte, by bisection, so the cost
        # scales with the rank's own run count, not the aggregator count.
        outgoing: Dict[int, List[Tuple[int, int, bytes]]] = {}
        for origin, offset, piece in runs:
            for lo, hi, idx in clip_sorted_runs(
                neg.piece_starts, neg.piece_stops, offset, offset + len(piece)
            ):
                outgoing.setdefault(neg.pieces[idx][2], []).append(
                    (origin, lo, piece[lo - offset : hi - offset])
                )
        shuffled += _bytes_to_others(rank, outgoing)
        received = yield outgoing

        # Only aggregators receive; the fixed total order of the merge makes
        # this merge of node merges the flat merge.
        merged = self._merge(received)

        # Write phase: the merged runs become parallel disjoint direct writes
        # — no locks, no barriers — each recording its origin as provenance.
        steps: List[TransferStep] = []
        at = 0
        for run in merged:
            steps.append(
                TransferStep(
                    buffer_offset=at,
                    file_offset=run.offset,
                    length=run.length,
                    buffer=AGGREGATE_PAYLOAD,
                    writer=run.origin,
                )
            )
            at += run.length
        plan = self._plan(
            "write",
            region,
            phases=[PhasePlan(index=hops, steps=steps, direct=True)],
            reported_phases=hops + 1,
            my_phase=hops if rank in neg.agg_set else hops - 1 if rank == leader else 0,
            bytes_surrendered=neg.surrendered[rank],
            bytes_shuffled=shuffled,
            extra=self._roles(neg),
        )
        aggregate = b"".join(run.data for run in merged)
        return plan, {USER_PAYLOAD: data, AGGREGATE_PAYLOAD: aggregate}

    def scatter(
        self,
        region: FileRegionSet,
        neg: Negotiation,
        outcome: IOOutcome,
        sinks: Dict[str, bytearray],
    ):
        """This rank's read delivery, as a coroutine (see :func:`_pump`);
        returns the rank's data stream."""
        neg = Legacy(neg)
        rank, ppn = region.rank, self.ranks_per_node

        # Global hop — scatter: cut the fetched chunk against each node's
        # union request and ship a node's pieces to its leader, so a byte
        # crosses the inter-node network once however many of the node's
        # ranks cover it.
        outgoing: Dict[int, List[Tuple[int, bytes]]] = {}
        held = neg.held.get(rank)
        if held:
            cut = scatter_pieces(held, sinks[AGGREGATE_PAYLOAD], node_scatter_batch(neg))
            outgoing = {node * ppn: bufs for node, bufs in enumerate(cut) if bufs}
        shuffled = _bytes_to_others(rank, outgoing)
        received = yield outgoing

        # Node hop: a leader splices the disjoint pieces it received into a
        # node-resident buffer and cuts it again, per local rank this time;
        # every rank receives exactly the pieces of its own view.
        if self._hops == 2:
            outgoing = {}
            if received:
                node_held, node_buffer = gather_runs(
                    [piece for _, sent in received for piece in sent]
                )
                cut = scatter_pieces(
                    node_held, node_buffer, window(neg.scatter_batch, rank, rank + ppn)
                )
                outgoing = {dest: bufs for dest, bufs in enumerate(cut, start=rank) if bufs}
            shuffled += _bytes_to_others(rank, outgoing)
            received = yield outgoing

        outcome.bytes_shuffled = shuffled
        stream, filled = assemble_stream(
            [piece for _, sent in received for piece in sent],
            region.buffer_map(),
            region.total_bytes,
        )
        outcome.extra["scatter_filled_bytes"] = float(filled)
        return stream


def reference(strategy_cls):
    """``strategy_cls`` with the coroutines above in place of its own."""
    return type(f"Reference{strategy_cls.__name__}", (ReferenceShuffle, strategy_cls), {})
