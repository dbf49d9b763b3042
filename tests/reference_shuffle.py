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
sweep merge shows as a difference here too.

Never imported by ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from reference_merge import merge_origin_runs
from repro.core.aggregation import assemble_stream, gather_runs, scatter_pieces
from repro.core.intervals import clip_sorted_runs
from repro.core.pipeline import USER_PAYLOAD, PhasePlan, TransferStep
from repro.core.regions import FileRegionSet
from repro.core.strategies import AGGREGATE_PAYLOAD, IOOutcome, Negotiation

__all__ = ["ReferenceShuffle", "reference"]


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
        rank, ppn = region.rank, self.ranks_per_node

        # Global hop — scatter: cut the fetched chunk against each node's
        # union request and ship a node's pieces to its leader, so a byte
        # crosses the inter-node network once however many of the node's
        # ranks cover it.
        outgoing: Dict[int, List[Tuple[int, bytes]]] = {}
        held = neg.held.get(rank)
        if held:
            cut = scatter_pieces(held, sinks[AGGREGATE_PAYLOAD], neg.node_scatter_batch)
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
                    node_held, node_buffer, neg.scatter_batch.window(rank, rank + ppn)
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
