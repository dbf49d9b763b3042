"""Sweep merge ≡ byte-painting merge on generated piece lists; merge of
merges ≡ flat merge.

``repro.core.aggregation.merge_origin_runs`` resolves an aggregator's
conflicts by sweeping piece boundaries; the merge it replaced painted every
piece into per-byte arrays in ascending priority order and lives on, verbatim,
as ``tests/reference_merge.py``.  Hypothesis draws piece lists
(``generators.piece_lists``: repeated origins, touching / nested / identical /
zero-length extents, holes of gigabytes, ``bytes`` / ``bytearray`` /
``memoryview`` data, ``int`` or numpy-integer origins and offsets, plain
tuples or ``AggregatedRun`` records, overlapping pieces of *one* origin with
different bytes — where only the paint order among an origin's own pieces
decides) and the two must return identical ``AggregatedRun`` lists under the
paper's policy, its reverse, and a constant policy (every priority ties; the
lower rank wins) — every example under all three.

The second property is the one two-level aggregation rests on: merge each
group of a partition, merge the groups' runs again, and the result is the flat
merge's — with the sweep on both tiers.  Between different origins the winner
is fixed by ``(policy(origin), -origin)`` whatever the grouping, so any
partition *of the pieces* will do when no origin overlaps itself; an origin's
own overlapping pieces are ordered by offset and position, which only their
common merge sees, so then the partition is *of the origins* — the shape the
hierarchical shuffle has, where a rank ships all its pieces to one leader.

The third property is the one the two-phase write shuffle rests on: it
merges nothing, but cuts every hop's runs out of what arrived following
routes the negotiation read off its coverage-run kernel
(``Negotiation.write_routes``).  On generated views (``generators.view_sets``,
``ranks_per_node`` 1–4 with the rank count not a multiple of it, drawn
``cb_nodes`` / ``cb_buffer_size``, the paper's policy, its reverse, or pairs of
ranks tying), every node leader's runs — cut at the aggregators' pieces — and
every aggregator's runs must be ``merge_origin_runs`` of exactly what that hop
received, and that merge the byte-painting one.

The fourth property is the read's: its scatter cuts nothing either, but
slices each hop's source following routes built once per collective
(``Negotiation.read_routes``).  On the same generated collectives, every
aggregator's hop-0 rows and every leader's hop-1 rows must send exactly the
pieces the parent's per-aggregator clips sent — ``scatter_pieces`` against
the node unions, then ``gather_runs`` and a clip against the leader's
``window`` — kept verbatim in ``tests/reference_shuffle.py``; and what hop 0
owes a leader, which its delivery is checked against, must be its node's
union (``node_coverages``).

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module about a second, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
import reference_merge
import reference_shuffle
from generators import piece_lists
from repro.core.aggregation import AggregatedRun, joined, merge_origin_runs, merge_pieces
from repro.core.intervals import IntervalSet, clip_sorted_runs
from repro.core.pipeline import step_runs
from repro.core.rank_ordering import HIGHER_RANK_WINS, LOWER_RANK_WINS
from repro.core.regions import FileRegionSet
from repro.core.strategies import (
    AGGREGATE_PAYLOAD,
    HierarchicalTwoPhaseStrategy,
    TwoPhaseStrategy,
)

#: Every example is checked under each: the paper's rule, its reverse, and a
#: policy under which every priority ties.
POLICIES = (HIGHER_RANK_WINS, LOWER_RANK_WINS, lambda rank: 0)


def overlaps_itself(pieces) -> bool:
    """Whether two pieces of one origin share a byte."""
    ends = {}
    for origin, off, data in sorted(pieces, key=lambda piece: piece[:2]):
        if len(data) and off < ends.get(origin, 0):
            return True
        ends[origin] = max(ends.get(origin, 0), off + len(data))
    return False


@given(pieces=piece_lists())
def test_sweep_merge_equals_byte_painting_merge(pieces):
    for policy in POLICIES:
        merged = merge_origin_runs(pieces, policy)
        assert merged == reference_merge.merge_origin_runs(pieces, policy)
        assert all(type(run.data) is bytes and run.length > 0 for run in merged)
        # Disjoint, in file order, and touching runs differ in origin.
        for before, after in zip(merged, merged[1:]):
            gap = after.offset - (before.offset + before.length)
            assert gap > 0 or (gap == 0 and before.origin != after.origin)


@given(pieces=piece_lists(), data=st.data())
def test_merge_of_any_groupings_merges_equals_flat_merge(pieces, data):
    keys = [piece[0] for piece in pieces] if overlaps_itself(pieces) else range(len(pieces))
    group_of = data.draw(st.fixed_dictionaries({key: st.integers(0, 2) for key in keys}))
    order = data.draw(st.permutations(range(3)))
    for policy in POLICIES:
        tier1 = [
            merge_origin_runs(
                [piece for key, piece in zip(keys, pieces) if group_of[key] == group], policy
            )
            for group in order
        ]
        # The runs are merged again as they are: a run is a piece.
        two_level = merge_origin_runs([run for runs in tier1 for run in runs], policy)
        assert two_level == merge_origin_runs(pieces, policy)


@given(pieces=piece_lists())
def test_merge_pieces_is_merge_origin_runs_of_the_flattened_senders(pieces):
    by_sender = [
        (origin, [(off, data) for _, off, data in sent])
        for origin, sent in groupby(pieces, key=lambda piece: piece[0])
    ]
    for policy in POLICIES:
        assert merge_pieces(by_sender, policy) == merge_origin_runs(pieces, policy)


def test_negative_offsets_are_refused_as_before():
    pieces = [(0, 4, b"ab"), (1, -1, b"cd")]
    for merge in (merge_origin_runs, reference_merge.merge_origin_runs):
        with pytest.raises(ValueError, match="negative offsets not allowed"):
            merge(pieces)


# -- the write shuffle's routes -----------------------------------------------------------

FILE_BYTES = 40


def pair_ranks(rank: int) -> int:
    """A priority under which ranks ``2k`` and ``2k + 1`` tie."""
    return rank // 2


@st.composite
def shuffles(draw):
    """``(regions, strategy, data)``: one two-phase write collective."""
    views = draw(generators.view_sets(FILE_BYTES, min_ranks=1, max_ranks=9))
    ppn = draw(st.sampled_from([1] + [k for k in (2, 3, 4) if len(views) % k]))
    tunables = dict(
        num_aggregators=draw(st.none() | st.integers(1, 12)),
        cb_buffer_size=draw(st.none() | st.integers(1, FILE_BYTES)),
        policy=draw(st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS, pair_ranks])),
    )
    if ppn == 1:
        strategy = TwoPhaseStrategy(**tunables)
    else:
        strategy = HierarchicalTwoPhaseStrategy(ranks_per_node=ppn, **tunables)
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    data = [draw(st.binary(min_size=r.total_bytes, max_size=r.total_bytes)) for r in regions]
    return regions, strategy, data


def run_shuffle(regions, strategy, data):
    """Drive every rank's shuffle in lockstep.  Returns the negotiation,
    ``received[k][rank]`` — what ``rank`` was resumed with before its round
    ``k`` (the last entry: before it returned) — ``sent[k][rank]``, and the
    ranks' return values."""
    neg = strategy.negotiate(regions)
    schedules = [strategy.shuffle(r, d, neg) for r, d in zip(regions, data)]
    inboxes, received, sent = [None] * len(regions), [], []
    while True:
        outgoing, returned = [], []
        for schedule, inbox in zip(schedules, inboxes):
            try:
                outgoing.append(schedule.send(inbox))
            except StopIteration as done:
                returned.append(done.value)
        if returned:
            assert len(returned) == len(regions)
            return reference_shuffle.Legacy(neg), received + [inboxes], sent, returned
        received.append(inboxes)
        sent.append(outgoing)
        inboxes = [[] for _ in regions]
        for src, out in enumerate(outgoing):
            for dest, pieces in out.items():
                inboxes[dest].append((src, pieces))


def arrived(inbox) -> list:
    """Every piece of a ``[(src, pieces)]`` inbox, in arrival order."""
    return [piece for _, sent in inbox for piece in sent]


@given(case=shuffles())
def test_every_hops_routed_runs_are_the_merge_of_what_it_received(case):
    regions, strategy, data = case
    policy = strategy.policy
    neg, received, sent, returned = run_shuffle(regions, strategy, data)
    hops = 1 + (strategy.ranks_per_node > 1)
    assert len(sent) == hops
    if hops == 2:
        # Leaders: the merge of their node's pieces, cut at the pieces of the
        # routing table, each cut to the aggregator owning it, in file order.
        for rank, inbox in enumerate(received[1]):
            merged = merge_origin_runs(arrived(inbox), policy)
            assert merged == reference_merge.merge_origin_runs(arrived(inbox), policy)
            want = {}
            for origin, offset, piece in merged:
                for lo, hi, idx in clip_sorted_runs(
                    neg.piece_starts, neg.piece_stops, offset, offset + len(piece)
                ):
                    want.setdefault(neg.pieces[idx][2], []).append(
                        (origin, lo, piece[lo - offset : hi - offset])
                    )
            assert list(sent[1][rank].items()) == list(want.items()), f"leader {rank}"
    # Aggregators: the runs of their steps, as the client writes them, and
    # their payload are the merge of what they received.
    for rank, (inbox, (plan, payloads)) in enumerate(zip(received[-1], returned)):
        merged = merge_origin_runs(arrived(inbox), policy)
        assert merged == reference_merge.merge_origin_runs(arrived(inbox), policy)
        aggregate = payloads[AGGREGATE_PAYLOAD]
        kept = [
            AggregatedRun(writer, file_offset, payloads[buffer][at : at + length])
            for phase in plan.phases
            for at, file_offset, length, buffer, writer in step_runs(phase.steps)
        ]
        assert kept == merged, f"aggregator {rank}"
        assert type(aggregate) is bytes
        assert len(aggregate) == sum(run.length for run in merged)


# -- the read scatter's routes ------------------------------------------------------------


def routed(routes, hop: int, holder: int, source: bytes) -> dict:
    """What ``holder`` sends on ``hop`` by its rows, slicing ``source``."""
    out = {}
    for dest, offset, lo, hi in routes.rows_of(hop, FileRegionSet(holder, [])):
        out.setdefault(dest, []).append((offset, source[lo:hi]))
    return out


@given(case=shuffles(), contents=st.binary(min_size=FILE_BYTES, max_size=FILE_BYTES))
def test_every_hops_read_routes_are_the_parents_cuts(case, contents):
    regions, strategy, _ = case
    ppn = strategy.ranks_per_node
    neg = reference_shuffle.Legacy(strategy.negotiate(regions))
    routes = neg.read_routes()
    assert len(routes.rows) == 1 + (ppn > 1)
    # Hop 0: each aggregator's fetched chunk, cut against every node's union.
    at_leader = {}
    for agg, held in neg.held.items():
        sink = bytearray(sum(stop - start for start, stop, _ in held))
        for start, stop, buf in held:
            sink[buf : buf + stop - start] = contents[start:stop]
        cut = reference_shuffle.scatter_pieces(
            held, sink, reference_shuffle.node_scatter_batch(neg)
        )
        want = {node * ppn: pieces for node, pieces in enumerate(cut) if pieces}
        assert routed(routes, 0, agg, bytes(sink)) == want, f"aggregator {agg}"
        for leader, pieces in want.items():
            at_leader.setdefault(leader, []).extend(pieces)
    assert sorted(routes.spans[0]) == sorted(neg.held)
    if ppn == 1:
        return
    # What hop 0 owes each rank: a leader its node's union, any other nothing.
    unions = reference_shuffle.node_coverages(neg.coverages, ppn)
    for rank in range(len(regions)):
        want = unions[rank // ppn] if rank % ppn == 0 else IntervalSet()
        assert routes.unions.get(rank, IntervalSet()) == want, f"rank {rank}"
    # Hop 1: what a leader received, spliced and cut per local rank.
    for leader, pieces in at_leader.items():
        node_held, node_buffer = reference_shuffle.gather_runs(pieces)
        cut = reference_shuffle.scatter_pieces(
            node_held,
            node_buffer,
            reference_shuffle.window(neg.scatter_batch, leader, leader + ppn),
        )
        want = {dest: pieces for dest, pieces in enumerate(cut, start=leader) if pieces}
        assert routed(routes, 1, leader, joined([(None, pieces)])) == want, f"leader {leader}"
    assert sorted(routes.spans[1]) == sorted(at_leader)

