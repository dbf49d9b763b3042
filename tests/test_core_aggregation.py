"""Unit tests for the aggregation layer's records and the two-phase read's
delivery.

The read scatter checks what each hop brought a rank: the pieces, in file
order, must tile exactly what the hop owes it — a leader its node's union,
every rank its own request.  A dropped, duplicated, overlapping or stray
piece then raises, naming the rank, instead of wrong bytes looking like a
complete delivery.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import AggregatedRun, QueryBatch, joined, merge_origin_runs
from repro.core.intervals import IntervalSet
from repro.core.regions import FileRegionSet
from repro.core.strategies import (
    AGGREGATE_PAYLOAD,
    HierarchicalTwoPhaseStrategy,
    IOOutcome,
    TwoPhaseStrategy,
)


class TestAggregatedRun:
    def test_an_immutable_record_with_a_length(self):
        run = AggregatedRun(3, 10, b"abcd")
        assert run == AggregatedRun(offset=10, data=b"abcd", origin=3)
        # The shape of the pieces the merge takes: a run is merged again as is.
        assert tuple(run) == (3, 10, b"abcd")
        assert (run.offset, run.data, run.origin, run.length) == (10, b"abcd", 3, 4)
        with pytest.raises(AttributeError):
            run.origin = 4
        with pytest.raises(AttributeError):
            run.extra = 1

    def test_the_merge_returns_records(self):
        runs = merge_origin_runs([(1, 0, b"aaaa"), (2, 2, b"bb")])
        assert runs == [AggregatedRun(1, 0, b"aa"), AggregatedRun(2, 2, b"bb")]
        assert all(type(run) is AggregatedRun for run in runs)
        assert [run.length for run in runs] == [2, 2]


class TestQueryBatch:
    def test_flattens_the_coverages_in_consumer_order(self):
        batch = QueryBatch.of([IntervalSet([(4, 8), (12, 16)]), IntervalSet(), IntervalSet([(0, 2)])])
        assert batch.count == 3
        assert batch.starts.tolist() == [4, 12, 0]
        assert batch.stops.tolist() == [8, 16, 2]
        assert batch.dest.tolist() == [0, 0, 2]
        assert batch.bounds.tolist() == [0, 2, 2, 3]
        assert QueryBatch.of([]).count == 0


def test_joined_takes_both_piece_shapes_in_file_order():
    # A read's ``(offset, data)`` pieces and a write's ``(origin, offset,
    # data)`` ones, from several senders, in any order.
    assert joined([(1, [(4, b"ef")]), (0, [(0, b"abcd"), (6, b"g")])]) == b"abcdefg"
    assert joined([(3, [(2, 0, b"xy")]), (1, [(1, 5, b"z")])]) == b"zxy"
    assert joined([]) == b""


#: 16 file bytes; rank 0's view is out of file order, rank 2's is empty.
CONTENTS = bytes(range(65, 81))
VIEWS = [[(8, 4), (0, 3)], [(2, 8)], [], [(12, 4), (3, 1)], [(0, 16)]]
STRATEGIES = {
    "flat": lambda: TwoPhaseStrategy(num_aggregators=2),
    "hier": lambda: HierarchicalTwoPhaseStrategy(num_aggregators=2, ranks_per_node=2),
}


def scatter_to(strategy, hops):
    """Every rank's scatter coroutine over a file holding ``CONTENTS``, driven
    in lockstep through ``hops`` rounds of sends, and what each is about to
    get."""
    regions = [FileRegionSet(rank, view) for rank, view in enumerate(VIEWS)]
    neg = strategy.negotiate(regions)
    schedules = []
    for region in regions:
        plan = strategy.fetch_plan(region, neg)
        sinks = plan.sinks()
        for step in plan.phases[0].steps:  # what the fetch reads
            stop = step.file_offset + step.length
            sinks[AGGREGATE_PAYLOAD][step.buffer_offset : step.buffer_offset + step.length] = (
                CONTENTS[step.file_offset : stop]
            )
        schedules.append(strategy.scatter(region, neg, IOOutcome.from_plan(plan, 0.0), sinks))
    inboxes = [None] * len(regions)
    for _ in range(hops):
        arriving = [[] for _ in regions]
        for src, (schedule, inbox) in enumerate(zip(schedules, inboxes)):
            for dest, pieces in schedule.send(inbox).items():
                arriving[dest].append((src, list(pieces)))
        inboxes = arriving
    return schedules, inboxes


def scatter_to_last_hop(strategy):
    """:func:`scatter_to` up to each coroutine's last resumption."""
    return scatter_to(strategy, 1 + (strategy.ranks_per_node > 1))


def finish(schedule, inbox):
    """Resume a scatter coroutine with its last inbox; its stream."""
    with pytest.raises(StopIteration) as done:
        schedule.send(inbox)
    return done.value.value


def moved(inbox, to):
    """``inbox``'s pieces in file order, the last moved to file offset
    ``to(rest, offset)``: as many bytes as before, elsewhere."""
    pieces = sorted(piece for _, sent in inbox for piece in sent)
    offset, data = pieces.pop()
    return [(0, pieces + [(to(pieces, offset), data)])]


def size(inbox) -> int:
    """The data bytes ``inbox`` delivers."""
    return sum(len(piece[-1]) for _, sent in inbox for piece in sent)


#: Ways a hop's delivery can go wrong; the overlap and the stray piece keep
#: the delivered length, and losing the first piece in file order can leave
#: every run's end where it was.
FAULTS = {
    "dropped": lambda inbox: inbox[:-1] + [(inbox[-1][0], inbox[-1][1][:-1])],
    "dropped_first": lambda inbox: [(0, sorted(p for _, sent in inbox for p in sent)[1:])],
    "duplicated": lambda inbox: inbox + [(inbox[0][0], inbox[0][1][:1])],
    "overlapping": lambda inbox: moved(inbox, lambda rest, _: rest[-1][0] + len(rest[-1][1]) - 1),
    "stray": lambda inbox: moved(inbox, lambda _, offset: offset + 1),
}


@pytest.mark.parametrize("kind", list(STRATEGIES))
class TestScatterDelivery:
    def test_every_rank_gets_its_views_bytes_in_stream_order(self, kind):
        schedules, inboxes = scatter_to_last_hop(STRATEGIES[kind]())
        for view, schedule, inbox in zip(VIEWS, schedules, inboxes):
            stream = finish(schedule, inbox)
            assert type(stream) is bytes
            assert stream == b"".join(CONTENTS[off : off + n] for off, n in view)

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("rank", [0, 1, 3, 4])
    def test_a_faulty_delivery_raises_naming_the_rank(self, kind, fault, rank):
        schedules, inboxes = scatter_to_last_hop(STRATEGIES[kind]())
        faulty = FAULTS[fault](inboxes[rank])
        if fault in ("overlapping", "stray"):
            assert size(faulty) == sum(n for _, n in VIEWS[rank])
        with pytest.raises(ValueError, match=f"rank {rank}: the scatter delivered"):
            finish(schedules[rank], faulty)


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("leader", [0, 2, 4])
def test_a_leader_checks_its_node_union(fault, leader):
    # Hop 0 of a read over nodes of two ranks brings each leader its node's
    # union; a fault there would misplace every byte the leader sends on.
    schedules, inboxes = scatter_to(STRATEGIES["hier"](), 1)
    faulty = FAULTS[fault](inboxes[leader])
    if fault in ("overlapping", "stray"):
        assert size(faulty) == size(inboxes[leader])
    with pytest.raises(ValueError, match=f"rank {leader}: the scatter delivered"):
        schedules[leader].send(faulty)


@pytest.mark.parametrize("kind, hops, rank", [("flat", 1, 2), ("hier", 2, 2), ("hier", 1, 1)])
def test_a_rank_owed_nothing_refuses_a_piece(kind, hops, rank):
    # Rank 2's view is empty; on hop 0 of the two-rank-node read only the
    # leaders are owed anything.  A rank owed nothing and sent nothing skips
    # the tiling check, but a stray piece must not pass unseen.
    schedules, inboxes = scatter_to(STRATEGIES[kind](), hops)
    assert inboxes[rank] == []
    with pytest.raises(ValueError, match=f"rank {rank}: the scatter delivered"):
        schedules[rank].send([(0, [(0, b"A")])])
