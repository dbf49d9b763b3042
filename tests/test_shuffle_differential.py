"""Two-phase shuffle and scatter ≡ the coroutines they replaced, on generated
views.

``TwoPhaseStrategy.shuffle`` (a write's delivery to the aggregators) and
``TwoPhaseStrategy.scatter`` (a read's delivery back to the consumers) are
the one schedule both drivers run.  Their previous bodies live on, verbatim,
in ``tests/reference_shuffle.py``.  Hypothesis draws view sets
(``generators.view_sets``: irregular, nested, identical and empty views),
``ranks_per_node`` 1–4, ``cb_nodes`` and ``cb_buffer_size``, a priority
policy — the paper's, its reverse, or one under which pairs of ranks tie —
and every rank's data as ``bytes`` or ``bytearray``.  The old and the new
coroutines of all ``P`` ranks are then driven in lockstep, each side fed what
its own side sent, and must agree on:

* every yielded ``{dest: [pieces]}``, round by round: keys in order, pieces
  in order, each piece a plain tuple with the same types in it (what goes on
  the wire is what ``payload_nbytes`` counts);
* for ``shuffle``, the returned plan (every field, hence ``bytes_shuffled``,
  and every step as the client writes it: ``pipeline.step_runs`` gives a
  span step's runs, the reference plans one step per run) and the payloads;
* for ``scatter``, the returned stream and every outcome field it sets.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module about a second, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import event, given
from hypothesis import strategies as st

import generators
from reference_shuffle import Legacy, reference
from repro.core.pipeline import step_runs
from repro.core.rank_ordering import HIGHER_RANK_WINS, LOWER_RANK_WINS
from repro.core.regions import FileRegionSet
from repro.core.strategies import (
    AGGREGATE_PAYLOAD,
    HierarchicalTwoPhaseStrategy,
    IOOutcome,
    TwoPhaseStrategy,
)

FILE_BYTES = 40
MAX_RANKS = 9


def pair_ranks(rank: int) -> int:
    """A priority under which ranks ``2k`` and ``2k + 1`` tie: the merge's
    tie-break towards the lower rank decides between them."""
    return rank // 2


@st.composite
def setups(draw):
    """``(views, new strategy, old strategy, data)`` for one collective."""
    views = draw(generators.view_sets(FILE_BYTES, max_ranks=MAX_RANKS))
    ppn = draw(st.integers(1, 4))
    tunables = dict(
        num_aggregators=draw(st.none() | st.integers(1, MAX_RANKS + 3)),
        cb_buffer_size=draw(st.none() | st.integers(1, FILE_BYTES)),
        policy=draw(st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS, pair_ranks])),
    )
    if ppn == 1:
        cls = TwoPhaseStrategy
    else:
        cls = HierarchicalTwoPhaseStrategy
        tunables["ranks_per_node"] = ppn
    holder = draw(st.sampled_from([bytes, bytearray]))
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    data = [
        holder(draw(st.binary(min_size=r.total_bytes, max_size=r.total_bytes)))
        for r in regions
    ]
    event(f"{cls.__name__}, ppn {ppn}, {holder.__name__}")
    return regions, cls(**tunables), reference(cls)(**tunables), data


def wire(outgoing: dict) -> list:
    """A yielded exchange with the type of every piece and of its parts."""
    return [
        (dest, [(piece, type(piece), [type(part) for part in piece]) for piece in pieces])
        for dest, pieces in outgoing.items()
    ]


def drive_in_lockstep(new, old) -> tuple:
    """Advance both sides' coroutines round by round, requiring equal
    messages; returns both sides' return values."""
    nprocs = len(new)
    inboxes = {"new": [None] * nprocs, "old": [None] * nprocs}
    while True:
        sent = {"new": [], "old": []}
        returned = {"new": [], "old": []}
        for side, schedules in (("new", new), ("old", old)):
            for rank, schedule in enumerate(schedules):
                try:
                    sent[side].append(schedule.send(inboxes[side][rank]))
                except StopIteration as done:
                    returned[side].append(done.value)
        assert len(returned["new"]) == len(returned["old"])
        if returned["new"]:
            assert len(returned["new"]) == nprocs
            return returned["new"], returned["old"]
        for rank in range(nprocs):
            assert wire(sent["new"][rank]) == wire(sent["old"][rank]), f"rank {rank}"
        for side in ("new", "old"):
            arriving = [[] for _ in range(nprocs)]
            for rank, outgoing in enumerate(sent[side]):
                for dest, payload in outgoing.items():
                    arriving[dest].append((rank, payload))
            inboxes[side] = arriving


@given(setup=setups())
def test_shuffle_matches_the_reference_coroutine(setup):
    regions, new, old, data = setup
    negotiation = new.negotiate(regions)
    got, want = drive_in_lockstep(
        [new.shuffle(r, d, negotiation) for r, d in zip(regions, data)],
        [old.shuffle(r, d, negotiation) for r, d in zip(regions, data)],
    )
    for (plan, payloads), (old_plan, old_payloads) in zip(got, want):
        # Dataclass equality: every field, and every step's runs.
        assert as_runs(plan) == as_runs(old_plan)
        assert plan.bytes_shuffled == old_plan.bytes_shuffled
        assert payloads == old_payloads
        assert {k: type(v) for k, v in payloads.items()} == {
            k: type(v) for k, v in old_payloads.items()
        }


def as_runs(plan):
    """``plan`` with each phase's steps as the ``(buffer_offset, file_offset,
    length, buffer, writer)`` transfers the client makes of them."""
    return replace(plan, phases=[replace(p, steps=list(step_runs(p.steps))) for p in plan.phases])


@given(setup=setups(), contents=st.binary(min_size=FILE_BYTES, max_size=FILE_BYTES))
def test_scatter_matches_the_reference_coroutine(setup, contents):
    regions, new, old, _ = setup
    negotiation = new.negotiate(regions)
    sides = []
    for strategy in (new, old):
        outcomes, sinks = [], []
        for region in regions:
            plan = strategy.fetch_plan(region, negotiation)
            sink = plan.sinks()
            # What the aggregator's fetch phase reads: its chunks of the file.
            for start, stop, buf in Legacy(negotiation).held.get(region.rank, ()):
                sink[AGGREGATE_PAYLOAD][buf : buf + stop - start] = contents[start:stop]
            outcomes.append(IOOutcome.from_plan(plan, 0.0))
            sinks.append(sink)
        sides.append(
            (
                [
                    strategy.scatter(region, negotiation, outcome, sink)
                    for region, outcome, sink in zip(regions, outcomes, sinks)
                ],
                outcomes,
            )
        )
    (new_schedules, new_outcomes), (old_schedules, old_outcomes) = sides
    streams, old_streams = drive_in_lockstep(new_schedules, old_schedules)
    assert streams == old_streams
    assert [type(s) for s in streams] == [type(s) for s in old_streams]
    assert new_outcomes == old_outcomes
    for region, stream in zip(regions, streams):
        for buf, off, length in region.buffer_map():
            assert stream[buf : buf + length] == contents[off : off + length]
