"""The two-phase negotiation's piece table and surrender counts against
their definitions, and how many winner sweeps a collective makes.

The negotiation cuts the covered domain into one piece table — int64
columns ``(start, stop, aggregator, sink)`` — that the read's fetch plan and
both directions' routes read.  On generated view sets
(``generators.view_sets``, ``ranks_per_node`` 1–4, drawn ``cb_nodes`` /
``cb_buffer_size``) the table must be the aggregators' chunks in file order,
each aggregator's pieces back to back in its sink from 0.

A two-phase write reports each rank's surrendered bytes, read off the same
winner sweep its aggregators keep by.  On the same generated collectives,
under the paper's policy, its reverse and a policy on which pairs of ranks
tie, every outcome's ``bytes_surrendered`` on both drivers must be
``surrendered_bytes_by_priority`` — its definition, independent of the
routes and of every oracle.

An aggregator writes one plan step per maximal file-contiguous stretch of
its keep rows (the write routes' rows after the last hop), closed only
before a run that would take it past ``cb_buffer_size``; each step names its
``(origin, length)`` runs.  On the same collectives the steps must be those
stretches, their runs expanded (``pipeline.step_runs``) the keep rows in
order, and the servers must still see one request per run, on both drivers
(each run one of the outcomes' ``segments_moved``).

The sweep is made twice per write (once per tier: node winners, then global
ones) and never on a read; the counting test pins it on both drivers.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import generators
from repro.core import aggregation, rank_ordering
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.intervals import IntervalSet, merge_interval_sets
from repro.core.pipeline import step_runs
from repro.core.rank_ordering import (
    HIGHER_RANK_WINS,
    LOWER_RANK_WINS,
    surrendered_bytes_by_priority,
)
from repro.core.regions import FileRegionSet
from repro.core.strategies import HierarchicalTwoPhaseStrategy, TwoPhaseStrategy
from repro.fs import ParallelFileSystem
from repro.mpi.clock import VirtualClock
from repro.patterns.partition import column_wise_views
from repro.patterns.workloads import rank_pattern_bytes
from tests.conftest import fast_fs_config

FILE_BYTES = 40


def pair_ranks(rank: int) -> int:
    """A priority under which ranks ``2k`` and ``2k + 1`` tie."""
    return rank // 2


@st.composite
def collectives(draw):
    """``(views, make_strategy)``: one two-phase collective, a fresh,
    identically tuned strategy per run."""
    views = draw(generators.view_sets(FILE_BYTES, min_ranks=1, max_ranks=9))
    ppn = draw(st.integers(1, 4))
    tunables = dict(
        num_aggregators=draw(st.none() | st.integers(1, 12)),
        cb_buffer_size=draw(st.none() | st.integers(1, FILE_BYTES)),
        policy=draw(st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS, pair_ranks])),
    )
    if ppn == 1:
        return views, lambda: TwoPhaseStrategy(**tunables)
    return views, lambda: HierarchicalTwoPhaseStrategy(ranks_per_node=ppn, **tunables)


@given(case=collectives())
def test_the_piece_table_is_the_chunks_in_file_order(case):
    views, make_strategy = case
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    neg = make_strategy().negotiate(regions)
    starts, stops, aggregator, sink = neg.pieces
    assert neg.pieces.dtype == np.int64 and neg.pieces.shape == (4, len(starts))
    assert (starts < stops).all() and (stops[:-1] <= starts[1:]).all()
    assert (np.diff(aggregator) >= 0).all()
    domain = merge_interval_sets([r.coverage for r in regions])
    assert IntervalSet(list(zip(starts.tolist(), stops.tolist()))) == domain
    assert sorted(neg.chunks) == sorted(neg.aggregators)
    at = 0
    for agg, (first, last) in neg.chunks.items():
        assert first == at and (aggregator[first:last] == agg).all(), f"aggregator {agg}"
        length = stops[first:last] - starts[first:last]
        assert sink[first:last].tolist() == (np.cumsum(length) - length).tolist()
        at = last
    assert at == len(starts)


@given(case=collectives())
def test_every_writes_surrendered_bytes_are_the_definitions(case):
    views, make_strategy = case
    for executor_cls in (AtomicWriteExecutor, BulkWriteExecutor):
        strategy = make_strategy()
        fs = ParallelFileSystem(fast_fs_config())
        result = executor_cls(fs, strategy, filename="spec.dat").run(
            len(views), lambda rank, P: views[rank], rank_pattern_bytes
        )
        want = surrendered_bytes_by_priority(result.regions, strategy.policy)
        got = [outcome.bytes_surrendered for outcome in result.outcomes]
        assert got == want, executor_cls.__name__


def write_plans(regions, strategy):
    """Every rank's write plan and the negotiation, the shuffles driven in
    lockstep as the bulk driver drives them."""
    neg = strategy.negotiate(regions)
    shuffles = [
        strategy.shuffle(r, rank_pattern_bytes(r.rank, r.total_bytes), neg) for r in regions
    ]
    executor = BulkWriteExecutor(ParallelFileSystem(fast_fs_config()), strategy)
    prepared = executor._lockstep(shuffles, [VirtualClock() for _ in regions])
    return [plan for plan, _ in prepared], neg


@given(case=collectives())
# Three touching runs, one aggregator: the first two fill the limit exactly.
@example(case=([[(0, 4)], [(4, 4)], [(8, 4)]], lambda: TwoPhaseStrategy(1, cb_buffer_size=8)))
def test_each_aggregator_writes_one_step_per_contiguous_span(case):
    views, make_strategy = case
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    strategy = make_strategy()
    limit = strategy.cb_buffer_size
    plans, neg = write_plans(regions, strategy)
    routes = neg.write_routes()
    for region, plan in zip(regions, plans):
        steps = [step for phase in plan.phases for step in phase.steps]
        # Each step is a contiguous stretch, in file and buffer, of its runs;
        # a step over the limit is one run; the next step starts past a gap,
        # or its first run would have taken this one past the limit.
        at = 0
        for step in steps:
            assert step.buffer_offset == at and step.writer is None, f"rank {region.rank}"
            assert step.length == sum(length for _, length in step.runs) > 0
            assert limit is None or step.length <= limit or len(step.runs) == 1
            at += step.length
        for step, after in zip(steps, steps[1:]):
            if step.file_offset + step.length == after.file_offset:
                assert limit is not None and step.length + after.runs[0][1] > limit
        # Expanded, the runs are the keep rows in order.
        rows = routes.rows_of(strategy._hops, region)
        kept = [(origin, offset, hi - lo) for _, origin, offset, lo, hi in rows]
        runs = [(writer, offset, length) for _, offset, length, _, writer in step_runs(steps)]
        assert runs == kept, f"rank {region.rank}"


@given(case=collectives())
def test_the_servers_see_one_request_per_run(case):
    """And every outcome's ``segments_moved`` counts runs, not steps."""
    views, make_strategy = case
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    plans, _ = write_plans(regions, make_strategy())
    runs = sum(len(list(step_runs(phase.steps))) for plan in plans for phase in plan.phases)
    for executor_cls in (AtomicWriteExecutor, BulkWriteExecutor):
        fs = ParallelFileSystem(fast_fs_config())  # stripes wider than the file
        result = executor_cls(fs, make_strategy(), filename="spec.dat").run(
            len(views), lambda rank, P: views[rank], rank_pattern_bytes
        )
        assert fs.servers.total_requests() == runs, executor_cls.__name__
        assert sum(o.segments_moved for o in result.outcomes) == runs, executor_cls.__name__


class TestWinnerSweeps:
    """``_group_winners`` runs twice per two-phase write — the node winners
    and the global ones, from which the surrender counts are read too — and
    never on a read."""

    VIEWS = column_wise_views(M=8, N=512, P=16, R=4)

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        real = rank_ordering._group_winners

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rank_ordering, "_group_winners", counting)
        monkeypatch.setattr(aggregation, "_group_winners", counting)
        return calls

    @pytest.mark.parametrize("ppn", [1, 8])
    @pytest.mark.parametrize("driver", ["engine", "bulk"])
    def test_two_per_write_none_per_read(self, sweeps, ppn, driver):
        writer_cls, reader_cls = {
            "engine": (AtomicWriteExecutor, CollectiveReadExecutor),
            "bulk": (BulkWriteExecutor, BulkReadExecutor),
        }[driver]
        fs = ParallelFileSystem(fast_fs_config())
        views = lambda rank, P: self.VIEWS[rank]  # noqa: E731
        runs = ((writer_cls, [rank_pattern_bytes], 2), (reader_cls, [], 0))
        for executor_cls, extra, want in runs:
            del sweeps[:]
            strategy = HierarchicalTwoPhaseStrategy(ranks_per_node=ppn)
            executor_cls(fs, strategy, filename="sweeps.dat").run(16, views, *extra)
            assert len(sweeps) == want, executor_cls.__name__
