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

The sweep is made twice per write (once per tier: node winners, then global
ones) and never on a read; the counting test pins it on both drivers.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from repro.core import aggregation, rank_ordering
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.intervals import IntervalSet, merge_interval_sets
from repro.core.rank_ordering import (
    HIGHER_RANK_WINS,
    LOWER_RANK_WINS,
    surrendered_bytes_by_priority,
)
from repro.core.regions import FileRegionSet
from repro.core.strategies import HierarchicalTwoPhaseStrategy, TwoPhaseStrategy
from repro.fs import ParallelFileSystem
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
