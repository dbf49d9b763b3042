"""Hierarchical (two-level) two-phase aggregation tests.

The load-bearing property: because the merge priority is a fixed total order
over origins, node-local pre-merging followed by a global merge produces
byte-identical file contents AND per-byte provenance to the flat single-level
shuffle.  These tests pin that equivalence on the atomicity verifier suite's
workloads, plus the topology helpers and Info-hint plumbing.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import generators
from reference_shuffle import Legacy
from repro.core.aggregation import (
    choose_aggregators,
    choose_node_aggregators,
    merge_origin_runs,
    merge_pieces,
    node_leaders,
)
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.intervals import IntervalSet, merge_interval_sets
from repro.core.rank_ordering import HIGHER_RANK_WINS, LOWER_RANK_WINS
from repro.core.regions import FileRegionSet
from repro.core.registry import default_registry
from repro.core.strategies import (
    HierarchicalTwoPhaseStrategy,
    TwoPhaseStrategy,
)
from repro.fs import ParallelFileSystem
from repro.io.info import Info
from repro.patterns.partition import block_block_views, column_wise_views
from repro.patterns.workloads import rank_pattern_bytes
from repro.verify.atomicity import (
    ReadObservation,
    check_coverage,
    check_mpi_atomicity,
    check_read_atomicity,
)
from tests.conftest import fast_fs_config


def run_views(strategy, views):
    fs = ParallelFileSystem(fast_fs_config())
    executor = AtomicWriteExecutor(fs, strategy, filename="hier.dat")
    return executor.run(len(views), lambda rank, P: views[rank], rank_pattern_bytes)


class TestTopologyHelpers:
    def test_node_leaders_block_mapping(self):
        assert node_leaders(8, 4) == [0, 4]
        assert node_leaders(10, 4) == [0, 4, 8]  # ragged last node
        assert node_leaders(3, 8) == [0]

    def test_node_leaders_validation(self):
        with pytest.raises(ValueError):
            node_leaders(0, 4)
        with pytest.raises(ValueError):
            node_leaders(8, 0)

    def test_aggregators_are_node_leaders(self):
        aggs = choose_node_aggregators(32, 4, 3)
        leaders = set(node_leaders(32, 4))
        assert set(aggs) <= leaders
        assert aggs[0] == 0  # rank 0's node always included
        assert len(aggs) == 3

    def test_want_clamped_to_node_count(self):
        # Asking for more aggregator nodes than exist falls back to all nodes.
        assert choose_node_aggregators(8, 4, 100) == [0, 4]


class TestMergeOriginRuns:
    def test_flat_equals_grouped(self):
        """Merging per-group then re-merging the results equals one flat
        merge — the associativity that makes two-level aggregation exact."""
        runs = [
            (0, 0, b"aaaaaaaa"),
            (1, 4, b"bbbbbbbb"),
            (2, 2, b"cccc"),
            (3, 10, b"dddddd"),
            (0, 14, b"ee"),
        ]
        flat = merge_origin_runs(runs)
        for split in (2, 3):
            tier1 = merge_origin_runs(runs[:split]) + merge_origin_runs(runs[split:])
            two_level = merge_origin_runs(
                [(r.origin, r.offset, r.data) for r in tier1]
            )
            assert [(r.origin, r.offset, r.data) for r in two_level] == [
                (r.origin, r.offset, r.data) for r in flat
            ]

    def test_matches_merge_pieces(self):
        pieces_by_sender = [
            (0, [(0, b"xxxx"), (8, b"xx")]),
            (2, [(2, b"yyyy")]),
        ]
        via_runs = merge_origin_runs(
            [(rank, off, d) for rank, sent in pieces_by_sender for off, d in sent]
        )
        via_pieces = merge_pieces(pieces_by_sender)
        assert [(r.origin, r.offset, r.data) for r in via_runs] == [
            (r.origin, r.offset, r.data) for r in via_pieces
        ]


WORKLOADS = {
    "column-wise": lambda: column_wise_views(M=8, N=256, P=8, R=4),
    "block-block": lambda: block_block_views(M=24, N=24, Pr=3, Pc=3, R=2),
    "full-file": lambda: [[(0, 1024)] for _ in range(6)],
}


class TestByteIdenticalToFlat:
    @pytest.mark.parametrize("workload", list(WORKLOADS))
    def test_contents_and_provenance_match_single_level(self, workload):
        views = WORKLOADS[workload]()
        flat = run_views(TwoPhaseStrategy(), views)
        hier = run_views(HierarchicalTwoPhaseStrategy(ranks_per_node=3), views)
        assert hier.file.store.snapshot() == flat.file.store.snapshot()
        size = flat.file.store.size
        assert (
            hier.file.store.writers(0, size).tolist()
            == flat.file.store.writers(0, size).tolist()
        )
        assert check_mpi_atomicity(hier.file.store, hier.regions).ok
        assert check_coverage(hier.file.store, hier.regions).ok

    def test_alternate_policy_still_matches(self):
        views = column_wise_views(M=4, N=128, P=8, R=4)
        flat = run_views(TwoPhaseStrategy(policy=LOWER_RANK_WINS), views)
        hier = run_views(
            HierarchicalTwoPhaseStrategy(policy=LOWER_RANK_WINS, ranks_per_node=4),
            views,
        )
        assert hier.file.store.snapshot() == flat.file.store.snapshot()

    @pytest.mark.parametrize("ppn", [1, 2, 8, 64])
    def test_any_node_shape(self, ppn):
        """ppn=1 (every rank a leader) and ppn >= P (one node) are the
        degenerate topologies; both must still match the flat result."""
        views = column_wise_views(M=8, N=256, P=8, R=4)
        flat = run_views(TwoPhaseStrategy(), views)
        hier = run_views(HierarchicalTwoPhaseStrategy(ranks_per_node=ppn), views)
        assert hier.file.store.snapshot() == flat.file.store.snapshot()


def run_read_views(strategy, views):
    """Seed one checkpoint, then read it back collectively under ``strategy``."""
    fs = ParallelFileSystem(fast_fs_config())
    seed = AtomicWriteExecutor(fs, TwoPhaseStrategy(), filename="hier.dat")
    seed.run(len(views), lambda rank, P: views[rank], rank_pattern_bytes)
    reader = CollectiveReadExecutor(fs, strategy, filename="hier.dat")
    return reader.run(len(views), lambda rank, P: views[rank])


class TestReadByteIdenticalToFlat:
    """The read-side twin of :class:`TestByteIdenticalToFlat`: the two-level
    scatter (aggregators -> node leaders -> consumers) must deliver every rank
    exactly the stream the flat single-level scatter delivers."""

    @pytest.mark.parametrize("workload", list(WORKLOADS))
    def test_delivered_streams_match_single_level(self, workload):
        views = WORKLOADS[workload]()
        flat = run_read_views(TwoPhaseStrategy(), views)
        hier = run_read_views(
            HierarchicalTwoPhaseStrategy(ranks_per_node=3), views
        )
        assert hier.data == flat.data
        for h, f in zip(hier.outcomes, flat.outcomes):
            assert h.bytes_returned == f.bytes_returned
            assert h.bytes_requested == f.bytes_requested

    def test_leader_role_populated(self):
        # One global aggregator + 4-rank nodes: ranks 4 (and every later
        # leader) relay without fetching, exercising the middle hop.
        views = column_wise_views(M=8, N=256, P=8, R=4)
        flat = run_read_views(TwoPhaseStrategy(), views)
        hier = run_read_views(
            HierarchicalTwoPhaseStrategy(num_aggregators=1, ranks_per_node=4),
            views,
        )
        assert hier.data == flat.data
        phases = {o.my_phase for o in hier.outcomes}
        assert phases == {0, 1, 2}  # aggregator, pure leader, plain consumer
        leaders = [o for o in hier.outcomes if o.my_phase == 1]
        assert leaders and all(o.bytes_moved == 0 for o in leaders)

    @pytest.mark.parametrize("ppn", [1, 2, 8, 64])
    def test_any_node_shape(self, ppn):
        views = column_wise_views(M=8, N=256, P=8, R=4)
        flat = run_read_views(TwoPhaseStrategy(), views)
        hier = run_read_views(
            HierarchicalTwoPhaseStrategy(ranks_per_node=ppn), views
        )
        assert hier.data == flat.data


class TestHierarchicalPlumbing:
    def test_reports_three_phases(self):
        views = column_wise_views(M=8, N=256, P=8, R=4)
        # One aggregator node out of two, so rank 4 is a leader that is NOT
        # a global aggregator — all three phase roles are populated.
        result = run_views(
            HierarchicalTwoPhaseStrategy(num_aggregators=1, ranks_per_node=4), views
        )
        assert all(o.phases == 3 for o in result.outcomes)
        phases = {o.my_phase for o in result.outcomes}
        assert phases == {0, 1, 2}  # plain ranks, leaders, global aggregators
        assert result.outcomes[0].extra["node_leaders"] == 2.0

    def test_registered_and_constructible_by_name(self):
        strategy = default_registry.create("two-phase-hier", ranks_per_node=16)
        assert isinstance(strategy, HierarchicalTwoPhaseStrategy)
        assert strategy.ranks_per_node == 16

    def test_from_info_reads_topology_hints(self):
        info = Info({"cb_nodes": "4", "cb_ppn": "32", "cb_buffer_size": "4096"})
        strategy = default_registry.create_from_info("two-phase-hier", info)
        assert isinstance(strategy, HierarchicalTwoPhaseStrategy)
        assert strategy.num_aggregators == 4
        assert strategy.ranks_per_node == 32
        assert strategy.cb_buffer_size == 4096

    def test_default_aggregator_count_is_node_count(self):
        regions = [FileRegionSet(rank, [(rank << 14, 1 << 14)]) for rank in range(64)]
        strategy = HierarchicalTwoPhaseStrategy(ranks_per_node=8)
        assert len(strategy.negotiate(regions).aggregators) == 8
        # Explicit hints still win, as in the flat strategy.
        hinted = HierarchicalTwoPhaseStrategy(num_aggregators=3, ranks_per_node=8)
        assert len(hinted.negotiate(regions).aggregators) == 3

    def test_rejects_bad_ranks_per_node(self):
        with pytest.raises(ValueError):
            HierarchicalTwoPhaseStrategy(ranks_per_node=0)

    def test_flat_election_unchanged(self):
        # The flat election must stay the evenly spaced rank pick.
        regions = [FileRegionSet(rank, [(rank * 4, 4)]) for rank in range(8)]
        flat = TwoPhaseStrategy(num_aggregators=4)
        assert flat.negotiate(regions).aggregators == choose_aggregators(8, 4)


def bytes_to_other_ranks(strategy, views):
    """Per rank, the bytes the schedule makes it send to ranks other than
    itself — ``(write, read)`` lists recomputed from the negotiation alone."""
    P, ppn = len(views), strategy.ranks_per_node
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    neg = Legacy(strategy.negotiate(regions))
    chunks = {
        agg: IntervalSet([(lo, hi) for lo, hi, owner in neg.pieces if owner == agg])
        for agg in neg.aggregators
    }
    unions = [merge_interval_sets(neg.coverages[base : base + ppn]) for base in range(0, P, ppn)]
    write, read = [], []
    for rank in range(P):
        if rank % ppn:  # not a leader: everything goes to the leader, once
            write.append(regions[rank].total_bytes)
            read.append(0)
            continue
        # A leader forwards its node's union to the aggregators that own it,
        write.append(
            sum(
                unions[rank // ppn].intersection(chunk).total_bytes
                for agg, chunk in chunks.items()
                if agg != rank
            )
        )
        # an aggregator serves every other node's union from its chunk, and a
        # leader hands each local rank its own request.
        served = sum(
            chunks[rank].intersection(union).total_bytes
            for node, union in enumerate(unions)
            if rank in chunks and node * ppn != rank
        )
        local = sum(c.total_bytes for c in neg.coverages[rank + 1 : rank + ppn])
        read.append(served + local)
    return write, read


class TestBytesShuffled:
    """``IOOutcome.bytes_shuffled`` counts what a rank sent to *other* ranks —
    never what it "sent" to itself — in both directions and at any topology."""

    @pytest.mark.parametrize("workload", ["column-wise", "block-block"])
    @pytest.mark.parametrize(
        "make_strategy",
        [
            TwoPhaseStrategy,
            lambda: TwoPhaseStrategy(num_aggregators=3),
            lambda: HierarchicalTwoPhaseStrategy(ranks_per_node=3),
            lambda: HierarchicalTwoPhaseStrategy(num_aggregators=1, ranks_per_node=4),
        ],
        ids=["two-phase", "two-phase-3agg", "two-phase-hier", "two-phase-hier-1agg"],
    )
    def test_counts_only_pieces_bound_for_other_ranks(self, workload, make_strategy):
        views = WORKLOADS[workload]()
        write, read = bytes_to_other_ranks(make_strategy(), views)
        wrote = run_views(make_strategy(), views)
        assert [o.bytes_shuffled for o in wrote.outcomes] == write
        got = run_read_views(make_strategy(), views)
        assert [o.bytes_shuffled for o in got.outcomes] == read


# -- the fold, on generated inputs ----------------------------------------------

FILE_BYTES = 32
MAX_RANKS = 6

#: 1–6 views over one small file: irregular, nested, identical, some empty.
view_sets = generators.view_sets(FILE_BYTES, max_ranks=MAX_RANKS)
aggregator_counts = st.none() | st.integers(1, MAX_RANKS + 2)
#: Node widths as functions of the job size: dividing it or not, the whole job
#: on one node, a node wider than the job.
NODE_WIDTHS = {"2": lambda P: 2, "3": lambda P: 3, "P": lambda P: P, "P + 2": lambda P: P + 2}


def write_then_read(write_cls, read_cls, make_strategy, views):
    """One collective write and the read-back of the same views."""
    fs = ParallelFileSystem(fast_fs_config())
    view = lambda rank, P: views[rank]  # noqa: E731
    wrote = write_cls(fs, make_strategy(), filename="gen.dat").run(
        len(views), view, rank_pattern_bytes
    )
    got = read_cls(fs, make_strategy(), filename="gen.dat").run(len(views), view)
    return wrote, got


def assert_same_bytes(wrote, got, flat_wrote, flat_got):
    assert wrote.file.store.snapshot() == flat_wrote.file.store.snapshot()
    size = flat_wrote.file.store.size
    assert (
        wrote.file.store.writers(0, size).tolist()
        == flat_wrote.file.store.writers(0, size).tolist()
    )
    assert got.data == flat_got.data


@given(
    views=view_sets,
    aggregators=aggregator_counts,
    substrate=st.sampled_from(
        [(AtomicWriteExecutor, CollectiveReadExecutor), (BulkWriteExecutor, BulkReadExecutor)]
    ),
)
def test_one_rank_per_node_is_the_flat_schedule(views, aggregators, substrate):
    """``two-phase-hier`` at ``cb_ppn = 1`` is ``two-phase``: same clocks, same
    bytes, and outcomes equal field for field but for the strategy's name."""
    flat = write_then_read(
        *substrate, lambda: TwoPhaseStrategy(num_aggregators=aggregators), views
    )
    hier = write_then_read(
        *substrate,
        lambda: HierarchicalTwoPhaseStrategy(num_aggregators=aggregators, ranks_per_node=1),
        views,
    )
    assert_same_bytes(*hier, *flat)
    for ours, theirs in zip(hier, flat):
        assert [c.now for c in ours.spmd.clocks] == [c.now for c in theirs.spmd.clocks]
        assert [replace(o, strategy="two-phase") for o in ours.outcomes] == theirs.outcomes


@given(
    views=view_sets,
    aggregators=aggregator_counts,
    width=st.sampled_from(sorted(NODE_WIDTHS)),
    policy=st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS]),
)
def test_any_topology_moves_the_flat_bytes(views, aggregators, width, policy):
    """Whatever the node width and aggregator count, the node hop changes the
    schedule only: file bytes, per-byte provenance and delivered streams are
    the flat run's, and both verifiers accept them."""
    P = len(views)
    ppn = NODE_WIDTHS[width](P)
    event(f"ppn {width}, P % ppn {'=' if P % ppn == 0 else '!'}= 0")
    flat = write_then_read(
        AtomicWriteExecutor,
        CollectiveReadExecutor,
        lambda: TwoPhaseStrategy(num_aggregators=aggregators, policy=policy),
        views,
    )
    wrote, got = write_then_read(
        AtomicWriteExecutor,
        CollectiveReadExecutor,
        lambda: HierarchicalTwoPhaseStrategy(
            num_aggregators=aggregators, policy=policy, ranks_per_node=ppn
        ),
        views,
    )
    assert_same_bytes(wrote, got, *flat)
    assert check_mpi_atomicity(wrote.file.store, wrote.regions).ok
    observations = [ReadObservation(r, got.regions[r], got.data[r]) for r in range(P)]
    streams = [rank_pattern_bytes(r, wrote.regions[r].total_bytes) for r in range(P)]
    assert check_read_atomicity(observations, wrote.regions, streams).ok
