"""Hierarchical (two-level) two-phase aggregation tests.

The load-bearing property: because the merge priority is a fixed total order
over origins, node-local pre-merging followed by a global merge produces
byte-identical file contents AND per-byte provenance to the flat single-level
shuffle.  These tests pin that equivalence on the atomicity verifier suite's
workloads, plus the topology helpers and Info-hint plumbing.
"""

from __future__ import annotations

import pytest

from repro.core.aggregation import (
    choose_aggregators,
    choose_node_aggregators,
    merge_origin_runs,
    merge_pieces,
    node_leaders,
)
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.rank_ordering import LOWER_RANK_WINS
from repro.core.registry import default_registry
from repro.core.strategies import (
    HierarchicalTwoPhaseStrategy,
    TwoPhaseStrategy,
)
from repro.fs import ParallelFileSystem
from repro.io.info import Info
from repro.patterns.partition import block_block_views, column_wise_views
from repro.patterns.workloads import rank_pattern_bytes
from repro.verify.atomicity import check_coverage, check_mpi_atomicity
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
        strategy = HierarchicalTwoPhaseStrategy(ranks_per_node=8)
        assert strategy._aggregator_count(64, 1 << 20) == 8
        # Explicit hints still win, as in the flat strategy.
        hinted = HierarchicalTwoPhaseStrategy(num_aggregators=3, ranks_per_node=8)
        assert hinted._aggregator_count(64, 1 << 20) == 3

    def test_rejects_bad_ranks_per_node(self):
        with pytest.raises(ValueError):
            HierarchicalTwoPhaseStrategy(ranks_per_node=0)

    def test_flat_election_unchanged(self):
        # The base class election hook must stay the evenly spaced rank pick.
        assert TwoPhaseStrategy()._elect(8, 4) == choose_aggregators(8, 4)
