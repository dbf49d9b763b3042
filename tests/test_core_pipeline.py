"""Tests for the staged collective-I/O pipeline (the view exchange, the
products a collective builds once on its shared region list, the plan
structures and ``run_plan``, in both directions), the strategy registry and
the two-phase aggregation strategy.

The equivalence tests pin the per-rank ``IOOutcome`` accounting (phases,
locks_acquired, bytes moved/surrendered) of the three legacy strategies to
the exact values the pre-refactor monolithic implementations produced, so the
pipeline decomposition is behaviour-preserving by construction.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import strategies
from repro.core.aggregation import choose_aggregators, merge_pieces, partition_domain
from repro.core.coloring import greedy_coloring
from repro.core.bulk import BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.intervals import IntervalSet
from repro.core.overlap import build_overlap_matrix
from repro.core.engine import TaskCancelled
from repro.core.pipeline import (
    IOPlan,
    LockDirective,
    PhasePlan,
    TransferStep,
    exchange_views,
    run_plan,
    shared_regions,
)
from repro.core.rank_ordering import HIGHER_RANK_WINS, LOWER_RANK_WINS, resolve_by_rank
from repro.core.regions import FileRegionSet, build_region_sets
from repro.core.registry import StrategyRegistry, default_registry
from repro.core.strategies import (
    AtomicityStrategy,
    GraphColoringStrategy,
    IOOutcome,
    LockingStrategy,
    NoAtomicityStrategy,
    RankOrderingStrategy,
    TwoPhaseStrategy,
)
from repro.datatypes import CHAR, contiguous
from repro.fs import ParallelFileSystem
from repro.fs.client import FSClient
from repro.fs.lockmanager import LockMode
from repro.io import Info, MPIFile
from repro.mpi import run_spmd
from repro.mpi.comm import SharedList
from repro.patterns.partition import block_block_views, column_wise_views
from repro.patterns.workloads import rank_pattern_bytes
from repro.verify.atomicity import check_coverage, check_mpi_atomicity
from tests.conftest import fast_fs_config


VIEWS = column_wise_views(M=16, N=128, P=4, R=4)
REGIONS = build_region_sets(VIEWS)


def run(strategy, fs=None, nprocs=4, views=None, data_factory=rank_pattern_bytes):
    fs = fs or ParallelFileSystem(fast_fs_config())
    views = views or VIEWS
    executor = AtomicWriteExecutor(fs, strategy, filename="p.dat")
    return executor.run(nprocs, lambda rank, P: views[rank], data_factory)


class TestExchangeViews:
    def test_allgathers_every_view_into_one_shared_list(self):
        def fn(comm):
            return exchange_views(comm, REGIONS[comm.rank])

        result = run_spmd(fn, 4)
        expected = [REGIONS[r].segments for r in range(4)]
        shared = result.returns[0]
        assert isinstance(shared, SharedList)
        assert [r.segments for r in shared] == expected
        assert all(per_rank is shared for per_rank in result.returns)

    def test_strategies_without_exchange_touch_no_communicator(self):
        # comm=None must not be touched: no allgather, no region list.
        for strategy in (LockingStrategy(), NoAtomicityStrategy()):
            data = b"x" * REGIONS[0].total_bytes
            assert strategy.prepare(None, REGIONS[0], 0.0, data).regions is None


def _shared():
    """REGIONS as one collective's shared region list."""
    return shared_regions([r.segments for r in REGIONS])


class TestSharedProducts:
    def test_once_builds_each_key_once(self):
        shared, calls = SharedList([1, 2]), []

        def build():
            calls.append(1)
            return object()

        first = shared.once("k", build)
        assert shared.once("k", build) is first
        assert shared.once("other", build) is not first
        assert len(calls) == 2 and shared == [1, 2]

    def test_coloring_matches_direct_computation(self):
        coloring = GraphColoringStrategy.coloring(_shared())
        direct = greedy_coloring(build_overlap_matrix(REGIONS))
        assert coloring.colors == direct.colors
        assert coloring.num_colors == direct.num_colors == 2

    @pytest.mark.parametrize("policy", [HIGHER_RANK_WINS, LOWER_RANK_WINS])
    def test_rank_order_matches_direct_computation(self, policy):
        strategy = RankOrderingStrategy(policy)
        direct = resolve_by_rank(REGIONS, policy=policy)
        shared = _shared()
        surrendered = [
            strategy.schedule(None, region, b"x" * region.total_bytes, shared)[0].bytes_surrendered
            for region in REGIONS
        ]
        assert surrendered == list(direct.surrendered_bytes)

    def test_negotiations_are_keyed_by_tunables(self):
        shared = _shared()
        one, same, other = TwoPhaseStrategy(2), TwoPhaseStrategy(2), TwoPhaseStrategy(1)
        assert one.negotiation(shared) is same.negotiation(shared)
        assert other.negotiation(shared) is not one.negotiation(shared)
        assert len(other.negotiation(shared).aggregators) == 1


class TestOncePerCollective:
    """Every product is built once per collective, however many ranks (each
    with its own strategy instance, as in ``MPIFile``) read it."""

    @pytest.mark.parametrize(
        "name, target",
        [
            ("rank-ordering", (strategies, "resolve_by_rank")),
            ("graph-coloring", (strategies, "greedy_coloring")),
            ("two-phase", (TwoPhaseStrategy, "negotiate")),
        ],
    )
    def test_write_all_builds_each_product_once(self, monkeypatch, name, target):
        owner, attr = target
        built, original = [], getattr(owner, attr)

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
        fs, collectives = ParallelFileSystem(fast_fs_config()), 2

        def fn(comm):
            f = MPIFile.Open(comm, "once.dat", fs, info=Info({"atomicity_strategy": name}))
            f.Set_atomicity(True)
            f.Set_view(comm.rank * 6, CHAR, contiguous(8, CHAR))
            for _ in range(collectives):
                f.Write_all(bytes([65 + comm.rank]) * 8)
            f.Close()

        run_spmd(fn, 4)
        assert len(built) == collectives

    def test_graph_coloring_reads_build_no_colouring(self, monkeypatch):
        """Reads commute, so a graph-coloring read is one parallel phase: it
        builds no colouring and reports none."""
        built, original = [], strategies.greedy_coloring

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(strategies, "greedy_coloring", counting)
        fs = ParallelFileSystem(fast_fs_config())
        run(GraphColoringStrategy(), fs=fs)
        assert len(built) == 1
        reader = CollectiveReadExecutor(fs, GraphColoringStrategy(), filename="p.dat")
        result = reader.run(4, lambda rank, P: VIEWS[rank])
        assert len(built) == 1
        assert [(o.phases, o.my_phase, o.colors_used) for o in result.outcomes] == [(1, 0, 0)] * 4

    def test_products_are_freed_with_the_run(self, monkeypatch):
        lists = []

        def recording(comm, region):
            regions = exchange_views(comm, region)
            lists.append(weakref.ref(regions))
            return regions

        monkeypatch.setattr(strategies, "exchange_views", recording)
        for strategy in (GraphColoringStrategy(), RankOrderingStrategy(), TwoPhaseStrategy()):
            result = run(strategy)
            del result
        # The bulk driver's collective builds on the result's own region list.
        fs = ParallelFileSystem(fast_fs_config())
        result = BulkWriteExecutor(fs, TwoPhaseStrategy()).run(
            4, lambda rank, P: VIEWS[rank], rank_pattern_bytes
        )
        lists.append(weakref.ref(result.regions))
        del result
        gc.collect()
        assert len(lists) == 3 * 4 + 1 and all(ref() is None for ref in lists)


def _plan(direction, **kwargs):
    kwargs.setdefault("strategy", "manual")
    kwargs.setdefault("rank", 0)
    return IOPlan(direction=direction, **kwargs)


def _execute(plan, content=b""):
    """Run ``plan`` on a single-rank world.

    A write plan moves ``content`` from the user payload into the file; a
    read plan moves the same ``content``, seeded into the file, into the
    user sink.  Either way: the outcome, the bytes that arrived on the far
    side, and the file object.
    """
    fs = ParallelFileSystem(fast_fs_config())

    def fn(comm):
        client = FSClient(fs, client_id=comm.rank, clock=comm.clock)
        handle = client.open("runner.dat")
        try:
            if plan.direction == "write":
                buffers = {"user": content}
            else:
                handle.write(0, content, direct=True)
                buffers = plan.sinks()
            return run_plan(comm, handle, plan, buffers), buffers
        finally:
            handle.close()

    outcome, buffers = run_spmd(fn, 1).returns[0]
    fobj = fs.lookup("runner.dat")
    if plan.direction == "write":
        arrived = fobj.store.read(0, len(content))
    else:
        arrived = bytes(buffers.get("user", b""))
    return outcome, arrived, fobj


@pytest.mark.parametrize("direction", ["write", "read"])
class TestRunPlan:
    """Direct plan execution against a single-rank world, in both directions."""

    def test_steps_locks_and_accounting(self, direction):
        plan = _plan(
            direction,
            bytes_requested=8,
            locks=[LockDirective(0, 8)],
            phases=[
                PhasePlan(index=0, steps=[TransferStep(0, 0, 4)], direct=True),
                PhasePlan(index=1, steps=[TransferStep(4, 4, 4)], direct=True),
            ],
        )
        outcome, arrived, _ = _execute(plan, b"abcdWXYZ")
        assert isinstance(outcome, IOOutcome)
        assert outcome.bytes_moved == 8
        assert outcome.segments_moved == 2
        assert outcome.locks_acquired == 1
        assert outcome.phases == 2
        assert arrived == b"abcdWXYZ"

    def test_empty_plan_reports_one_phase(self, direction):
        outcome, _, _ = _execute(_plan(direction, bytes_requested=0))
        assert outcome.phases == 1
        assert outcome.bytes_moved == 0

    def test_reported_phases_override(self, direction):
        plan = _plan(
            direction, bytes_requested=0, phases=[PhasePlan(index=0)], reported_phases=2
        )
        assert plan.num_phases == 2
        outcome, _, _ = _execute(plan)
        assert outcome.phases == 2

    def test_sink_sizes_span_all_phases(self, direction):
        plan = _plan(
            direction,
            bytes_requested=64,
            phases=[
                PhasePlan(index=0, steps=[TransferStep(0, 100, 16)]),
                PhasePlan(
                    index=1,
                    steps=[TransferStep(16, 200, 48), TransferStep(0, 300, 8, buffer="agg")],
                ),
            ],
        )
        assert plan.sink_sizes() == {"user": 64, "agg": 8}
        assert plan.bytes_scheduled == 72
        assert plan.num_phases == 2

    def test_locks_released_when_a_later_acquisition_raises(self, direction):
        """A rank cancelled (or a collective aborted) while parked on the
        plan's second lock must not keep holding the first until ``Close``."""
        plan = _plan(
            direction, bytes_requested=0, locks=[LockDirective(0, 4), LockDirective(8, 12)]
        )
        fs = ParallelFileSystem(fast_fs_config())

        def fn(comm):
            handle = FSClient(fs, client_id=comm.rank, clock=comm.clock).open("runner.dat")
            grant, granted = handle.lock, []

            def lock(start, stop, mode):
                if granted:
                    raise TaskCancelled("cancelled while parked on the second lock")
                granted.append(grant(start, stop, mode=mode))
                return granted[-1]

            handle.lock = lock
            try:
                with pytest.raises(TaskCancelled):
                    run_plan(comm, handle, plan, {})
                return len(granted), handle.file.lock_manager.held_locks()
            finally:
                handle.close()

        assert run_spmd(fn, 1).returns[0] == (1, [])


class TestPlanStructures:
    def test_writer_override_recorded_as_provenance(self):
        plan = _plan(
            "write",
            bytes_requested=4,
            phases=[PhasePlan(index=0, steps=[TransferStep(0, 0, 4, writer=7)], direct=True)],
        )
        _, _, fobj = _execute(plan, b"data")
        assert fobj.store.distinct_writers(0, 4) == (7,)

    def test_lock_directive_defaults_exclusive_but_reads_use_shared(self):
        assert LockDirective(0, 10).mode == LockMode.EXCLUSIVE
        d = LockDirective(0, 10, mode=LockMode.SHARED)
        assert d.mode == LockMode.SHARED
        assert d.length == 10

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            _plan("sideways", bytes_requested=0)

    def test_transfer_step_is_an_immutable_record_with_defaults(self):
        positional = TransferStep(4, 100, 16)
        keyword = TransferStep(buffer_offset=4, file_offset=100, length=16)
        assert positional == keyword
        assert (positional.buffer, positional.writer) == ("user", None)
        full = TransferStep(0, 8, 2, "agg", 3)
        assert full == TransferStep(buffer_offset=0, file_offset=8, length=2,
                                    buffer="agg", writer=3)
        assert (full.buffer_offset, full.file_offset, full.length) == (0, 8, 2)
        with pytest.raises(AttributeError):
            full.length = 5
        with pytest.raises(AttributeError):
            full.extra = 1


class TestLegacyEquivalence:
    """The stage compositions reproduce the pre-refactor accounting exactly."""

    def test_locking_accounting(self):
        result = run(LockingStrategy())
        for rank, outcome in enumerate(result.outcomes):
            region = result.regions[rank]
            assert outcome.strategy == "locking"
            assert outcome.locks_acquired == 1
            assert outcome.phases == 1
            assert outcome.bytes_moved == outcome.bytes_requested == region.total_bytes
            assert outcome.segments_moved == region.num_segments
            assert outcome.extra["locked_bytes"] == float(region.extent_bytes())

    def test_graph_coloring_accounting(self):
        result = run(GraphColoringStrategy())
        coloring = greedy_coloring(build_overlap_matrix(result.regions))
        for rank, outcome in enumerate(result.outcomes):
            assert outcome.phases == coloring.num_colors == 2
            assert outcome.colors_used == coloring.num_colors
            assert outcome.my_phase == coloring.color_of(rank)
            assert outcome.bytes_moved == outcome.bytes_requested
            assert outcome.locks_acquired == 0

    def test_rank_ordering_accounting(self):
        result = run(RankOrderingStrategy())
        resolution = resolve_by_rank(result.regions)
        for rank, outcome in enumerate(result.outcomes):
            assert outcome.bytes_surrendered == resolution.surrendered_bytes[rank]
            assert (
                outcome.bytes_moved
                == outcome.bytes_requested - outcome.bytes_surrendered
            )
            assert outcome.phases == 1
            assert outcome.locks_acquired == 0

    def test_baseline_accounting(self):
        result = run(NoAtomicityStrategy())
        for rank, outcome in enumerate(result.outcomes):
            region = result.regions[rank]
            assert outcome.bytes_moved == region.total_bytes
            assert outcome.segments_moved == region.num_segments
            assert outcome.phases == 1


class TestAggregationHelpers:
    def test_choose_aggregators_even_spacing(self):
        assert choose_aggregators(8, 8) == list(range(8))
        assert choose_aggregators(8, 2) == [0, 4]
        assert choose_aggregators(8, 3) == [0, 2, 5]
        assert choose_aggregators(4, 99) == [0, 1, 2, 3]

    def test_partition_domain_balanced_and_disjoint(self):
        domain = IntervalSet.from_segments([(0, 10), (20, 10), (40, 5)])
        chunks = partition_domain(domain, 3)
        assert len(chunks) == 3
        sizes = [c.total_bytes for c in chunks]
        assert sum(sizes) == 25
        assert max(sizes) - min(sizes) <= 1
        # Chunks are pairwise disjoint and cover the domain in file order.
        union = chunks[0]
        for c in chunks[1:]:
            assert not union.overlaps(c)
            union = union.union(c)
        assert union == domain

    def test_partition_domain_more_chunks_than_bytes(self):
        domain = IntervalSet.from_segments([(0, 2)])
        chunks = partition_domain(domain, 4)
        assert sum(c.total_bytes for c in chunks) == 2
        assert sum(1 for c in chunks if c.is_empty()) == 2

    def test_merge_pieces_highest_priority_wins(self):
        pieces = [
            (0, [(0, b"aaaa")]),
            (1, [(2, b"bbbb")]),
        ]
        runs = merge_pieces(pieces)
        assert [(r.offset, r.data, r.origin) for r in runs] == [
            (0, b"aa", 0),
            (2, b"bbbb", 1),
        ]

    def test_merge_pieces_policy_reversed(self):
        pieces = [
            (0, [(0, b"aaaa")]),
            (1, [(2, b"bbbb")]),
        ]
        runs = merge_pieces(pieces, policy=LOWER_RANK_WINS)
        assert [(r.offset, r.data, r.origin) for r in runs] == [
            (0, b"aaaa", 0),
            (4, b"bb", 1),
        ]

    def test_merge_pieces_keeps_gaps(self):
        runs = merge_pieces([(3, [(0, b"xx"), (10, b"yy")])])
        assert [(r.offset, r.origin) for r in runs] == [(0, 3), (10, 3)]

    def test_merge_pieces_sparse_span_stays_cheap(self):
        """Memory scales with covered bytes, not the offset span: pieces a
        terabyte apart must merge instantly."""
        far = 10**12
        runs = merge_pieces([(0, [(0, b"aa")]), (1, [(far, b"bb")])])
        assert [(r.offset, r.data, r.origin) for r in runs] == [
            (0, b"aa", 0),
            (far, b"bb", 1),
        ]

    def test_merge_pieces_empty(self):
        assert merge_pieces([(0, []), (1, [])]) == []

    def test_merge_pieces_priority_tie_breaks_toward_lower_rank(self):
        """A non-injective policy ties like resolve_by_rank: lower rank wins."""
        constant = lambda rank: 0  # noqa: E731
        runs = merge_pieces([(0, [(0, b"aaaa")]), (1, [(0, b"bbbb")])], policy=constant)
        assert [(r.offset, r.data, r.origin) for r in runs] == [(0, b"aaaa", 0)]


class TestTwoPhaseStrategy:
    def test_atomic_and_complete_column_wise(self):
        result = run(TwoPhaseStrategy())
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok

    def test_atomic_and_complete_block_block(self):
        views = block_block_views(M=24, N=24, Pr=3, Pc=3, R=2)
        result = run(TwoPhaseStrategy(), nprocs=9, views=views)
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok

    @pytest.mark.parametrize("naggr", [1, 2, 3])
    def test_aggregator_count_sweep(self, naggr):
        result = run(TwoPhaseStrategy(num_aggregators=naggr))
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok
        writers = sum(1 for o in result.outcomes if o.bytes_moved > 0)
        assert writers <= naggr

    def test_overlaps_resolved_like_rank_ordering(self):
        """Per-byte winners match the rank-ordering priority rule."""
        result = run(TwoPhaseStrategy())
        store = result.file.store
        regions = result.regions
        for i in range(3):
            overlap = regions[i].overlap_region(regions[i + 1])
            for iv in overlap:
                assert store.distinct_writers(iv.start, iv.length) == (i + 1,)

    def test_total_written_equals_domain(self):
        """Aggregators write every domain byte exactly once."""
        result = run(TwoPhaseStrategy(num_aggregators=2))
        from repro.core.intervals import merge_interval_sets

        domain = merge_interval_sets([r.coverage for r in result.regions])
        assert result.total_bytes_written == domain.total_bytes

    def test_surrendered_accounting_matches_rank_ordering(self):
        result = run(TwoPhaseStrategy())
        resolution = resolve_by_rank(result.regions)
        for rank, outcome in enumerate(result.outcomes):
            assert outcome.bytes_surrendered == resolution.surrendered_bytes[rank]
            assert outcome.phases == 2

    def test_constant_policy_ties_match_rank_ordering(self):
        """With a non-injective policy both the merge and the surrendered
        accounting still agree with resolve_by_rank's tie-breaking."""
        constant = lambda rank: 0  # noqa: E731
        result = run(TwoPhaseStrategy(policy=constant))
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok
        resolution = resolve_by_rank(result.regions, policy=constant)
        for rank, outcome in enumerate(result.outcomes):
            assert outcome.bytes_surrendered == resolution.surrendered_bytes[rank]

    def test_data_placement_correct(self):
        """Winning bytes carry the winning rank's data from the right buffer
        position, even though an aggregator physically wrote them."""
        result = run(TwoPhaseStrategy(num_aggregators=2))
        store = result.file.store
        for region in result.regions:
            data = rank_pattern_bytes(region.rank, region.total_bytes)
            for buf_off, file_off, length in region.buffer_map():
                if store.distinct_writers(file_off, length) == (region.rank,):
                    assert store.read(file_off, length) == data[buf_off : buf_off + length]

    def test_lockless_fs_supported(self):
        from repro.fs.filesystem import LockProtocol

        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        result = run(TwoPhaseStrategy(), fs=fs)
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert all(o.locks_acquired == 0 for o in result.outcomes)

    def test_invalid_aggregator_count_rejected(self):
        with pytest.raises(ValueError):
            TwoPhaseStrategy(num_aggregators=0)


class TestStrategyRegistry:
    def test_default_registry_contents(self):
        assert set(default_registry.names()) == {
            "none",
            "locking",
            "graph-coloring",
            "rank-ordering",
            "two-phase",
            "two-phase-hier",
            "auto",
        }
        assert "two-phase" in default_registry.atomic_names()
        assert "auto" in default_registry.atomic_names()
        assert "none" not in default_registry.atomic_names()

    def test_machine_filtering_uses_capabilities(self):
        with_locks = default_registry.names_for_machine(supports_locking=True)
        without = default_registry.names_for_machine(supports_locking=False)
        assert "locking" in with_locks
        assert "locking" not in without
        assert "two-phase" in without

    def test_register_and_create_custom_strategy(self):
        registry = StrategyRegistry()

        class EchoStrategy(AtomicityStrategy):
            name = "echo"

            def schedule(self, comm, region, data, regions):
                return self._plan("write", region), {"user": data}

        registry.register(EchoStrategy)
        assert "echo" in registry
        assert isinstance(registry.create("echo"), EchoStrategy)

    def test_duplicate_name_rejected(self):
        registry = StrategyRegistry()

        class A(AtomicityStrategy):
            name = "dup"

            def schedule(self, comm, region, data, regions):  # pragma: no cover
                raise NotImplementedError

        class B(AtomicityStrategy):
            name = "dup"

            def schedule(self, comm, region, data, regions):  # pragma: no cover
                raise NotImplementedError

        registry.register(A)
        with pytest.raises(ValueError):
            registry.register(B)

    def test_nameless_class_rejected(self):
        registry = StrategyRegistry()
        with pytest.raises(ValueError):
            registry.register(object)

    def test_unknown_lookup_lists_known(self):
        with pytest.raises(KeyError, match="two-phase"):
            default_registry.get("missing-strategy")
