"""Engine-equivalence of the bulk-synchronous replay executor.

The whole value of :class:`~repro.core.bulk.BulkWriteExecutor` is that it is
NOT an approximation: virtual times, file bytes and per-byte provenance must
equal the engine path bit-for-bit.  These tests pin that equivalence.
"""

from __future__ import annotations

import pytest

from repro.core.autotune import AutoStrategy
from repro.core.aggregation import ReadRoutes, WriteRoutes
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.pipeline import USER_PAYLOAD
from repro.core.strategies import (
    HierarchicalTwoPhaseStrategy,
    LockingStrategy,
    TwoPhaseStrategy,
)
from repro.fs import ParallelFileSystem
from repro.fs.client import FSClient
from repro.mpi import SPMDExecutionError
from repro.mpi.cost import CommCostModel
from repro.mpi.errors import CollectiveMismatchError, DeadlockError, RankError
from repro.patterns.partition import block_block_views, column_wise_views
from repro.patterns.workloads import rank_pattern_bytes
from tests.conftest import fast_fs_config


def run_both(make_strategy, views, comm_cost=None):
    """Run the same workload through the engine and the bulk replay."""
    results = []
    for executor_cls in (AtomicWriteExecutor, BulkWriteExecutor):
        fs = ParallelFileSystem(fast_fs_config())
        executor = executor_cls(
            fs, make_strategy(), filename="bulk.dat", comm_cost=comm_cost
        )
        results.append(
            executor.run(len(views), lambda rank, P: views[rank], rank_pattern_bytes)
        )
    return results


def assert_equivalent(engine, bulk):
    assert bulk.makespan == engine.makespan  # exact float equality, no tolerance
    assert [c.now for c in bulk.spmd.clocks] == [c.now for c in engine.spmd.clocks]
    assert bulk.file.store.snapshot() == engine.file.store.snapshot()
    size = engine.file.store.size
    assert (
        bulk.file.store.writers(0, size).tolist()
        == engine.file.store.writers(0, size).tolist()
    )
    for b, e in zip(bulk.outcomes, engine.outcomes):
        assert (b.rank, b.strategy) == (e.rank, e.strategy)
        assert b.bytes_requested == e.bytes_requested
        assert b.bytes_moved == e.bytes_moved
        assert b.bytes_surrendered == e.bytes_surrendered
        assert b.bytes_shuffled == e.bytes_shuffled
        assert b.lock_wait_seconds == e.lock_wait_seconds == 0.0
        assert b.segments_moved == e.segments_moved
        assert b.phases == e.phases
        assert b.my_phase == e.my_phase
        assert b.start_time == e.start_time
        assert b.end_time == e.end_time
        assert b.extra == e.extra


STRATEGIES = {
    "two-phase": lambda: TwoPhaseStrategy(),
    "two-phase-few-aggs": lambda: TwoPhaseStrategy(num_aggregators=3),
    "two-phase-hier": lambda: HierarchicalTwoPhaseStrategy(ranks_per_node=3),
    "two-phase-hier-1agg": lambda: HierarchicalTwoPhaseStrategy(
        num_aggregators=1, ranks_per_node=4
    ),
    "auto": lambda: AutoStrategy(),
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_column_wise(self, strategy):
        views = column_wise_views(M=8, N=256, P=8, R=4)
        engine, bulk = run_both(STRATEGIES[strategy], views)
        assert_equivalent(engine, bulk)

    @pytest.mark.parametrize("strategy", ["two-phase", "two-phase-hier"])
    def test_block_block(self, strategy):
        views = block_block_views(M=24, N=24, Pr=3, Pc=3, R=2)
        engine, bulk = run_both(STRATEGIES[strategy], views)
        assert_equivalent(engine, bulk)

    def test_nonzero_comm_cost(self):
        views = column_wise_views(M=8, N=256, P=8, R=4)
        cost = CommCostModel(latency=30e-6, byte_cost=1e-8)
        engine, bulk = run_both(STRATEGIES["two-phase-hier"], views, comm_cost=cost)
        assert_equivalent(engine, bulk)

    def test_large_p(self):
        """The scale regime the replay exists for, still engine-checked."""
        views = column_wise_views(M=4, N=1024, P=256, R=2)
        engine, bulk = run_both(
            lambda: HierarchicalTwoPhaseStrategy(ranks_per_node=8), views
        )
        assert_equivalent(engine, bulk)


class TestGuardrails:
    def test_rejects_non_aggregation_strategy(self):
        fs = ParallelFileSystem(fast_fs_config())
        with pytest.raises(TypeError):
            BulkWriteExecutor(fs, LockingStrategy())

    def test_rejects_bad_nprocs(self):
        fs = ParallelFileSystem(fast_fs_config())
        executor = BulkWriteExecutor(fs, TwoPhaseStrategy())
        with pytest.raises(ValueError):
            executor.run(0, lambda rank, P: [(0, 4)])

    @pytest.mark.parametrize("delta", [-3, 3], ids=["short", "long"])
    @pytest.mark.parametrize("strategy", [TwoPhaseStrategy, AutoStrategy])
    def test_a_stream_of_the_wrong_length_is_refused_by_both_executors(
        self, strategy, delta
    ):
        # Regression: the bulk write used to take a short stream as it came
        # (writing b"AAAABBBBB", bytes_moved [6, 3]) where the engine raised.
        views = [[(0, 8)], [(4, 8)]]
        data = lambda rank, nbytes: bytes([65 + rank]) * (nbytes + delta)  # noqa: E731
        message = f"data stream has {8 + delta} bytes but the file view covers 8 bytes"
        fs = ParallelFileSystem(fast_fs_config())
        with pytest.raises(SPMDExecutionError) as engine_error:
            AtomicWriteExecutor(fs, strategy()).run(2, lambda rank, P: views[rank], data)
        assert all(
            isinstance(error, ValueError) and str(error) == message
            for error in engine_error.value.failures.values()
        )
        fs = ParallelFileSystem(fast_fs_config())
        with pytest.raises(ValueError, match=message):
            BulkWriteExecutor(fs, strategy()).run(2, lambda rank, P: views[rank], data)
        assert not fs.exists("shared.dat")  # refused before anything is created


class _EarlyExit(TwoPhaseStrategy):
    """Broken on purpose: rank 1 leaves the schedule before the exchange."""

    def shuffle(self, region, data, neg):
        if region.rank == 1:
            return self._plan("write", region, phases=[]), {USER_PAYLOAD: data}
        return (yield from super().shuffle(region, data, neg))


class _BadDestination(TwoPhaseStrategy):
    """Broken on purpose: rank 2 ships to a rank that does not exist."""

    def shuffle(self, region, data, neg):
        if region.rank == 2:
            yield {neg.size: [(0, b"x")]}
        return (yield from super().shuffle(region, data, neg))


class _EarlyExitScatter(TwoPhaseStrategy):
    """Broken on purpose: rank 1 leaves the read before the scatter exchange."""

    def scatter(self, region, neg, outcome, sinks):
        if region.rank == 1:
            return b""
        return (yield from super().scatter(region, neg, outcome, sinks))


class _CachedPhases(TwoPhaseStrategy):
    """Broken on purpose: plans whose transfers go through the client cache,
    which the bulk sweep refuses."""

    def _plan(self, *args, **kwargs):
        plan = super()._plan(*args, **kwargs)
        for phase in plan.phases:
            phase.direct = False
        return plan


class TestScheduleDisagreementFailsLoudly:
    """A schedule whose ranks disagree must not run to a wrong answer on
    either substrate."""

    VIEWS = column_wise_views(M=4, N=64, P=4, R=2)

    def run(self, executor_cls, strategy):
        fs = ParallelFileSystem(fast_fs_config())
        executor_cls(fs, strategy, filename="bulk.dat").run(
            4, lambda rank, P: self.VIEWS[rank], rank_pattern_bytes
        )

    def test_rank_leaving_early(self):
        with pytest.raises(CollectiveMismatchError, match=r"ranks \[1\] finished while ranks \[0, 2, 3\]"):
            self.run(BulkWriteExecutor, _EarlyExit())
        with pytest.raises(SPMDExecutionError) as info:
            self.run(AtomicWriteExecutor, _EarlyExit())
        assert sorted(info.value.failures) == [0, 2, 3]
        assert all(isinstance(e, DeadlockError) for e in info.value.failures.values())

    def test_destination_outside_the_communicator(self):
        with pytest.raises(CollectiveMismatchError, match="rank 2 names destination 4"):
            self.run(BulkWriteExecutor, _BadDestination())
        with pytest.raises(SPMDExecutionError) as info:
            self.run(AtomicWriteExecutor, _BadDestination())
        assert isinstance(info.value.failures[2], RankError)


class TestWriteRoutes:
    """A write collective builds its routes once, shared by every rank on
    both drivers, and lets go of them when its last coroutine ends: a read
    or a finished write keeps no routes on the negotiation."""

    VIEWS = column_wise_views(M=4, N=256, P=24, R=2)

    @pytest.mark.parametrize("ppn", [1, 5])
    def test_built_once_and_released(self, monkeypatch, ppn):
        built = []
        real_of = WriteRoutes.of.__func__

        def counting_of(cls, neg):
            built.append(neg)
            return real_of(cls, neg)

        monkeypatch.setattr(WriteRoutes, "of", classmethod(counting_of))
        strategy = HierarchicalTwoPhaseStrategy(num_aggregators=3, ranks_per_node=ppn)
        assert_equivalent(*run_both(lambda: strategy, self.VIEWS))
        assert len(built) == 2  # once per driver
        assert all(len(neg._routes) == 0 for neg in built)


class TestHandles:
    """The bulk driver opens a handle for each rank whose plan transfers
    anything and for no other; however the run ends, none stays open."""

    P = 64
    VIEWS = column_wise_views(M=4, N=256, P=64, R=2)

    def make(self, executor_cls, strategy, fs=None):
        fs = fs or ParallelFileSystem(fast_fs_config())
        return fs, executor_cls(fs, strategy, filename="bulk.dat")

    def test_one_open_per_transferring_rank(self, monkeypatch):
        opened = []
        real_open = FSClient.open

        def counting_open(client, name, create=True):
            opened.append(client.client_id)
            return real_open(client, name, create)

        monkeypatch.setattr(FSClient, "open", counting_open)
        hier = lambda: HierarchicalTwoPhaseStrategy(num_aggregators=2, ranks_per_node=8)  # noqa: E731
        fs, writer = self.make(BulkWriteExecutor, hier())
        written = writer.run(self.P, lambda rank, P: self.VIEWS[rank], rank_pattern_bytes)
        assert opened == [o.rank for o in written.outcomes if o.segments_moved] == [0, 32]
        assert written.file.open_count == 0

        opened.clear()
        _, reader = self.make(BulkReadExecutor, hier(), fs)
        read = reader.run(self.P, lambda rank, P: self.VIEWS[rank])
        assert opened == [o.rank for o in read.outcomes if o.segments_moved] == [0, 32]
        assert read.file.open_count == 0

    @pytest.mark.parametrize(
        "executor_cls, strategy, error",
        [
            # Refused by _sweep, with the aggregators' handles already open.
            (BulkWriteExecutor, _CachedPhases, TypeError),
            (BulkReadExecutor, _CachedPhases, TypeError),
            # Ended by _lockstep: before the write sweep, after the read sweep.
            (BulkWriteExecutor, _EarlyExit, CollectiveMismatchError),
            (BulkReadExecutor, _EarlyExitScatter, CollectiveMismatchError),
        ],
    )
    def test_no_handle_survives_a_failed_run(self, executor_cls, strategy, error):
        views = TestScheduleDisagreementFailsLoudly.VIEWS
        fs, seed = self.make(BulkWriteExecutor, TwoPhaseStrategy())
        seed.run(4, lambda rank, P: views[rank], rank_pattern_bytes)
        _, executor = self.make(executor_cls, strategy(), fs)
        payload = (rank_pattern_bytes,) if executor_cls is BulkWriteExecutor else ()
        with pytest.raises(error):
            executor.run(4, lambda rank, P: views[rank], *payload)
        assert fs.lookup("bulk.dat").open_count == 0


# -- read replay ---------------------------------------------------------------

READ_STRATEGIES = {
    "two-phase": lambda: TwoPhaseStrategy(),
    "two-phase-few-aggs": lambda: TwoPhaseStrategy(num_aggregators=3),
    "two-phase-hier": lambda: HierarchicalTwoPhaseStrategy(ranks_per_node=3),
    "two-phase-hier-1agg": lambda: HierarchicalTwoPhaseStrategy(
        num_aggregators=1, ranks_per_node=4
    ),
    "auto": lambda: AutoStrategy(),
}

_READ_OUTCOME_FIELDS = (
    "strategy",
    "rank",
    "bytes_requested",
    "bytes_returned",
    "bytes_moved",
    "bytes_shuffled",
    "segments_moved",
    "phases",
    "my_phase",
    "colors_used",
    "start_time",
    "end_time",
    "cache_hits",
    "cache_misses",
    "extra",
)


def run_both_read(make_strategy, views):
    """Seed identical files, then read them back via engine and bulk replay."""
    results = []
    for reader_cls in (CollectiveReadExecutor, BulkReadExecutor):
        fs = ParallelFileSystem(fast_fs_config())
        seed = BulkWriteExecutor(fs, TwoPhaseStrategy(), filename="bulk.dat")
        seed.run(len(views), lambda rank, P: views[rank], rank_pattern_bytes)
        reader = reader_cls(fs, make_strategy(), filename="bulk.dat")
        results.append(reader.run(len(views), lambda rank, P: views[rank]))
    return results


def assert_read_equivalent(engine, bulk):
    assert bulk.spmd.makespan == engine.spmd.makespan  # exact, no tolerance
    assert [c.now for c in bulk.spmd.clocks] == [c.now for c in engine.spmd.clocks]
    assert bulk.data == engine.data
    for b, e in zip(bulk.outcomes, engine.outcomes):
        for field in _READ_OUTCOME_FIELDS:
            assert getattr(b, field) == getattr(e, field), field


class TestReadEngineEquivalence:
    @pytest.mark.parametrize("strategy", list(READ_STRATEGIES))
    def test_column_wise(self, strategy):
        views = column_wise_views(M=8, N=256, P=16, R=4)
        engine, bulk = run_both_read(READ_STRATEGIES[strategy], views)
        assert_read_equivalent(engine, bulk)

    @pytest.mark.parametrize("strategy", ["two-phase", "two-phase-hier", "auto"])
    def test_block_block(self, strategy):
        views = block_block_views(M=24, N=24, Pr=4, Pc=4, R=2)
        engine, bulk = run_both_read(READ_STRATEGIES[strategy], views)
        assert_read_equivalent(engine, bulk)

    @pytest.mark.parametrize("strategy", ["two-phase-hier", "auto"])
    def test_p256(self, strategy):
        views = column_wise_views(M=4, N=1024, P=256, R=2)
        engine, bulk = run_both_read(READ_STRATEGIES[strategy], views)
        assert_read_equivalent(engine, bulk)

    def test_p1024(self):
        """The differential ceiling of the acceptance criteria."""
        views = column_wise_views(M=2, N=2048, P=1024, R=2)
        engine, bulk = run_both_read(
            lambda: HierarchicalTwoPhaseStrategy(
                num_aggregators=8, ranks_per_node=8
            ),
            views,
        )
        assert_read_equivalent(engine, bulk)


class TestReadRoutes:
    """A read collective builds its routes once, shared by every rank on
    both drivers, and lets go of them when its last coroutine ends, as a
    write does its own; a write builds none."""

    VIEWS = column_wise_views(M=4, N=256, P=24, R=2)

    @pytest.mark.parametrize("ppn", [1, 5])
    def test_built_once_and_released(self, monkeypatch, ppn):
        built = []
        real_of = ReadRoutes.of.__func__

        def counting_of(cls, neg):
            built.append(neg)
            return real_of(cls, neg)

        monkeypatch.setattr(ReadRoutes, "of", classmethod(counting_of))
        strategy = lambda: HierarchicalTwoPhaseStrategy(  # noqa: E731
            num_aggregators=3, ranks_per_node=ppn
        )
        assert_equivalent(*run_both(strategy, self.VIEWS))
        assert built == []
        assert_read_equivalent(*run_both_read(strategy, self.VIEWS))
        assert len(built) == 2  # once per driver
        assert built[0] is not built[1]
        assert all(len(neg._routes) == 0 for neg in built)


class TestReadGuardrails:
    def test_rejects_non_aggregation_strategy(self):
        fs = ParallelFileSystem(fast_fs_config())
        with pytest.raises(TypeError):
            BulkReadExecutor(fs, LockingStrategy())

    def test_rejects_bad_nprocs(self):
        fs = ParallelFileSystem(fast_fs_config())
        fs.create("bulk.dat")
        executor = BulkReadExecutor(fs, TwoPhaseStrategy())
        with pytest.raises(ValueError):
            executor.run(0, lambda rank, P: [(0, 4)])
