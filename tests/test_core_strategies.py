"""Unit tests for the atomicity strategies and the concurrent-write executor."""

from __future__ import annotations

import pytest

from repro.core.executor import AtomicWriteExecutor, default_data_factory
from repro.core.regions import FileRegionSet
from repro.core.registry import default_registry
from repro.core.strategies import (
    GraphColoringStrategy,
    LockingStrategy,
    NoAtomicityStrategy,
    RankOrderingStrategy,
    TwoPhaseStrategy,
)
from repro.core.rank_ordering import LOWER_RANK_WINS
from repro.fs import ParallelFileSystem, gpfs_config
from repro.fs.client import FSClient
from repro.fs.errors import LockingUnsupported
from repro.mpi import SPMDExecutionError, run_spmd
from repro.patterns.partition import column_wise_views
from repro.verify.atomicity import check_coverage, check_mpi_atomicity
from tests.conftest import fast_fs_config
from repro.fs.filesystem import LockProtocol


VIEWS = column_wise_views(M=16, N=128, P=4, R=4)


def run(strategy, fs=None, nprocs=4, views=None, data_factory=default_data_factory):
    fs = fs or ParallelFileSystem(fast_fs_config())
    views = views or VIEWS
    executor = AtomicWriteExecutor(fs, strategy, filename="t.dat")
    return executor.run(nprocs, lambda rank, P: views[rank], data_factory)


class TestStrategyFactory:
    def test_names(self):
        # Registration order: the paper's strategies come first, then tuners.
        assert set(default_registry.names()[:6]) == {
            "locking",
            "graph-coloring",
            "rank-ordering",
            "two-phase",
            "two-phase-hier",
            "none",
        }

    def test_lookup(self):
        assert isinstance(default_registry.create("locking"), LockingStrategy)
        assert isinstance(default_registry.create("graph-coloring"), GraphColoringStrategy)
        assert isinstance(default_registry.create("rank-ordering"), RankOrderingStrategy)
        assert isinstance(default_registry.create("none"), NoAtomicityStrategy)
        assert isinstance(default_registry.create("two-phase"), TwoPhaseStrategy)
        with pytest.raises(KeyError):
            default_registry.create("no-such-strategy")

    def test_kwargs_forwarded(self):
        s = default_registry.create("rank-ordering", policy=LOWER_RANK_WINS)
        assert s.policy is LOWER_RANK_WINS


class TestDataValidation:
    def test_data_length_mismatch_rejected(self):
        fs = ParallelFileSystem(fast_fs_config())
        executor = AtomicWriteExecutor(fs, LockingStrategy(), "t.dat")
        with pytest.raises(SPMDExecutionError) as excinfo:
            executor.run(2, lambda rank, P: [(0, 10)], lambda rank, n: b"short")
        assert any(isinstance(e, ValueError) for e in excinfo.value.failures.values())

    def test_zero_procs_rejected(self):
        fs = ParallelFileSystem(fast_fs_config())
        executor = AtomicWriteExecutor(fs, LockingStrategy(), "t.dat")
        with pytest.raises(ValueError):
            executor.run(0, lambda rank, P: [])


class TestLockingStrategy:
    def test_atomic_and_complete(self):
        result = run(LockingStrategy())
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok

    def test_outcome_accounting(self):
        result = run(LockingStrategy())
        for rank, outcome in enumerate(result.outcomes):
            assert outcome.strategy == "locking"
            assert outcome.rank == rank
            assert outcome.locks_acquired == 1
            assert outcome.bytes_moved == outcome.bytes_requested
            assert outcome.extra["locked_bytes"] >= outcome.bytes_requested

    def test_write_lock_wait_accounted_on_gpfs(self):
        """The serialisation cost of byte-range locking shows on the write
        side: each rank's ``lock_wait_seconds`` is what its clock waited
        across the acquisition (token round trip plus any queueing)."""
        fs = ParallelFileSystem(gpfs_config())
        fs.create("t.dat")

        def fn(comm):
            region = FileRegionSet(comm.rank, VIEWS[comm.rank])
            handle = FSClient(fs, client_id=comm.rank, clock=comm.clock).open("t.dat")
            grant, waited = handle.lock, []

            def lock(start, stop, mode):
                before = comm.clock.waited
                granted = grant(start, stop, mode=mode)
                waited.append(comm.clock.waited - before)
                return granted

            handle.lock = lock
            try:
                data = default_data_factory(comm.rank, region.total_bytes)
                outcome = LockingStrategy().execute_write(comm, handle, region, data)
            finally:
                handle.close()
            return outcome.lock_wait_seconds, waited

        for lock_wait, waited in run_spmd(fn, 4).returns:
            assert lock_wait == sum(waited) > 0
            assert len(waited) == 1

    def test_locks_whole_extent_not_just_view(self):
        """Section 3.2: for column-wise views the lock covers nearly the
        whole file, far more than the bytes actually written."""
        result = run(LockingStrategy())
        interior = result.outcomes[1]
        assert interior.extra["locked_bytes"] > 2 * interior.bytes_requested

    def test_requires_lock_support(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        with pytest.raises(SPMDExecutionError) as excinfo:
            run(LockingStrategy(), fs=fs)
        assert any(
            isinstance(e, LockingUnsupported) for e in excinfo.value.failures.values()
        )

    def test_empty_view_ok(self):
        views = [[(0, 16)], []]
        result = run(LockingStrategy(), nprocs=2, views=views)
        assert result.outcomes[1].bytes_moved == 0
        assert result.outcomes[1].locks_acquired == 0

    def test_works_with_distributed_locks(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.DISTRIBUTED))
        result = run(LockingStrategy(), fs=fs)
        assert check_mpi_atomicity(result.file.store, result.regions).ok


class TestGraphColoringStrategy:
    def test_atomic_and_complete(self):
        result = run(GraphColoringStrategy())
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok

    def test_two_phases_for_column_wise(self):
        result = run(GraphColoringStrategy())
        for rank, outcome in enumerate(result.outcomes):
            assert outcome.phases == 2
            assert outcome.colors_used == 2
            assert outcome.my_phase == rank % 2

    def test_no_locks_used(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        result = run(GraphColoringStrategy(), fs=fs)
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert all(o.locks_acquired == 0 for o in result.outcomes)

    def test_single_phase_when_no_overlap(self):
        views = [[(i * 100, 50)] for i in range(4)]
        result = run(GraphColoringStrategy(), views=views)
        assert all(o.phases == 1 for o in result.outcomes)

    def test_full_volume_written(self):
        result = run(GraphColoringStrategy())
        assert result.total_bytes_written == result.total_bytes_requested


class TestRankOrderingStrategy:
    def test_atomic_and_complete(self):
        result = run(RankOrderingStrategy())
        assert check_mpi_atomicity(result.file.store, result.regions).ok
        assert check_coverage(result.file.store, result.regions).ok

    def test_overlaps_written_by_highest_rank(self):
        result = run(RankOrderingStrategy())
        store = result.file.store
        regions = result.regions
        for i in range(3):
            overlap = regions[i].overlap_region(regions[i + 1])
            for iv in overlap:
                assert store.distinct_writers(iv.start, iv.length) == (i + 1,)

    def test_lower_rank_wins_variant(self):
        result = run(RankOrderingStrategy(policy=LOWER_RANK_WINS))
        store = result.file.store
        regions = result.regions
        assert check_mpi_atomicity(store, regions).ok
        for i in range(3):
            overlap = regions[i].overlap_region(regions[i + 1])
            for iv in overlap:
                assert store.distinct_writers(iv.start, iv.length) == (i,)

    def test_volume_reduction(self):
        result = run(RankOrderingStrategy())
        assert result.total_bytes_written < result.total_bytes_requested
        surrendered = sum(o.bytes_surrendered for o in result.outcomes)
        assert result.total_bytes_written + surrendered == result.total_bytes_requested

    def test_no_locks_used(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        result = run(RankOrderingStrategy(), fs=fs)
        assert check_mpi_atomicity(result.file.store, result.regions).ok

    def test_data_placement_correct(self):
        """Each byte that survives trimming carries the winning rank's data,
        taken from the right position of that rank's buffer."""
        def patterned(rank, nbytes):
            return bytes((rank * 37 + i) % 251 for i in range(nbytes))

        result = run(RankOrderingStrategy(), data_factory=patterned)
        store = result.file.store
        for region in result.regions:
            data = patterned(region.rank, region.total_bytes)
            for buf_off, file_off, length in region.buffer_map():
                written_by = store.distinct_writers(file_off, length)
                if written_by == (region.rank,):
                    assert store.read(file_off, length) == data[buf_off : buf_off + length]


class TestExecutorResult:
    def test_bandwidth_and_makespan(self):
        result = run(RankOrderingStrategy())
        assert result.makespan > 0
        assert result.bandwidth() > 0
        assert result.nprocs == 4

    def test_default_data_factory(self):
        assert default_data_factory(0, 4) == b"AAAA"
        assert default_data_factory(2, 2) == b"CC"
