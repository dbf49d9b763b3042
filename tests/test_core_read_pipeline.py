"""Tests for the read direction of the staged collective-I/O pipeline.

The plan structures and the runner are direction-parametrised in
``tests/test_core_pipeline.py``; this module covers read support in every
registered strategy (round-trip correctness against a completed atomic
write), the shared-mode lock semantics of the locking read, the
single-read-per-byte property of the two-phase read, and determinism of the
pipeline at P=256.
"""

from __future__ import annotations

import pytest

from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.regions import FileRegionSet
from repro.core.registry import default_registry
from repro.core.strategies import IOOutcome
from repro.fs.filesystem import ParallelFileSystem
from repro.mpi.cost import CommCostModel
from repro.patterns.partition import column_wise_views
from repro.patterns.workloads import rank_pattern_bytes
from repro.verify.atomicity import ReadObservation, check_read_atomicity
from tests.conftest import fast_fs_config

M, N, P, R = 16, 512, 4, 16


def _checkpointed_fs(lock_protocol=None, write_strategy="two-phase"):
    """A file system holding a completed atomic column-wise write."""
    cfg = fast_fs_config() if lock_protocol is None else fast_fs_config(lock_protocol)
    fs = ParallelFileSystem(cfg)
    views = column_wise_views(M, N, P, R)
    executor = AtomicWriteExecutor(
        fs, default_registry.create(write_strategy), filename="ckpt.dat"
    )
    result = executor.run(
        P, view_factory=lambda r, _p: views[r], data_factory=rank_pattern_bytes
    )
    fs.reset_accounting()
    return fs, result


def _expected_stream(store, region: FileRegionSet) -> bytes:
    """What a serialised read of the final file state returns for a view."""
    out = bytearray()
    for _, off, length in region.buffer_map():
        out.extend(store.read(off, length))
    return bytes(out)


class TestStrategyReadRoundTrip:
    """Every registered strategy must deliver the committed file state."""

    @pytest.mark.parametrize("name", default_registry.read_capable_names())
    def test_read_returns_committed_state(self, name):
        fs, wres = _checkpointed_fs()
        reader = CollectiveReadExecutor(
            fs, default_registry.create(name), filename="ckpt.dat"
        )
        views = column_wise_views(M, N, P, R)
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        store = wres.file.store
        for rank in range(P):
            assert rres.data[rank] == _expected_stream(store, rres.regions[rank]), name
            out = rres.outcomes[rank]
            assert isinstance(out, IOOutcome)
            assert out.strategy == name
            assert out.bytes_requested == rres.regions[rank].total_bytes
            assert out.bytes_returned == out.bytes_requested
            assert out.end_time >= out.start_time

    def test_all_registered_strategies_are_read_capable(self):
        assert set(default_registry.read_capable_names()) == set(
            default_registry.names()
        )

    @pytest.mark.parametrize("name", default_registry.read_capable_names())
    def test_read_atomicity_verifier_accepts_post_write_read(self, name):
        fs, wres = _checkpointed_fs()
        reader = CollectiveReadExecutor(
            fs, default_registry.create(name), filename="ckpt.dat"
        )
        views = column_wise_views(M, N, P, R)
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        observations = [
            ReadObservation(r, rres.regions[r], rres.data[r]) for r in range(P)
        ]
        write_data = [
            rank_pattern_bytes(r, wres.regions[r].total_bytes) for r in range(P)
        ]
        assert check_read_atomicity(observations, wres.regions, write_data).ok


class TestLockingRead:
    def test_shared_locks_do_not_serialise_readers(self):
        fs, _ = _checkpointed_fs()
        reader = CollectiveReadExecutor(
            fs, default_registry.create("locking"), filename="ckpt.dat"
        )
        views = column_wise_views(M, N, P, R)
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        lm = rres.file.lock_manager
        # Overlapping extents, but every lock is shared: nobody waited.
        assert lm.wait_count == 0
        assert lm.shared_grant_count == P
        assert all(o.locks_acquired == 1 for o in rres.outcomes)
        # lock_wait_seconds includes the manager round trip; without
        # conflicts it is exactly the request latency, never a queue wait.
        latency = rres.fs.config.lock_request_latency
        assert all(o.lock_wait_seconds == pytest.approx(latency) for o in rres.outcomes)

    def test_shared_read_locks_on_token_manager(self, token_fs):
        views = column_wise_views(M, N, P, R)
        executor = AtomicWriteExecutor(
            token_fs, default_registry.create("two-phase"), filename="t.dat"
        )
        executor.run(P, view_factory=lambda r, _p: views[r])
        token_fs.reset_accounting()
        reader = CollectiveReadExecutor(
            token_fs, default_registry.create("locking"), filename="t.dat"
        )
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        # Read tokens co-exist: no reader revoked another reader's token.
        lm = rres.file.lock_manager
        assert lm.revocation_count == 0


class TestTwoPhaseRead:
    def test_each_file_byte_read_once(self):
        fs, wres = _checkpointed_fs()
        reader = CollectiveReadExecutor(
            fs, default_registry.create("two-phase"), filename="ckpt.dat"
        )
        views = column_wise_views(M, N, P, R)
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        domain_bytes = M * N  # column-wise views cover the whole array
        assert rres.total_bytes_read == domain_bytes
        # Ghost overlaps make the requested volume strictly larger.
        assert rres.total_bytes_requested > domain_bytes
        assert all(o.phases == 2 for o in rres.outcomes)
        # The scatter's volume and the checkpoint write's shuffle volume are
        # the same outcome field.
        assert sum(o.bytes_shuffled for o in rres.outcomes) > 0
        assert sum(o.bytes_shuffled for o in wres.outcomes) > 0

    def test_works_on_lockless_fs(self):
        from repro.fs.filesystem import LockProtocol

        fs, wres = _checkpointed_fs(
            lock_protocol=LockProtocol.NONE, write_strategy="rank-ordering"
        )
        reader = CollectiveReadExecutor(
            fs, default_registry.create("two-phase"), filename="ckpt.dat"
        )
        views = column_wise_views(M, N, P, R)
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        store = wres.file.store
        for rank in range(P):
            assert rres.data[rank] == _expected_stream(store, rres.regions[rank])

    def test_empty_view_rank_participates(self):
        fs, _ = _checkpointed_fs()
        views = column_wise_views(M, N, P, R)
        views[2] = []  # one rank reads nothing but still joins the collective
        reader = CollectiveReadExecutor(
            fs, default_registry.create("two-phase"), filename="ckpt.dat"
        )
        rres = reader.run(P, view_factory=lambda r, _p: views[r])
        assert rres.data[2] == b""
        assert rres.outcomes[2].bytes_returned == 0


class TestReadDeterminism:
    """The read pipeline is bit-for-bit reproducible at P=256."""

    def _run_once(self):
        P256 = 256
        fs = ParallelFileSystem(fast_fs_config())
        views = column_wise_views(16, 8192, P256, 8)
        writer = AtomicWriteExecutor(
            fs,
            default_registry.create("two-phase"),
            filename="big.dat",
            comm_cost=CommCostModel(latency=30e-6, byte_cost=1e-8),
        )
        writer.run(
            P256, view_factory=lambda r, _p: views[r], data_factory=rank_pattern_bytes
        )
        fs.reset_accounting()
        reader = CollectiveReadExecutor(
            fs,
            default_registry.create("two-phase"),
            filename="big.dat",
            comm_cost=CommCostModel(latency=30e-6, byte_cost=1e-8),
        )
        rres = reader.run(P256, view_factory=lambda r, _p: views[r])
        return (
            rres.makespan,
            [bytes(d) for d in rres.data],
            [o.bytes_moved for o in rres.outcomes],
            [o.bytes_shuffled for o in rres.outcomes],
        )

    def test_two_runs_identical(self):
        assert self._run_once() == self._run_once()
