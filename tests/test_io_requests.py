"""Tests for the request-based nonblocking & split-collective I/O API.

Covers the lifecycle of a file operation's :class:`repro.mpi.status.Request`
(Wait/Test, misuse, exception propagation), the split-collective begin/end
pairs, Waitall/Testall/Waitany over lists of file and point-to-point requests, the
collective Close semantics, the Info-hint threading, and the atomicity
verifier under racing nonblocking collectives.
"""

from __future__ import annotations

import pytest

from repro.core.regions import FileRegionSet
from repro.core.registry import default_registry
from repro.core.strategies import IOOutcome, NoAtomicityStrategy, TwoPhaseStrategy
from repro.datatypes import CHAR, contiguous
from repro.fs import ParallelFileSystem
from repro.io import Info, MPIFile
from repro.mpi import CollectiveAbortedError, Request, Testall, Waitall, Waitany, run_spmd
from repro.patterns.workloads import rank_pattern_bytes
from repro.verify.atomicity import (
    ReadObservation,
    check_mpi_atomicity,
    check_read_atomicity,
)
from tests.conftest import fast_fs_config


def _register_for_test(monkeypatch, cls) -> Info:
    """Register a test-only strategy class for one test (the registry is
    restored afterwards); returns the Info that selects it."""
    monkeypatch.setitem(default_registry._classes, cls.name, cls)
    return Info({"atomicity_strategy": cls.name})


class TestNonblockingCollectives:
    def test_iwrite_all_roundtrip(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "nb.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            request = f.Iwrite_all(bytes([65 + comm.rank]) * 8)
            assert isinstance(request, Request)
            outcome = request.Wait()
            assert isinstance(outcome, IOOutcome)
            assert outcome.bytes_requested == 8
            f.Close()

        run_spmd(fn, 4)
        assert fast_fs.lookup("nb.dat").store.read(0, 32) == b"A" * 8 + b"B" * 8 + b"C" * 8 + b"D" * 8

    def test_iread_all_fills_buffer_at_wait(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "nbr.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"payload-" * 8)
            f.Sync()
            f.Set_view(0, CHAR, contiguous(64, CHAR))
            buf = bytearray(64)
            request = f.Iread_all(buf)
            outcome = request.Wait()
            assert isinstance(outcome, IOOutcome)
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 2)
        assert all(r == b"payload-" * 8 for r in result.returns)

    def test_overlap_shrinks_makespan(self):
        """Compute issued between begin and end hides under the commit."""

        def workload(api):
            fs = ParallelFileSystem(fast_fs_config())

            def fn(comm):
                f = MPIFile.Open(comm, "ov.dat", fs, info=Info({"atomicity_strategy": "two-phase"}))
                f.Set_atomicity(True)
                f.Set_view(0, CHAR, contiguous(4096, CHAR))
                payload = rank_pattern_bytes(comm.rank, 4096)
                if api == "blocking":
                    f.Write_all(payload)
                    comm.clock.advance(0.01)
                else:
                    f.Write_all_begin(payload)
                    comm.clock.advance(0.01)
                    f.Write_all_end()
                f.Close()

            return run_spmd(fn, 2).makespan

        assert workload("split") < workload("blocking")

    def test_nonblocking_atomic_write_passes_verifier(self, fast_fs):
        nbytes = 256

        def fn(comm):
            f = MPIFile.Open(comm, "nbat.dat", fast_fs, info=Info({"atomicity_strategy": "two-phase"}))
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(nbytes, CHAR))  # fully overlapping
            request = f.Iwrite_all(rank_pattern_bytes(comm.rank, nbytes))
            comm.clock.advance(0.002)  # overlapped compute
            request.Wait()
            f.Close()

        run_spmd(fn, 4)
        regions = [FileRegionSet(r, [(0, nbytes)]) for r in range(4)]
        assert check_mpi_atomicity(fast_fs.lookup("nbat.dat").store, regions).ok


class TestSplitCollectives:
    def test_write_then_read_begin_end_roundtrip(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "sp.dat", fast_fs)
            f.Set_view(comm.rank * 16, CHAR, contiguous(16, CHAR))
            f.Write_all_begin(bytes([97 + comm.rank]) * 16)
            comm.clock.advance(0.001)
            outcome = f.Write_all_end()
            assert isinstance(outcome, IOOutcome)
            f.Seek(0)
            buf = bytearray(16)
            f.Read_all_begin(buf)
            comm.clock.advance(0.001)
            read_outcome = f.Read_all_end()
            assert isinstance(read_outcome, IOOutcome)
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 3)
        for rank, data in enumerate(result.returns):
            assert data == bytes([97 + rank]) * 16

    def test_second_begin_while_active_rejected(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "sp2.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            f.Write_all_begin(b"x" * 8)
            with pytest.raises(RuntimeError, match="split collective is already active"):
                f.Write_all_begin(b"y" * 8)
            f.Write_all_end()
            f.Close()

        run_spmd(fn, 2)

    def test_end_without_begin_rejected(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "sp3.dat", fast_fs)
            with pytest.raises(RuntimeError, match="no split collective write"):
                f.Write_all_end()
            with pytest.raises(RuntimeError, match="no split collective read"):
                f.Read_all_end()
            f.Close()

        run_spmd(fn, 1)


class TestRequestMisuse:
    def test_double_wait_is_idempotent(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "dw.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            request = f.Iwrite_all(b"d" * 8)
            first = request.Wait()
            second = request.Wait()
            assert first is second
            assert request.retired
            f.Close()

        run_spmd(fn, 2)

    def test_test_then_wait(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "tw.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            request = f.Iwrite_all(b"t" * 8)
            # Freshly issued: the progress task has not run yet.
            flag = request.Test()
            outcome = request.Wait()
            assert isinstance(outcome, IOOutcome)
            assert request.Test() is True  # completed requests keep testing true
            assert request.Wait() is outcome
            f.Close()
            return flag

        run_spmd(fn, 2)

    def test_polling_loop_completes(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "poll.dat", fast_fs)
            f.Set_view(comm.rank * 64, CHAR, contiguous(64, CHAR))
            request = f.Iwrite_all(b"p" * 64)
            spins = 0
            while not request.Test():
                comm.clock.advance(1e-4)  # compute between polls
                spins += 1
                assert spins < 10_000, "Test() loop starved the progress task"
            f.Close()
            return spins

        run_spmd(fn, 2)

    def test_dropped_request_blocks_close_then_completes(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "drop.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            request = f.Iwrite_all(bytes([48 + comm.rank]) * 8)
            with pytest.raises(RuntimeError, match="outstanding I/O request"):
                f.Close()
            # The operation itself was never lost — completing it unblocks
            # the close, and the data is on the servers.
            Waitall([request])
            f.Close()

        run_spmd(fn, 2)
        assert fast_fs.lookup("drop.dat").store.read(0, 16) == b"0" * 8 + b"1" * 8

    def test_unfillable_read_buffer_fails_at_issue(self, fast_fs):
        """A read into a buffer it cannot fill raises the plain ``TypeError``
        on the calling rank before any flush, rendezvous or I/O — for all six
        read entry points — and leaves no request, split or pointer move."""
        typed = (2, contiguous(4, CHAR))
        calls = [
            lambda f: f.Read_all(bytes(8)),
            lambda f: f.Iread_all(bytes(8)),
            lambda f: f.Read_all_begin(bytes(8)),
            lambda f: f.Read_all(bytes(8), *typed),
            lambda f: f.Read_at(0, bytes(8)),
            lambda f: f.Iread_at(0, memoryview(bytearray(8))),
            lambda f: f.Read(bytes(8), *typed),
        ]

        def fn(comm):
            f = MPIFile.Open(comm, "bad.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            f.Write_all(bytes([65 + comm.rank]) * 8)
            f.Sync()
            f.Seek(0)
            servers = fast_fs.servers
            charged = (servers.total_requests(), servers.aggregate_busy_time())
            for call in calls:
                with pytest.raises(TypeError, match="cannot read into"):
                    call(f)
            comm.barrier()
            assert (servers.total_requests(), servers.aggregate_busy_time()) == charged
            assert f.Tell() == 0 and not f._outstanding and f._split_active is None
            buf = bytearray(8)
            f.Read_all(buf)  # the file is still usable collectively
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 3)
        assert result.returns == [bytes([65 + r]) * 8 for r in range(3)]

    def test_failing_collective_aborts_all_ranks(self, fast_fs, monkeypatch):
        fail_rank = 1

        class ExplodingTwoPhase(TwoPhaseStrategy):
            name = "exploding-two-phase"

            def schedule(self, comm, region, data, report):
                if region.rank == fail_rank:
                    raise ValueError("injected mid-shuffle failure")
                return super().schedule(comm, region, data, report)

        info = _register_for_test(monkeypatch, ExplodingTwoPhase)

        def fn(comm):
            f = MPIFile.Open(comm, "boom.dat", fast_fs, info=info)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(64, CHAR))
            request = f.Iwrite_all(b"b" * 64)
            try:
                Waitall([request])
            except CollectiveAbortedError as exc:
                f.Close()
                return type(exc).__name__, type(exc.__cause__).__name__ if exc.__cause__ else None
            raise AssertionError("Waitall should have raised")

        result = run_spmd(fn, 3)
        for rank, (kind, cause) in enumerate(result.returns):
            assert kind == "CollectiveAbortedError"
            if rank == fail_rank:
                assert cause == "ValueError"  # the injected failure is chained

    def test_waitany_order_is_deterministic(self):
        def run_once():
            fs = ParallelFileSystem(fast_fs_config())

            def fn(comm):
                big = MPIFile.Open(comm, "big.dat", fs)
                small = MPIFile.Open(comm, "small.dat", fs)
                big.Set_view(comm.rank * 65536, CHAR, contiguous(65536, CHAR))
                small.Set_view(comm.rank * 16, CHAR, contiguous(16, CHAR))
                requests = [big.Iwrite_all(b"B" * 65536), small.Iwrite_all(b"s" * 16)]
                order = []
                while True:
                    index = Waitany(requests)
                    if index is None:
                        break
                    order.append(index)
                big.Close()
                small.Close()
                return order

            return run_spmd(fn, 2).returns

        first = run_once()
        second = run_once()
        # Identical runs retire requests in the identical order …
        assert first == second
        assert all(order == first[0] for order in first)
        # … which is virtual-time completion order: the small write first.
        assert first[0] == [1, 0]

    def test_waitall_mixed_with_p2p_requests(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "mix.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            if comm.rank == 0:
                requests = [comm.isend({"hello": 1}, dest=1), f.Iwrite_all(b"m" * 8)]
                results = Waitall(requests)
                f.Close()
                return results[1].bytes_moved
            requests = [comm.irecv(source=0), f.Iwrite_all(b"m" * 8)]
            results = Waitall(requests)
            f.Close()
            return results[0]

        result = run_spmd(fn, 2)
        assert result.returns[0] == 8
        assert result.returns[1] == {"hello": 1}

    def test_testall_completes_only_when_all_done(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "ta.dat", fast_fs)
            f.Set_view(comm.rank * 32, CHAR, contiguous(32, CHAR))
            requests = [f.Iwrite_all(b"1" * 32)]
            spins = 0
            while not Testall(requests):
                comm.clock.advance(1e-4)
                spins += 1
                assert spins < 10_000
            assert all(r.retired for r in requests)
            f.Close()

        run_spmd(fn, 2)


class TestRetirementCoherence:
    """Review-pinned regressions: waited requests are readable-after."""

    def test_iwrite_at_visible_to_own_rank_after_wait(self, fast_fs):
        """Non-atomic Iwrite_at buffers in the progress handle's cache; the
        retirement flush must make it visible to the rank's own blocking
        reads (read-your-own-writes across handles)."""

        def fn(comm):
            f = MPIFile.Open(comm, "ryow_nb.dat", fast_fs)
            out = None
            if comm.rank == 0:
                written = f.Iwrite_at(0, b"A" * 64).Wait().bytes_moved
                buf = bytearray(64)
                f.Read_at(0, buf)
                out = written, bytes(buf)
            f.Close()
            return out

        result = run_spmd(fn, 2)
        written, data = result.returns[0]
        assert written == 64
        assert data == b"A" * 64

    def test_sync_with_outstanding_request_rejected(self, fast_fs):
        """MPI requires all requests complete before Sync; a silent partial
        flush would break the visibility contract, so Sync refuses."""

        def fn(comm):
            f = MPIFile.Open(comm, "sync_nb.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            request = f.Iwrite_all(b"s" * 8)
            with pytest.raises(RuntimeError, match="outstanding I/O request"):
                f.Sync()
            request.Wait()
            f.Sync()  # fine once the request is retired
            f.Close()

        run_spmd(fn, 2)

    def test_waited_write_visible_to_peer_after_sync(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "peer_nb.dat", fast_fs)
            if comm.rank == 0:
                f.Iwrite_at(0, b"E" * 64).Wait()
            f.Sync()  # collective: rank 1 reads after the barrier
            buf = bytearray(64)
            f.Read_at(0, buf)
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 2)
        assert result.returns[1] == b"E" * 64

    def test_failed_begin_does_not_move_file_pointer(self, fast_fs, monkeypatch):
        class FailingPrepare(NoAtomicityStrategy):
            name = "failing-prepare"

            def prepare(self, comm, region, start_time, data=None):
                raise RuntimeError("negotiation failed")

        info = _register_for_test(monkeypatch, FailingPrepare)

        def fn(comm):
            f = MPIFile.Open(comm, "ptr.dat", fast_fs, info=info)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(8, CHAR))
            with pytest.raises(RuntimeError, match="negotiation failed"):
                f.Write_all_begin(b"x" * 8)  # begin fails in its prepare
            position = f.Tell()
            f.Close()
            return position

        result = run_spmd(fn, 1)
        assert result.returns == [0], "a failed begin must not move the pointer"

    def test_waited_write_visible_while_later_request_outstanding(self, fast_fs):
        """Retiring a write must flush it even when a later request is still
        in flight — a waited-on write is readable-after unconditionally."""

        def fn(comm):
            out = None
            f = MPIFile.Open(comm, "early_retire.dat", fast_fs)
            if comm.rank == 0:
                first = f.Iwrite_at(0, b"X" * 64)
                second = f.Iread_at(128, bytearray(16))
                first.Wait()  # `second` is still outstanding here
                buf = bytearray(64)
                f.Read_at(0, buf)
                second.Wait()
                out = bytes(buf)
            f.Close()
            return out

        result = run_spmd(fn, 2)
        assert result.returns[0] == b"X" * 64

    def test_iread_at_sees_main_handle_write(self, fast_fs):
        """A nonblocking independent read must not serve pages the progress
        handle cached before the rank's own (main-handle) write."""

        def fn(comm):
            out = None
            f = MPIFile.Open(comm, "stale_nb.dat", fast_fs)
            if comm.rank == 0:
                buf0 = bytearray(16)
                f.Iread_at(0, buf0).Wait()  # caches the (zero) page
                f.Write_at(0, b"B" * 16)    # main handle, write-behind
                buf1 = bytearray(16)
                f.Iread_at(0, buf1).Wait()
                out = bytes(buf1)
            f.Close()
            return out

        result = run_spmd(fn, 2)
        assert result.returns[0] == b"B" * 16

    def test_peer_failure_aborts_inflight_collectives(self, fast_fs):
        """A dying rank must surface CollectiveAbortedError (not a deadlock
        report) on peers whose nonblocking collectives it will never join."""
        from repro.mpi import SPMDExecutionError

        def fn(comm):
            f = MPIFile.Open(comm, "die.dat", fast_fs, info=Info({"atomicity_strategy": "two-phase"}))
            f.Set_atomicity(True)
            if comm.rank == 0:
                raise ValueError("rank 0 dies before joining the collective")
            f.Set_view(0, CHAR, contiguous(32, CHAR))
            f.Iwrite_all(b"d" * 32).Wait()
            f.Close()

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        failures = excinfo.value.failures
        assert isinstance(failures[0], ValueError)
        assert isinstance(failures[1], CollectiveAbortedError)

    def test_waitall_and_testall_accept_none_placeholders(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "null.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            requests = [None, f.Iwrite_all(b"n" * 8), None]
            spins = 0
            while not Testall(requests):
                comm.clock.advance(1e-4)
                spins += 1
                assert spins < 10_000
            results = Waitall(requests)
            f.Close()
            return results[0] is None and results[2] is None and results[1].bytes_moved == 8

        result = run_spmd(fn, 2)
        assert all(result.returns)

    def test_waitany_drains_mixed_p2p_list(self, fast_fs):
        def fn(comm):
            if comm.rank == 0:
                comm.send("two", dest=1, tag=2)
                comm.clock.advance(1.0)
                comm.send("one", dest=1, tag=1)
                return None
            requests = [comm.irecv(source=0, tag=1), comm.irecv(source=0, tag=2)]
            order = []
            while True:
                index = Waitany(requests)
                if index is None:
                    break
                order.append(index)
            return order

        result = run_spmd(fn, 2)
        # Each p2p request retires once, in the order its message was sent.
        assert result.returns[1] == [1, 0]


class TestCloseSemantics:
    def test_close_flushes_write_behind_pages(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "flush.dat", fast_fs)
            cache = f._handle.cache
            if comm.rank == 0:
                f.Write_at(0, b"q" * 512)  # write-behind: dirty pages only
            dirty_before = cache.dirty_bytes()
            f.Close()
            return dirty_before, cache.dirty_bytes()

        result = run_spmd(fn, 2)
        dirty_before, dirty_after = result.returns[0]
        assert dirty_before == 512, "the write should have been buffered"
        assert dirty_after == 0, "dirty pages must not survive a close"
        assert fast_fs.lookup("flush.dat").store.read(0, 512) == b"q" * 512

    def test_close_is_collective(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "coll.dat", fast_fs)
            if comm.rank == 0:
                comm.clock.advance(0.5)
            f.Close()
            return comm.clock.now

        result = run_spmd(fn, 3)
        # The close barrier synchronises every rank past rank 0's compute.
        assert all(now >= 0.5 for now in result.returns)


class TestInfoHints:
    def test_cb_nodes_bounds_aggregators(self, fast_fs):
        info = Info({"atomicity_strategy": "two-phase", "cb_nodes": "2"})

        def fn(comm):
            f = MPIFile.Open(comm, "cbn.dat", fast_fs, info=info)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(256, CHAR))
            outcome = f.Write_all(rank_pattern_bytes(comm.rank, 256))
            f.Close()
            return outcome

        result = run_spmd(fn, 4)
        assert all(o.extra["aggregators"] == 2.0 for o in result.returns)

    def test_cb_buffer_size_sizes_the_election(self, fast_fs):
        # 256-byte domain with 64-byte aggregator buffers -> 4 aggregators.
        info = Info({"atomicity_strategy": "two-phase", "cb_buffer_size": "64"})

        def fn(comm):
            f = MPIFile.Open(comm, "cbb.dat", fast_fs, info=info)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(256, CHAR))
            outcome = f.Write_all(rank_pattern_bytes(comm.rank, 256))
            f.Close()
            return outcome

        result = run_spmd(fn, 8)
        assert all(o.extra["aggregators"] == 4.0 for o in result.returns)

    def test_striping_unit_applied_at_open(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "su.dat", fast_fs, info=Info({"striping_unit": "4096"}))
            stripe = f._handle.file.layout.stripe_size
            f.Close()
            return stripe

        result = run_spmd(fn, 2)
        assert all(s == 4096 for s in result.returns)

    def test_read_ahead_toggle(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "ra.dat", fast_fs, info=Info({"read_ahead": "false"}))
            if comm.rank == 0:
                f.Write_at(0, b"r" * 2048)
            f.Sync()
            buf = bytearray(256)
            f.Read_at(0, buf)  # cached read; would normally read ahead
            stats = f._handle.cache.stats
            f.Close()
            return stats.read_ahead_pages

        result = run_spmd(fn, 1)
        assert result.returns[0] == 0


class TestMixedRaceNonblocking:
    """Acceptance: nonblocking + split collectives under a read/write race."""

    NBYTES = 128

    def test_race_passes_atomicity_verifier(self, fast_fs):
        nbytes = self.NBYTES

        def fn(comm):
            is_writer = comm.rank % 2 == 0
            sub = comm.split(color=0 if is_writer else 1)
            f = MPIFile.Open(sub, "race.dat", fast_fs)
            f.Set_atomicity(True)  # locking on this FS: serialises the race
            f.Set_view(0, CHAR, contiguous(nbytes, CHAR))
            if is_writer:
                payload = rank_pattern_bytes(comm.rank, nbytes)
                # Step 1: nonblocking collective with overlapped compute.
                request = f.Iwrite_all(payload)
                comm.clock.advance(0.0005)
                request.Wait()
                # Step 2: the same data through the split-collective form.
                f.Seek(0)
                f.Write_all_begin(payload)
                comm.clock.advance(0.0005)
                f.Write_all_end()
                f.Close()
                return ("write", comm.rank, None)
            buf1, buf2 = bytearray(nbytes), bytearray(nbytes)
            request = f.Iread_all(buf1)
            comm.clock.advance(0.0005)
            request.Wait()
            f.Seek(0)
            f.Read_all_begin(buf2)
            comm.clock.advance(0.0005)
            f.Read_all_end()
            f.Close()
            return ("read", comm.rank, (bytes(buf1), bytes(buf2)))

        result = run_spmd(fn, 6)
        writers = [r for r in result.returns if r[0] == "write"]
        readers = [r for r in result.returns if r[0] == "read"]
        write_regions = [
            FileRegionSet(world_rank, [(0, nbytes)]) for _, world_rank, _ in writers
        ]
        writer_data = [
            rank_pattern_bytes(world_rank, nbytes) for _, world_rank, _ in writers
        ]
        # Every byte of the fully-overlapped region carries one writer's data.
        assert check_mpi_atomicity(fast_fs.lookup("race.dat").store, write_regions).ok
        # No reader observed a torn state, in either API form.
        observations = [
            ReadObservation(world_rank, FileRegionSet(world_rank, [(0, nbytes)]), data)
            for _, world_rank, streams in readers
            for data in streams
        ]
        assert check_read_atomicity(observations, write_regions, writer_data).ok


class TestVerifierInFlightRequests:
    """A request is only readable-after via Wait (verifier extension)."""

    def test_baseline_admissible_only_while_in_flight(self):
        region = FileRegionSet(0, [(0, 8)])
        data = b"W" * 8
        stale = ReadObservation(1, FileRegionSet(1, [(0, 8)]), bytes(8))
        fresh = ReadObservation(1, FileRegionSet(1, [(0, 8)]), data)
        # While the write may still be in flight, the pre-write state is fine.
        assert check_read_atomicity([stale], [region], [data]).ok
        # Once rank 0's request was waited on, its data must be visible.
        report = check_read_atomicity([stale], [region], [data], committed={0})
        assert not report.ok
        assert report.violations[0].kind == "torn-read"
        assert check_read_atomicity([fresh], [region], [data], committed={0}).ok

    def test_waited_request_readable_after_end_to_end(self, fast_fs):
        nbytes = 64

        def fn(comm):
            f = MPIFile.Open(comm, "raw.dat", fast_fs)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(nbytes, CHAR))
            request = f.Iwrite_all(rank_pattern_bytes(comm.rank, nbytes))
            request.Wait()  # commit point: readable-after from here
            f.Sync()
            f.Seek(0)
            buf = bytearray(nbytes)
            f.Read_all(buf)
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 2)
        regions = [FileRegionSet(r, [(0, nbytes)]) for r in range(2)]
        data = [rank_pattern_bytes(r, nbytes) for r in range(2)]
        observations = [
            ReadObservation(rank, regions[rank], stream)
            for rank, stream in enumerate(result.returns)
        ]
        # Both writes were waited on before any read: the baseline is no
        # longer admissible, and the reads must (and do) still verify.
        assert check_read_atomicity(observations, regions, data, committed={0, 1}).ok
