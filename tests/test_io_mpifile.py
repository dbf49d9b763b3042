"""Tests for the MPIFile MPI-IO layer (Figure 4 call sequence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datatypes import CHAR, INT, contiguous, subarray
from repro.fs import ParallelFileSystem
from repro.fs.filesystem import LockProtocol
from repro.io import Info, InvalidHint, MPIFile, MODE_CREATE, MODE_RDONLY, MODE_RDWR, MODE_WRONLY
from repro.mpi import run_spmd
from repro.patterns.partition import column_wise_spec, column_wise_views
from repro.core.regions import build_region_sets
from repro.verify.atomicity import check_coverage, check_mpi_atomicity
from tests.conftest import fast_fs_config


def spmd(fn, nprocs, fs):
    return run_spmd(fn, nprocs)


class TestBasicReadWrite:
    def test_independent_write_read_roundtrip(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "a.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"hello world")
            f.Sync()
            buf = bytearray(11)
            f.Read_at(0, buf)
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 2)
        assert all(r == b"hello world" for r in result.returns)

    def test_write_all_disjoint_offsets(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "b.dat", fast_fs)
            etype = CHAR
            filetype = contiguous(8, CHAR)
            f.Set_view(comm.rank * 8, etype, filetype)
            f.Write_all(bytes([65 + comm.rank]) * 8)
            f.Close()

        run_spmd(fn, 4)
        data = fast_fs.lookup("b.dat").store.read(0, 32)
        assert data == b"A" * 8 + b"B" * 8 + b"C" * 8 + b"D" * 8

    def test_numpy_buffer_roundtrip(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "np.dat", fast_fs)
            f.Set_view(comm.rank * 40, INT, contiguous(10, INT))
            data = np.arange(10, dtype=np.int32) + comm.rank * 100
            f.Write_all(data)
            f.Sync()
            f.Seek(0)  # rewind the individual file pointer before reading back
            out = np.zeros(10, dtype=np.int32)
            f.Read_all(out)
            f.Close()
            return out.tolist()

        result = run_spmd(fn, 3)
        for rank, values in enumerate(result.returns):
            assert values == [rank * 100 + i for i in range(10)]

    def test_individual_file_pointer(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "fp.dat", fast_fs)
            if comm.rank == 0:
                assert f.Tell() == 0
                f.Write(b"abc")
                assert f.Tell() == 3
                f.Write(b"def")
                f.Seek(1)
                buf = bytearray(4)
                f.Read(buf)
                assert bytes(buf) == b"bcde"
                assert f.Tell() == 5
            f.Close()

        run_spmd(fn, 1)

    def test_get_size(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "sz.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"x" * 100)
            f.Sync()
            size = f.Get_size()
            f.Close()
            return size

        result = run_spmd(fn, 2)
        assert all(s == 100 for s in result.returns)

    def test_access_mode_enforcement(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "ro.dat", fast_fs, amode=MODE_RDONLY)
            with pytest.raises(PermissionError):
                f.Write_at(0, b"x")
            f.Close()
            g = MPIFile.Open(comm, "wo.dat", fast_fs, amode=MODE_WRONLY | MODE_CREATE)
            with pytest.raises(PermissionError):
                g.Read_at(0, bytearray(1))
            g.Close()

        run_spmd(fn, 1)

    def test_closed_file_rejected(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "c.dat", fast_fs)
            f.Close()
            with pytest.raises(ValueError):
                f.Write_at(0, b"x")

        run_spmd(fn, 1)

    def test_open_rejects_a_garbage_integer_hint(self, fast_fs):
        """``cb_nodes=four`` fails at ``Open``, naming the key and the value;
        it does not silently mean "every rank aggregates"."""
        from repro.mpi import SPMDExecutionError

        def fn(comm):
            MPIFile.Open(comm, "hint.dat", fast_fs, info=Info({"cb_nodes": "four"}))

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        failures = excinfo.value.failures
        assert sorted(failures) == [0, 1]
        for error in failures.values():
            assert isinstance(error, InvalidHint) and isinstance(error, ValueError)
            assert (error.key, error.value) == ("cb_nodes", "four")
            assert "'cb_nodes'" in str(error) and "'four'" in str(error)

    @pytest.mark.parametrize(
        "key, value",
        [("read_ahead", "maybe"), ("plan_cache", "sometimes"), ("atomicity_strategy", "bogus")],
    )
    def test_open_rejects_a_garbage_boolean_or_strategy_hint(self, fast_fs, key, value):
        """``read_ahead=maybe`` and ``atomicity_strategy=bogus`` fail at
        ``Open``, naming the key and the value — not at the first collective
        (a ``KeyError``) nor as a silent default."""
        from repro.mpi import SPMDExecutionError

        def fn(comm):
            MPIFile.Open(comm, "hint4.dat", fast_fs, info=Info({key: value}))

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        failures = excinfo.value.failures
        assert sorted(failures) == [0, 1]
        for error in failures.values():
            assert isinstance(error, InvalidHint)
            assert (error.key, error.value) == (key, value)
            assert f"'{key}'" in str(error) and f"'{value}'" in str(error)

    def test_set_view_rejects_a_bad_strategy_name(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "hint5.dat", fast_fs)
            with pytest.raises(InvalidHint, match="two-phase"):  # lists the known names
                f.Set_view(0, CHAR, CHAR, info=Info({"atomicity_strategy": "bogus"}))
            assert f.info.get("atomicity_strategy") is None
            f.Close()

        run_spmd(fn, 1)

    def test_set_view_rejects_a_garbage_integer_hint(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "hint2.dat", fast_fs)
            with pytest.raises(InvalidHint, match="cb_buffer_size"):
                f.Set_view(0, CHAR, CHAR, info=Info({"cb_buffer_size": "4k"}))
            assert f.info.get("cb_buffer_size") is None
            f.Close()

        run_spmd(fn, 1)

    def test_open_ignores_unknown_hints(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "hint3.dat", fast_fs, info=Info({"no_such_hint": "four"}))
            f.Write_at(0, b"ok")
            f.Close()

        run_spmd(fn, 1)
        assert fast_fs.lookup("hint3.dat").store.read(0, 2) == b"ok"

    def test_non_native_datarep_rejected(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "d.dat", fast_fs)
            with pytest.raises(NotImplementedError):
                f.Set_view(0, CHAR, contiguous(1, CHAR), datarep="external32")
            f.Close()

        run_spmd(fn, 1)


class TestFigure4CallSequence:
    """The paper's Figure 4 code, transliterated to this library."""

    M, N, P, R = 16, 64, 4, 4

    def _run(self, fs, atomic=True, info=None):
        M, N, P, R = self.M, self.N, self.P, self.R

        def fn(comm):
            rank = comm.rank
            spec = column_wise_spec(M, N, P, rank, R)
            filetype = subarray(list(spec.sizes), list(spec.subsizes),
                                list(spec.starts), CHAR).commit()
            f = MPIFile.Open(comm, "fig4.dat", fs, amode=MODE_RDWR | MODE_CREATE, info=info)
            f.Set_atomicity(atomic)
            f.Set_view(0, CHAR, filetype)
            buf = bytes([ord("A") + rank]) * spec.total_bytes
            outcome = f.Write_all(buf)
            f.Close()
            return outcome

        return run_spmd(fn, P)

    def _verify(self, fs):
        regions = build_region_sets(column_wise_views(self.M, self.N, self.P, self.R))
        store = fs.lookup("fig4.dat").store
        return check_mpi_atomicity(store, regions), check_coverage(store, regions)

    def test_atomic_default_strategy(self):
        fs = ParallelFileSystem(fast_fs_config())
        result = self._run(fs, atomic=True)
        atomic, coverage = self._verify(fs)
        assert atomic.ok and coverage.ok
        # Default on a locking-capable FS is the ROMIO approach.
        assert all(o.strategy == "locking" for o in result.returns)

    def test_atomic_default_on_lockless_fs(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        result = self._run(fs, atomic=True)
        atomic, coverage = self._verify(fs)
        assert atomic.ok and coverage.ok
        assert all(o.strategy == "rank-ordering" for o in result.returns)

    @pytest.mark.parametrize("strategy", ["graph-coloring", "rank-ordering"])
    def test_strategy_hint_via_info(self, strategy):
        fs = ParallelFileSystem(fast_fs_config())
        info = Info({"atomicity_strategy": strategy})
        result = self._run(fs, atomic=True, info=info)
        atomic, coverage = self._verify(fs)
        assert atomic.ok and coverage.ok
        assert all(o.strategy == strategy for o in result.returns)

    def test_non_atomic_mode_writes_everything(self):
        fs = ParallelFileSystem(fast_fs_config())
        result = self._run(fs, atomic=False)
        _, coverage = self._verify(fs)
        assert coverage.ok
        assert all(o.strategy == "none" for o in result.returns)

    def test_get_atomicity_reflects_setting(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "at.dat", fast_fs)
            before = f.Get_atomicity()
            f.Set_atomicity(True)
            after = f.Get_atomicity()
            f.Close()
            return (before, after)

        result = run_spmd(fn, 2)
        assert all(r == (False, True) for r in result.returns)


class TestReadAllPipeline:
    """Collective reads run through the staged read pipeline."""

    def test_non_atomic_read_all_observes_peer_flushes(self, fast_fs):
        """Regression: a collective read must invalidate cached pages, or a
        rank keeps serving a page it cached before peers flushed overlapping
        writes (sync-then-invalidate, the `fs.cache` coherence contract)."""

        def fn(comm):
            f = MPIFile.Open(comm, "coh.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"1" * 64)
            f.Sync()
            buf = bytearray(64)
            f.Read_all(buf)  # every rank now holds the page in cache
            first = bytes(buf)
            if comm.rank == 0:
                f.Write_at(0, b"2" * 64)
            f.Sync()
            f.Seek(0)
            buf2 = bytearray(64)
            f.Read_all(buf2)  # must observe rank 0's second, flushed write
            f.Close()
            return first, bytes(buf2)

        result = run_spmd(fn, 2)
        for first, second in result.returns:
            assert first == b"1" * 64
            assert second == b"2" * 64

    def test_read_all_returns_read_outcome(self, fast_fs):
        from repro.core.strategies import IOOutcome

        def fn(comm):
            f = MPIFile.Open(comm, "ro_out.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"x" * 32)
            f.Sync()
            f.Set_view(0, CHAR, contiguous(16, CHAR))
            buf = bytearray(16)
            outcome = f.Read_all(buf)
            f.Close()
            return outcome

        result = run_spmd(fn, 2)
        for outcome in result.returns:
            assert isinstance(outcome, IOOutcome)
            assert outcome.strategy == "none"  # non-atomic baseline
            assert outcome.bytes_requested == 16
            assert outcome.bytes_returned == 16
            assert outcome.invalidations == 1  # the coherence invalidate

    def test_atomic_read_all_uses_shared_locks(self, fast_fs):
        """Atomic collective reads on a locking FS take shared-mode extent
        locks: concurrent readers coexist (no lock waits)."""

        def fn(comm):
            f = MPIFile.Open(comm, "shr.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"y" * 64)
            f.Sync()
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(64, CHAR))  # all ranks: same range
            buf = bytearray(64)
            outcome = f.Read_all(buf)
            f.Close()
            return outcome, bytes(buf)

        result = run_spmd(fn, 3)
        lm = fast_fs.lookup("shr.dat").lock_manager
        assert lm.shared_grant_count == 3
        assert lm.wait_count == 0
        for outcome, data in result.returns:
            assert outcome.strategy == "locking"
            assert outcome.locks_acquired == 1
            assert data == b"y" * 64

    def test_atomic_read_all_two_phase_hint(self, fast_fs):
        info = Info({"atomicity_strategy": "two-phase"})

        def fn(comm):
            f = MPIFile.Open(comm, "tp.dat", fast_fs, info=info)
            if comm.rank == 0:
                f.Write_at(0, bytes(range(64)))
            f.Sync()
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(64, CHAR))
            buf = bytearray(64)
            outcome = f.Read_all(buf)
            f.Close()
            return outcome, bytes(buf)

        result = run_spmd(fn, 4)
        total_read = sum(o.bytes_moved for o, _ in result.returns)
        assert total_read == 64  # each overlapped byte fetched exactly once
        for outcome, data in result.returns:
            assert outcome.strategy == "two-phase"
            assert outcome.phases == 2
            assert data == bytes(range(64))

    @pytest.mark.parametrize("strategy", ["locking", "two-phase"])
    def test_atomic_read_all_sees_own_unsynced_writes(self, fast_fs, strategy):
        """Regression: direct-read schedules (shared-lock, two-phase) must
        flush the reader's own write-behind pages first, or the rank reads
        the servers' stale bytes for data it itself just wrote."""

        info = Info({"atomicity_strategy": strategy})

        def fn(comm):
            f = MPIFile.Open(comm, f"ryow_{strategy}.dat", fast_fs, info=info)
            f.Write_at(0, b"A" * 32)
            f.Sync()
            if comm.rank == 0:
                # Write-behind, intentionally NOT synced before the read.
                f.Write_at(0, b"B" * 32)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(32, CHAR))
            buf = bytearray(32)
            f.Read_all(buf)
            f.Close()
            return bytes(buf)

        result = run_spmd(fn, 2)
        assert result.returns[0] == b"B" * 32, "rank 0 must read its own write"

    def test_atomic_read_at_sees_own_unsynced_writes(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "ryow_at.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"A" * 32)
            f.Sync()
            if comm.rank == 0:
                f.Write_at(0, b"B" * 32)  # write-behind, not synced
            f.Set_atomicity(True)  # collective
            out = None
            if comm.rank == 0:
                buf = bytearray(32)
                f.Read_at(0, buf)
                out = bytes(buf)
            f.Close()
            return out

        result = run_spmd(fn, 2)
        assert result.returns[0] == b"B" * 32

    def test_atomic_read_at_takes_shared_lock(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "rat.dat", fast_fs)
            if comm.rank == 0:
                f.Write_at(0, b"z" * 16)
            f.Sync()
            f.Set_atomicity(True)
            buf = bytearray(16)
            outcome = f.Read_at(0, buf)
            f.Close()
            return outcome, bytes(buf)

        result = run_spmd(fn, 2)
        lm = fast_fs.lookup("rat.dat").lock_manager
        assert lm.shared_grant_count == 2
        for outcome, data in result.returns:
            assert outcome.strategy == "independent"
            assert outcome.locks_acquired == 1
            assert data == b"z" * 16


class TestAtomicIndependentWrites:
    def test_independent_atomic_write_uses_lock(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "ind.dat", fast_fs)
            f.Set_atomicity(True)
            f.Set_view(0, CHAR, contiguous(64, CHAR))
            # All ranks write the same overlapping range independently.
            f.Write_at(0, bytes([65 + comm.rank]) * 64)
            f.Close()

        run_spmd(fn, 3)
        store = fast_fs.lookup("ind.dat").store
        # The whole range must come from a single writer (no interleaving).
        assert len(store.distinct_writers(0, 64)) == 1

    def test_independent_atomic_write_without_locks_raises(self, lockless_fs):
        from repro.fs.errors import LockingUnsupported
        from repro.mpi import SPMDExecutionError

        def fn(comm):
            f = MPIFile.Open(comm, "ind2.dat", lockless_fs)
            f.Set_atomicity(True)
            f.Write_at(0, b"x" * 8)
            f.Close()

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        assert any(isinstance(e, LockingUnsupported) for e in excinfo.value.failures.values())

    def test_locked_write_flushes_own_dirty_page_first(self, fast_fs):
        """Regression: a locked write goes straight to the servers, so a dirty
        page this rank cached before it must be flushed first — or it lands
        on top of the locked write when the file is closed."""

        def fn(comm):
            f = MPIFile.Open(comm, "dirty.dat", fast_fs)
            f.Write_at(0, b"A" * 64)  # write-behind: a dirty page
            f.Set_atomicity(True)
            outcome = f.Write_at(0, b"B" * 64)
            f.Close()
            return outcome

        outcome = run_spmd(fn, 1).returns[0]
        assert fast_fs.lookup("dirty.dat").store.read(0, 64) == b"B" * 64
        assert outcome.invalidations == 1

    def test_locked_write_drops_own_clean_page(self, fast_fs):
        """Regression: a clean page cached before a locked write must not
        serve the rank's next cached (non-atomic) read."""

        def fn(comm):
            f = MPIFile.Open(comm, "clean.dat", fast_fs)
            f.Write_at(0, b"A" * 64)
            f.Sync()  # the page is clean now, and stays cached
            f.Set_atomicity(True)
            f.Write_at(0, b"B" * 64)
            f.Set_atomicity(False)
            buf = bytearray(64)
            f.Read_at(0, buf)  # non-atomic: served from the cache
            f.Close()
            return bytes(buf)

        assert run_spmd(fn, 1).returns == [b"B" * 64]
        assert fast_fs.lookup("clean.dat").store.read(0, 64) == b"B" * 64

    def test_contending_locked_writes_report_the_wait(self, fast_fs):
        def fn(comm):
            f = MPIFile.Open(comm, "wait.dat", fast_fs)
            f.Set_atomicity(True)
            outcome = f.Write_at(0, bytes([65 + comm.rank]) * 4096)
            f.Close()
            return outcome

        first, later = sorted(run_spmd(fn, 2).returns, key=lambda o: o.end_time)
        assert first.locks_acquired == later.locks_acquired == 1
        assert later.lock_wait_seconds > first.lock_wait_seconds > 0
        # The later rank is granted no earlier than the first one released.
        assert later.start_time + later.lock_wait_seconds >= first.end_time
