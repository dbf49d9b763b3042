"""Tests for the SPMD runtime, point-to-point messaging and virtual clocks."""

from __future__ import annotations

import pytest

from repro.core.engine import current_task, sequence_point
from repro.datatypes import CHAR, contiguous
from repro.io import MPIFile
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    CommCostModel,
    SPMDExecutionError,
    VirtualClock,
    Waitany,
    run_spmd,
    synchronize_clocks,
)
from repro.mpi.errors import (
    CollectiveAbortedError,
    DeadlockError,
    RankError,
    TagError,
)


class TestRunSPMD:
    def test_returns_per_rank_values(self):
        result = run_spmd(lambda comm: comm.rank * 10, 4)
        assert result.returns == [0, 10, 20, 30]
        assert result.nprocs == 4

    def test_size_and_rank_visible(self):
        result = run_spmd(lambda comm: (comm.rank, comm.size), 3)
        assert result.returns == [(0, 3), (1, 3), (2, 3)]

    def test_extra_args_passed(self):
        result = run_spmd(lambda comm, a, b=0: a + b + comm.rank, 2, 5, b=7)
        assert result.returns == [12, 13]

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(lambda comm: None, 0)

    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return comm.rank

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 3)
        assert 1 in excinfo.value.failures
        assert "boom" in str(excinfo.value)

    def test_failure_does_not_deadlock_collectives(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("dead")
            comm.barrier()  # would hang forever without barrier abort

        with pytest.raises(SPMDExecutionError):
            run_spmd(fn, 3, timeout=10)

    def test_mpi_style_getters(self):
        result = run_spmd(lambda comm: (comm.Get_rank(), comm.Get_size()), 2)
        assert result.returns == [(0, 2), (1, 2)]

    def test_timeout_reports_unfinished_ranks_by_number(self):
        import time

        def fn(comm):
            if comm.rank in (1, 2):
                time.sleep(8.0)
            return comm.rank

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 3, timeout=0.2)
        failures = excinfo.value.failures
        # Every unfinished rank is reported by number; no generic -1 entry.
        assert set(failures) == {1, 2}
        assert all(isinstance(e, TimeoutError) for e in failures.values())
        assert "rank 1" in str(failures[1])

    def test_timeout_not_swallowed_by_grace_period(self):
        """A rank that exceeds the deadline but finishes during the grace
        join must still be reported: the timeout is a hard budget."""
        import time

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.5)  # beyond the 0.1s deadline, well within grace
            return comm.rank

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2, timeout=0.1)
        failures = excinfo.value.failures
        assert set(failures) == {1}
        assert isinstance(failures[1], TimeoutError)

    def test_timeout_releases_ranks_stuck_in_collective(self):
        import time

        def fn(comm):
            if comm.rank == 0:
                time.sleep(8.0)
            comm.barrier()  # ranks 1..2 block here waiting for rank 0
            return comm.rank

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 3, timeout=0.2)
        failures = excinfo.value.failures
        # All three ranks missed the deadline (rank 0 in sleep, ranks 1-2
        # blocked in the barrier) and every one is reported as a timeout —
        # the BrokenBarrierError provoked by the abort must not mask the
        # root cause.
        assert set(failures) == {0, 1, 2}
        assert all(isinstance(e, TimeoutError) for e in failures.values())


class TestFailureReporting:
    """SPMDExecutionError carries rank numbers and rank-local tracebacks."""

    @staticmethod
    def _failing_program(comm):
        def deep_helper():
            raise KeyError("lost-key")

        if comm.rank == 2:
            deep_helper()
        return comm.rank

    def test_rank_local_traceback_attached(self):
        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(self._failing_program, 4)
        err = excinfo.value
        assert set(err.failures) == {2}
        tb = err.traceback_of(2)
        assert tb is not None
        # The traceback is the rank's own call stack, not the scheduler's.
        assert "deep_helper" in tb
        assert "_failing_program" in tb
        assert "KeyError" in tb

    def test_message_names_rank_and_includes_traceback(self):
        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(self._failing_program, 4)
        message = str(excinfo.value)
        assert "rank 2" in message
        assert "rank 2 traceback" in message
        assert "deep_helper" in message

    def test_traceback_of_unknown_rank_is_none(self):
        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(self._failing_program, 4)
        assert excinfo.value.traceback_of(0) is None

    def test_peers_blocked_in_collective_reported_separately(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("dead")
            comm.barrier()

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 3)
        err = excinfo.value
        assert isinstance(err.failures[0], RuntimeError)
        # Rank 0's traceback is present; peers aborted out of the collective
        # carry their own (different) failure entries, not rank 0's.
        assert "dead" in err.traceback_of(0)

    def test_rank_failing_mid_chain_aborts_before_any_peer_runs_on(self):
        """Ranks hand control to each other directly; a failure must still
        reach the abort hook before any peer executes another statement."""
        log = []

        def fn(comm):
            if comm.rank == 2:
                comm.clock.advance(1.0)
                sequence_point()  # yields to rank 3, resumed by it later
                raise ValueError("boom")
            if comm.rank == 3:
                comm.clock.advance(5.0)
                sequence_point()  # ready, not in the rendezvous, at the failure
                log.append("rank 3 resumed")
            comm.barrier()
            log.append(f"rank {comm.rank} passed the barrier")

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 4)
        err = excinfo.value
        assert isinstance(err.failures[2], ValueError)
        for peer in (0, 1, 3):
            assert isinstance(err.failures[peer], CollectiveAbortedError)
            assert "raise ValueError" not in err.traceback_of(peer)
        assert "raise ValueError" in err.traceback_of(2)
        # Rank 3 found the group already aborted at its very next statement.
        assert log == ["rank 3 resumed"]

    def test_long_rank_lists_truncated_in_message(self):
        def fn(comm):
            raise ValueError(f"r{comm.rank}")

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 40)
        message = str(excinfo.value)
        assert "more)" in message
        assert len(excinfo.value.failures) == 40


class TestProgressTasks:
    def test_nonblocking_collective_never_returns_to_the_scheduler(self, fast_fs):
        """The detached progress tasks ``Iwrite_all`` spawns mid-run are
        started by whichever rank yields next, not by the thread in ``run``."""

        def fn(comm):
            f = MPIFile.Open(comm, "progress.dat", fast_fs)
            f.Set_view(comm.rank * 8, CHAR, contiguous(8, CHAR))
            f.Iwrite_all(bytes([65 + comm.rank]) * 8).Wait()
            f.Close()
            engine = current_task().engine
            assert sum(task.detached for task in engine.tasks) == comm.size
            return engine.scheduler_returns

        assert run_spmd(fn, 4).returns == [0, 0, 0, 0]


class TestDeadlockDetection:
    def test_recv_without_sender_reported_as_deadlock(self):
        def fn(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=5)  # never sent
            return comm.rank

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        failures = excinfo.value.failures
        assert set(failures) == {0}
        assert isinstance(failures[0], DeadlockError)
        assert "recv(source=1, tag=5)" in str(failures[0])

    def test_deadlocked_rank_releases_its_locks_during_unwind(self):
        """A deadlock-cancelled rank must unwind through its finally blocks
        (so e.g. held file locks are returned) before the run is reported."""
        released = []

        def fn(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1)  # never sent
                finally:
                    released.append(comm.rank)
            return comm.rank

        with pytest.raises(SPMDExecutionError):
            run_spmd(fn, 2)
        assert released == [0]


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        result = run_spmd(fn, 2)
        assert result.returns[1] == {"x": 42}

    def test_any_source_any_tag(self):
        def fn(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank)
                return None
            got = sorted(comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(comm.size - 1))
            return got

        result = run_spmd(fn, 4)
        assert result.returns[0] == [1, 2, 3]

    def test_tag_matching_out_of_order(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        result = run_spmd(fn, 2)
        assert result.returns[1] == ("first", "second")

    def test_isend_irecv(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1)
                req.wait()
                return None
            req = comm.irecv(source=0)
            return req.wait()

        result = run_spmd(fn, 2)
        assert result.returns[1] == [1, 2, 3]

    def test_sendrecv_exchange(self):
        def fn(comm):
            peer = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=peer, source=src)

        result = run_spmd(fn, 4)
        assert result.returns == [3, 0, 1, 2]

    def test_status_filled(self):
        from repro.mpi import Status

        def fn(comm):
            if comm.rank == 0:
                comm.send("hi", dest=1, tag=9)
                return None
            status = Status()
            comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            return (status.source, status.tag)

        result = run_spmd(fn, 2)
        assert result.returns[1] == (0, 9)

    def test_p2p_is_causal_in_virtual_time(self):
        # A receive never completes before its send (Lamport's rule), even if
        # the receiver did no other work; a receiver already later keeps its
        # time and waits for nothing.
        def fn(comm):
            if comm.rank == 0:
                comm.clock.advance(5.0)  # sender runs far ahead
                comm.send("late", dest=1, tag=9)
                comm.send("early", dest=2, tag=9)
                return None
            if comm.rank == 2:
                comm.clock.advance(10.0)
            comm.recv(source=0, tag=9)
            return comm.clock.now, comm.clock.waited

        result = run_spmd(fn, 3, comm_cost=CommCostModel(latency=0.5))
        assert result.returns[1] == (5.5, 5.5)  # the send's post-charge time
        assert result.returns[2] == (10.0, 0.0)

    def test_irecv_wait_is_causal_in_virtual_time(self):
        def fn(comm):
            if comm.rank == 0:
                comm.clock.advance(5.0)
                comm.send("late", dest=1, tag=9)
                return None
            request = comm.irecv(source=0, tag=9)
            request.test()  # completes here if the message is already in
            assert request.wait() == "late"
            return comm.clock.now, comm.clock.waited

        result = run_spmd(fn, 2)
        assert result.returns[1] == (5.0, 5.0)

    def test_waitany_returns_the_receive_sent_first_in_virtual_time(self):
        # Rank 0's message is sent at t = 10, rank 2's at t = 1: Waitany over
        # both receives retires rank 2's and joins the receiver at t = 1.
        def fn(comm):
            if comm.rank == 1:
                requests = [comm.irecv(source=0, tag=3), comm.irecv(source=2, tag=3)]
                index = Waitany(requests)
                return index, requests[index].wait(), comm.clock.now
            comm.clock.advance(10.0 if comm.rank == 0 else 1.0)
            comm.send("late" if comm.rank == 0 else "early", dest=1, tag=3)
            return None

        assert run_spmd(fn, 3).returns[1] == (1, "early", 1.0)

    @pytest.mark.parametrize("source", [0, ANY_SOURCE])
    def test_irecv_posted_before_recv_gets_the_first_message(self, source):
        # Non-overtaking: of two receives matching the same messages, the one
        # posted first gets the message sent first.  With ANY_SOURCE the
        # second message comes from another rank, sent later in virtual time.
        second_sender = 0 if source == 0 else 2

        def fn(comm):
            if comm.rank == 1:
                request = comm.irecv(source=source, tag=0)
                second = comm.recv(source=source, tag=0)
                return request.wait(), second
            if comm.rank == 0:
                comm.send("first", dest=1, tag=0)
            if comm.rank == second_sender:
                comm.clock.advance(1.0)
                comm.send("second", dest=1, tag=0)
            return None

        assert run_spmd(fn, 3).returns[1] == ("first", "second")

    def test_isend_checks_its_arguments_at_the_call(self):
        def fn(comm):
            with pytest.raises(RankError):
                comm.isend(1, dest=10)
            with pytest.raises(TagError):
                comm.isend(1, dest=0, tag=-2)
            return True

        assert run_spmd(fn, 2).returns == [True, True]

    def test_bad_destination_rank(self):
        def fn(comm):
            comm.send(1, dest=10)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        assert any(isinstance(e, RankError) for e in excinfo.value.failures.values())

    def test_bad_tag(self):
        def fn(comm):
            comm.send(1, dest=0, tag=-5)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 1)
        assert any(isinstance(e, TagError) for e in excinfo.value.failures.values())


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_advance_to_only_forward(self):
        clock = VirtualClock(now=5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0
        clock.advance_to(8.0, waiting=True)
        assert clock.now == 8.0
        assert clock.waited == pytest.approx(3.0)

    def test_reset(self):
        clock = VirtualClock(now=5.0, waited=1.0)
        clock.reset()
        assert clock.now == 0.0 and clock.waited == 0.0

    def test_synchronize_clocks(self):
        """Sync to the latest arrival, the gap counted as wait, then charge
        each clock its own cost."""
        clocks = [VirtualClock(now=t) for t in (1.0, 5.0, 3.0)]
        latest = synchronize_clocks(clocks, [0.5, 0.0, 0.25])
        assert latest == 5.0
        assert [c.now for c in clocks] == [5.5, 5.0, 5.25]
        assert [c.waited for c in clocks] == [4.0, 0.0, 2.0]

    def test_comm_cost_charged(self):
        cost = CommCostModel(latency=0.01, byte_cost=0.0)

        def fn(comm):
            comm.barrier()
            return comm.clock.now

        result = run_spmd(fn, 2, comm_cost=cost)
        assert all(t >= 0.01 for t in result.returns)

    def test_makespan(self):
        def fn(comm):
            comm.clock.advance(0.1 * (comm.rank + 1))
            return None

        result = run_spmd(fn, 3)
        assert result.makespan == pytest.approx(0.3)
