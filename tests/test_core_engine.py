"""Tests for the deterministic cooperative discrete-event scheduler."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro.core.engine import (
    Engine,
    EngineError,
    Task,
    TaskCancelled,
    _carrier_pool,
    current_task,
    sequence_point,
)
from repro.mpi import run_spmd
from repro.mpi.clock import VirtualClock
from repro.mpi.comm import _CommGroup
from repro.mpi.runtime import spawn_world


class TestBasicExecution:
    def test_results_collected(self):
        engine = Engine()
        tasks = [engine.spawn(lambda i=i: i * 10) for i in range(4)]
        engine.run()
        assert [t.result for t in tasks] == [0, 10, 20, 30]
        assert all(t.state == Task.DONE for t in tasks)

    def test_tasks_run_in_spawn_order_at_equal_time(self):
        engine = Engine()
        order = []
        for i in range(5):
            engine.spawn(lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_current_task_visible_inside_and_absent_outside(self):
        engine = Engine()
        seen = []
        engine.spawn(lambda: seen.append(current_task().tid))
        engine.run()
        assert seen == [0]
        assert current_task() is None

    def test_failure_recorded_with_traceback(self):
        engine = Engine()

        def boom():
            raise ValueError("broken")

        task = engine.spawn(boom)
        engine.run()
        assert task.state == Task.FAILED
        assert isinstance(task.error, ValueError)
        assert "ValueError: broken" in task.traceback_text
        assert "in boom" in task.traceback_text

    def test_failure_hook_called_in_scheduler_context(self):
        engine = Engine()
        failed = []
        engine.on_task_failed = lambda task: failed.append(task.tid)
        engine.spawn(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        engine.spawn(lambda: None)
        engine.run()
        assert failed == [0]

    def test_engine_is_single_shot(self):
        engine = Engine()
        engine.spawn(lambda: None)
        engine.run()
        with pytest.raises(EngineError):
            engine.run()


class TestWaitWake:
    def test_wake_delivers_value(self):
        engine = Engine()
        got = []

        def waiter():
            got.append(engine.wait("for-value"))

        w = engine.spawn(waiter)

        def waker():
            engine.wake(w, value=42)

        engine.spawn(waker)
        engine.run()
        assert got == [42]

    def test_throw_raises_in_waiter(self):
        engine = Engine()
        caught = []

        def waiter():
            try:
                engine.wait("doomed")
            except RuntimeError as exc:
                caught.append(str(exc))

        w = engine.spawn(waiter)
        engine.spawn(lambda: engine.throw(w, RuntimeError("delivered")))
        engine.run()
        assert caught == ["delivered"]

    def test_wake_orders_by_virtual_time_then_id(self):
        engine = Engine()
        resumed = []
        waiters = []

        def make(i, t):
            clock = VirtualClock(now=t)

            def fn():
                engine.wait("parked")
                resumed.append(i)

            waiters.append(engine.spawn(fn, clock=clock))

        # Spawn in an order that differs from the virtual-time order.
        make(0, 5.0)
        make(1, 1.0)
        make(2, 5.0)

        def waker():
            for w in waiters:
                engine.wake(w)

        engine.spawn(waker, clock=VirtualClock(now=10.0))
        engine.run()
        # Time 1.0 first, then the two at 5.0 in task-id order.
        assert resumed == [1, 0, 2]

    def test_waking_a_ready_task_is_an_error(self):
        engine = Engine()

        def fn():
            with pytest.raises(EngineError):
                engine.wake(other)

        other = engine.spawn(lambda: None)
        engine.spawn(fn)
        engine.run()


class TestSequencePoints:
    def test_sequence_yields_to_earlier_task(self):
        engine = Engine()
        log = []

        def slow():
            # Starts first but immediately advances its clock far ahead;
            # the sequence point must let the earlier task run first.
            current_task().clock.advance(10.0)
            sequence_point()
            log.append("slow")

        def fast():
            log.append("fast")

        engine.spawn(slow)
        engine.spawn(fast)
        engine.run()
        assert log == ["fast", "slow"]

    def test_sequence_noop_when_already_earliest(self):
        engine = Engine()
        log = []

        def first():
            sequence_point()
            log.append("first")

        def second():
            current_task().clock.advance(1.0)
            log.append("second")

        engine.spawn(first)
        engine.spawn(second)
        engine.run()
        assert log == ["first", "second"]

    def test_sequence_point_outside_engine_is_noop(self):
        sequence_point()  # must not raise


class TestDeadlockAndTimeout:
    def test_blocked_tasks_cancelled_on_deadlock(self):
        engine = Engine()

        def stuck():
            engine.wait("never-woken")

        task = engine.spawn(stuck)
        engine.run()
        assert task.state == Task.CANCELLED
        assert task.deadlocked
        assert isinstance(task.error, TaskCancelled)
        assert "never-woken" in str(task.error)

    def test_deadlock_unwind_runs_finally_blocks(self):
        engine = Engine()
        cleaned = []

        def stuck():
            try:
                engine.wait("never")
            finally:
                cleaned.append(True)

        engine.spawn(stuck)
        engine.run()
        assert cleaned == [True]

    def test_timeout_snapshots_unfinished(self):
        engine = Engine()
        engine.spawn(lambda: None)
        engine.spawn(lambda: time.sleep(5.0))
        engine.spawn(lambda: None)  # never gets to run
        engine.run(timeout=0.1, grace=0.05)
        assert engine.timed_out
        assert sorted(t.tid for t in engine.unfinished) == [1, 2]

    def test_no_timeout_when_tasks_finish(self):
        engine = Engine()
        engine.spawn(lambda: None)
        engine.run(timeout=30.0)
        assert not engine.timed_out
        assert engine.unfinished == []

    def test_run_inside_task_rejected(self):
        engine = Engine()
        caught = []

        def nested():
            try:
                engine.run()
            except EngineError:
                caught.append(True)

        engine.spawn(nested)
        engine.run()
        assert caught == [True]


class TestDeterminism:
    def test_identical_schedules_across_runs(self):
        def run_once():
            engine = Engine()
            log = []

            def worker(i):
                clock = current_task().clock
                clock.advance(0.1 * ((i * 7) % 5))
                sequence_point()
                log.append((i, round(clock.now, 6)))

            for i in range(20):
                engine.spawn(lambda i=i: worker(i))
            engine.run()
            return log

        assert run_once() == run_once()


class TestDirectDispatch:
    """The stopping task hands control to the next one itself; the thread in
    ``run`` is only a watchdog.  Asserted on the engine's two deterministic
    counters, never on a clock."""

    P, ROUNDS = 32, 10

    def _yields_and_barriers(self):
        engine = Engine()
        group = _CommGroup(self.P, engine=engine)

        def fn(comm):
            for _ in range(self.ROUNDS):
                comm.clock.advance(1.0)
                sequence_point()  # forced: every peer is still a second behind
            for _ in range(self.ROUNDS):
                comm.barrier()

        spawn_world(engine, group, fn)
        engine.run()
        assert all(t.state == Task.DONE for t in engine.tasks)
        return engine.switches, engine.scheduler_returns

    def test_switch_counts_are_analytic_and_repeat(self):
        switches, returns = self._yields_and_barriers()
        # One switch per forced yield, one per non-last barrier arrival, one
        # per task exit but the last — which is the only return to run().
        P, R = self.P, self.ROUNDS
        assert switches == R * P + R * (P - 1) + (P - 1)
        assert returns <= 2
        assert self._yields_and_barriers() == (switches, returns)

    def test_failure_hook_runs_before_any_peer_resumes(self):
        engine = Engine()
        log = []
        engine.on_task_failed = lambda task: log.append(("hook", task.tid))

        def culprit():
            current_task().clock.advance(1.0)
            sequence_point()  # resumed later, mid-chain, by a peer
            raise RuntimeError("mid-chain")

        def peer():
            current_task().clock.advance(2.0)
            sequence_point()
            log.append(("peer", current_task().tid))

        engine.spawn(culprit)
        engine.spawn(peer)
        engine.spawn(peer)
        engine.run()
        assert log == [("hook", 0), ("peer", 1), ("peer", 2)]
        assert engine.scheduler_returns == 2  # the failure, then completion

    def test_timeout_interrupts_a_chain_that_never_returns(self):
        engine = Engine()

        def spin():
            clock = current_task().clock
            while True:
                clock.advance(1.0)
                sequence_point()

        tasks = [engine.spawn(spin) for _ in range(4)]
        engine.run(timeout=0.2, grace=0.05)
        assert engine.timed_out
        assert sorted(t.tid for t in engine.unfinished) == [0, 1, 2, 3]
        # Whoever ran at the deadline dies at its next primitive — the only
        # return to run(); the others stay parked and are never resumed.
        deadline = time.monotonic() + 5.0
        while engine.scheduler_returns == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine.scheduler_returns == 1
        states = sorted(t.state for t in tasks)
        assert states == [Task.CANCELLED] + [Task.READY] * 3
        (victim,) = [t for t in tasks if t.state == Task.CANCELLED]
        assert isinstance(victim.error, TaskCancelled)

    def test_deadlock_victims_cancelled_in_time_then_id_order(self):
        engine = Engine()
        unwound = []

        def stuck(now):
            def fn():
                try:
                    engine.wait("never")
                finally:
                    unwound.append(current_task().tid)

            return engine.spawn(fn, clock=VirtualClock(now=now))

        tasks = [stuck(5.0), stuck(1.0), stuck(5.0), stuck(0.5)]
        engine.run()
        assert unwound == [3, 1, 0, 2]
        assert all(t.state == Task.CANCELLED and t.deadlocked for t in tasks)

    def test_task_spawned_mid_run_is_started_by_the_yielding_task(self):
        engine = Engine()
        seen = []

        def parent():
            me = current_task()

            def progress():
                seen.append((engine.switches, engine.scheduler_returns,
                             threading.current_thread() is not me._thread))
                engine.wake(me, "done")

            engine.spawn(progress, detached=True)
            return engine.wait("progress")

        task = engine.spawn(parent)
        engine.run()
        assert task.result == "done"
        # parent -> progress and progress -> parent are switches; the
        # scheduler is not involved until the very end.
        assert seen == [(1, 0, True)]
        assert (engine.switches, engine.scheduler_returns) == (2, 1)

    def test_sequence_past_stale_entries_resumes_itself_without_parking(self):
        engine = Engine()

        def fn():
            me = current_task()
            me.clock.advance(1.0)
            ghost = engine.spawn(lambda: None)  # ready at t=0: earlier than me
            ghost.state = Task.CANCELLED  # ... and cancelled before it ran
            sequence_point()
            return engine.switches, engine.scheduler_returns

        task = engine.spawn(fn)
        engine.run()
        assert task.state == Task.DONE
        assert task.result == (0, 0)
        assert engine.scheduler_returns == 1


class TestCarrierRetention:
    def test_finished_run_is_collectable_while_carriers_stay_parked(self):
        engines = []

        def fn(comm):
            engines.append(weakref.ref(current_task().engine))
            comm.barrier()
            return bytearray(1 << 16)

        result = run_spmd(fn, 8)
        del result
        gc.collect()
        assert len(engines) == 8 and all(ref() is None for ref in engines)
        parked = [carrier.thread for carrier in _carrier_pool._idle]
        assert len(parked) >= 8 and all(t.is_alive() for t in parked)
