"""Tests for the deterministic cooperative discrete-event scheduler."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given

from generators import engine_programs
from repro.core.engine import (
    Engine,
    EngineError,
    Task,
    TaskCancelled,
    _carrier_pool,
    current_task,
    drive,
    sequence_point,
)
from repro.core.executor import AtomicWriteExecutor
from repro.core.registry import default_registry
from repro.fs.costmodel import CostModel, Resource
from repro.fs.filesystem import ParallelFileSystem
from repro.fs.lockmanager import CentralLockManager
from repro.mpi import run_spmd
from repro.mpi.clock import VirtualClock
from repro.patterns.partition import views_for_pattern
from tests.conftest import fast_fs_config


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
        def fn(comm):
            for _ in range(self.ROUNDS):
                comm.clock.advance(1.0)
                sequence_point()  # forced: every peer is still a second behind
            for _ in range(self.ROUNDS):
                comm.barrier()

        result = run_spmd(fn, self.P, timeout=None)
        return result.switches, result.scheduler_returns

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


def ticks(count, log=None):
    """``count`` events of one virtual second each, in step form."""
    task = current_task()
    for index in range(count):
        yield
        if log is not None:
            log.append((task.tid, task.clock.now, index))
        task.clock.advance(1.0)
    return count


class TestDrive:
    """``drive(steps)``: the loop ``sequence_point(); event()`` with the
    sequence point spelled ``yield`` — same event order, and a task that is
    not the earliest parks once per batch instead of once per event."""

    def test_outside_an_engine_the_iterator_is_exhausted(self):
        def steps():
            yield
            yield
            return "value"

        assert drive(steps()) == "value"

    def test_returns_the_value_and_interleaves_like_sequence_points(self):
        engine = Engine()
        log = []
        tasks = [engine.spawn(lambda: drive(ticks(3, log))) for _ in range(3)]
        engine.run()
        assert [t.result for t in tasks] == [3, 3, 3]
        assert log == [(tid, float(now), now) for now in range(3) for tid in range(3)]
        # Each task starts once and parks once; the last one to park steps
        # all three iterators to their ends on its own stack.
        assert engine.switches == 2 + 3

    def test_steps_run_inline_on_the_stopping_thread_as_their_owner(self):
        engine = Engine()
        seen = []

        def steps():
            for _ in range(3):
                yield
                seen.append((current_task().tid, threading.current_thread()))
                current_task().clock.advance(1.0)

        def owner():
            drive(steps())

        def waiter():
            current_task().clock.advance(0.5)
            engine.wait("until the owner is done")

        first = engine.spawn(owner)
        second = engine.spawn(waiter)
        engine.run()
        # The owner parked at t=1 behind the waiter; the waiter's thread, as
        # it blocked, stepped the rest with the owner as the current task.
        assert [tid for tid, _ in seen] == [0, 0, 0]
        assert [thread is first._thread for _, thread in seen] == [True, False, False]
        assert first.state == Task.DONE and second.deadlocked

    def test_a_batch_without_events_gives_way_to_nobody(self):
        engine = Engine()
        log = []

        def late():
            current_task().clock.advance(5.0)
            drive(iter(()))  # e.g. close() flushing a clean cache
            log.append("late")

        engine.spawn(late)
        engine.spawn(lambda: log.append("early"))
        engine.run()
        assert log == ["late", "early"]

    def test_exception_in_a_foreign_step_surfaces_in_the_owner_only(self):
        engine = Engine()
        failed, stepped_on = [], []
        engine.on_task_failed = lambda task: failed.append(task.tid)

        def exploding_steps():
            clock = current_task().clock
            yield
            clock.advance(2.0)
            yield  # parks here: the bystander is still at t=0
            stepped_on.append(threading.current_thread())
            raise ValueError("in a step")

        def owner_body():
            drive(exploding_steps())

        def bystander():
            current_task().clock.advance(3.0)
            sequence_point()  # stops behind the owner and steps it
            return "unaffected"

        owner = engine.spawn(owner_body)
        peer = engine.spawn(bystander)
        engine.run()
        assert stepped_on == [peer._thread]
        assert owner.state == Task.FAILED and isinstance(owner.error, ValueError)
        # The owner's context: its body, its drive call, the step's frames —
        # and nothing of the stack the step happened to run on.
        for frame in ("owner_body", "in drive", "exploding_steps"):
            assert frame in owner.traceback_text
        assert "bystander" not in owner.traceback_text
        assert "_dispatch" not in owner.traceback_text
        assert (peer.state, peer.result) == (Task.DONE, "unaffected")
        assert failed == [0]

    def test_a_step_must_not_block(self):
        engine = Engine()

        def blocking_steps():
            yield
            engine.wait("inside a step")

        def nesting_steps():
            yield
            drive(ticks(1))

        def body():
            with pytest.raises(EngineError, match="a driven step must not block"):
                drive(blocking_steps())
            with pytest.raises(EngineError, match="inside a driven step"):
                drive(nesting_steps())
            return "survived"

        task = engine.spawn(body)
        engine.run()
        assert task.result == "survived"

    @pytest.mark.parametrize("stepper", ["owner", "foreign"])
    def test_a_step_with_two_sequenced_events_is_refused(self, stepper):
        engine = Engine()
        shared = Resource("shared", CostModel(latency=1.0))

        def two_event_steps():
            clock = current_task().clock
            if stepper == "foreign":
                yield
                clock.advance(0.75)  # parks at the next yield, behind the peer
            yield
            clock.advance_to(shared.reserve(clock.now, 0))
            clock.advance_to(shared.reserve(clock.now, 0))  # no yield before it

        def body():
            with pytest.raises(EngineError, match="second sequence point"):
                drive(two_event_steps())
            return "refused"

        def peer():
            current_task().clock.advance(0.5)
            sequence_point()
            current_task().clock.advance(1.0)
            sequence_point()

        task = engine.spawn(body)
        engine.spawn(peer)
        engine.run()
        assert task.result == "refused"

    def test_watchdog_hands_a_driven_owner_its_own_iterator_back(self):
        """After a failure the thread in run() pops the next entry; it runs
        no task code, so a driven owner resumes and steps itself."""
        engine = Engine()
        log, threads = [], []

        def culprit():
            current_task().clock.advance(1.5)
            sequence_point()
            raise RuntimeError("between two steps")

        def owner():
            def steps():
                for _ in range(4):
                    yield
                    threads.append(threading.current_thread())
                    current_task().clock.advance(1.0)

            drive(steps())
            log.append("owner done")

        first = engine.spawn(owner)
        second = engine.spawn(culprit)
        engine.run()
        assert log == ["owner done"] and first.state == Task.DONE
        # Its first step itself, the second on the culprit's stack as that
        # yielded; after the failure, handed back by run(), the rest itself.
        assert threads == [first._thread, second._thread, first._thread, first._thread]
        assert engine.scheduler_returns == 2  # the failure, then completion

    def test_deadlock_victims_are_chosen_after_driven_tasks_finish(self):
        engine = Engine()
        unwound, log = [], []

        def stuck(now):
            def fn():
                try:
                    engine.wait("never")
                finally:
                    unwound.append(current_task().tid)

            return engine.spawn(fn, clock=VirtualClock(now=now))

        victims = [stuck(2.5), stuck(0.5)]
        drivers = [engine.spawn(lambda: drive(ticks(4, log))) for _ in range(2)]
        engine.run()
        assert [t.result for t in drivers] == [4, 4]
        assert [entry[:2] for entry in log] == [
            (tid, float(now)) for now in range(4) for tid in (2, 3)
        ]
        assert unwound == [1, 0]
        assert all(t.state == Task.CANCELLED and t.deadlocked for t in victims)

    def test_timeout_interrupts_steps_that_never_end(self):
        engine = Engine()
        events = []

        def forever():
            clock = current_task().clock
            while True:
                yield
                events.append(current_task().tid)
                clock.advance(1.0)

        tasks = [engine.spawn(lambda: drive(forever())) for _ in range(4)]
        engine.run(timeout=0.2, grace=0.05)
        assert engine.timed_out
        assert sorted(t.tid for t in engine.unfinished) == [0, 1, 2, 3]
        # Whichever thread was stepping sees the abort between two steps and
        # returns control to run(); every task stays parked in drive.
        deadline = time.monotonic() + 5.0
        while engine.scheduler_returns == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine.scheduler_returns == 1
        stepped = len(events)
        time.sleep(0.05)
        assert len(events) == stepped
        assert [t.state for t in tasks] == [Task.READY] * 4

    def test_finished_run_is_collectable_after_ranks_parked_in_drive(self):
        engines = []
        shared = Resource("shared", CostModel(latency=1.0))

        def steps(clock):
            for _ in range(3):
                yield
                clock.advance_to(shared.reserve(clock.now, 0))

        def fn(comm):
            engines.append(weakref.ref(current_task().engine))
            drive(steps(comm.clock))
            comm.barrier()
            return bytearray(1 << 16)

        result = run_spmd(fn, 8)
        assert result.switches < 8 * 3  # the ranks did park in drive
        del result
        gc.collect()
        assert len(engines) == 8 and all(ref() is None for ref in engines)

    @pytest.mark.parametrize("strategy, collectives", [("rank-ordering", 1), ("two-phase", 2)])
    def test_switch_counts_of_a_collective_write_are_analytic(self, strategy, collectives):
        """The count ISSUE 20 removed cannot silently come back: P - 1 task
        starts, a park per non-last arrival at each collective, one park per
        rank for each batch with events — its segment writes, or the sync that
        flushes them — however many segments."""
        P = 8

        def switches(rows):
            views = views_for_pattern("column-wise", rows, 64 * P, P, 4)
            fs = ParallelFileSystem(fast_fs_config())
            executor = AtomicWriteExecutor(fs, default_registry.create(strategy), "f.dat")
            return executor.run(P, lambda rank, _P: views[rank]).spmd.switches

        assert switches(8) == (P - 1) + collectives * (P - 1) + P
        assert switches(32) == switches(8)


def run_program(program, driven):
    """Interpret a ``generators.engine_programs`` draw on a fresh engine, its
    batches driven or written as the parent wrote them (``sequence_point();
    event()``); returns the global event log, final clocks and switches."""
    engine = Engine()
    ntasks = len(program[0])
    locks = CentralLockManager(request_latency=0.25)
    log, arrived = [], []

    def rendezvous():
        me = current_task()
        if len(arrived) < ntasks - 1:
            arrived.append(me)
            engine.wait("rendezvous")
            return
        latest = max(task.clock.now for task in arrived + [me])
        waiting, arrived[:] = list(arrived), []
        for task in waiting + [me]:
            task.clock.advance_to(latest)
        for task in waiting:
            engine.wake(task)

    def event(advance, index):
        task = current_task()
        log.append((task.tid, task.clock.now, index))
        task.clock.advance(advance)

    def steps(advances, index):
        for offset, advance in enumerate(advances):
            yield
            event(advance, index + offset)

    def body(rank):
        clock, index = current_task().clock, 0
        for round_ in program:
            for lock, advances in round_[rank]:
                if lock is not None:
                    held, granted = locks.acquire(rank, lock[0], lock[1], now=clock.now)
                    clock.advance_to(granted, waiting=True)
                if driven:
                    drive(steps(advances, index))
                else:
                    for offset, advance in enumerate(advances):
                        sequence_point()
                        event(advance, index + offset)
                index += len(advances)
                if lock is not None:
                    locks.release(held, now=clock.now)
            rendezvous()

    tasks = [engine.spawn(lambda rank=rank: body(rank)) for rank in range(ntasks)]
    engine.run(timeout=60.0)
    assert [t.state for t in tasks] == [Task.DONE] * ntasks, [t.traceback_text for t in tasks]
    return log, [t.clock.now for t in tasks], engine.switches


@given(program=engine_programs())
def test_driven_equals_yielded(program):
    driven_log, driven_clocks, driven_switches = run_program(program, driven=True)
    yielded_log, yielded_clocks, yielded_switches = run_program(program, driven=False)
    assert driven_log == yielded_log
    assert driven_clocks == yielded_clocks
    assert driven_switches <= yielded_switches


@pytest.mark.parametrize(
    "module", ["repro.fs.cache", "repro.fs.costmodel", "repro.core.engine", "repro.mpi.comm"]
)
def test_importable_first_in_a_fresh_interpreter(module):
    """``core.engine`` is imported by ``mpi.comm`` and by the fs data path; it
    must not import ``repro.mpi`` back at module level, whichever comes first."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
