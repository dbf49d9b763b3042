"""Deterministic cooperative discrete-event scheduler.

The SPMD runtime executes every MPI rank as a *task* of one
:class:`Engine`.  Exactly one task runs at any moment; a task runs until it
blocks on a synchronisation primitive (collective rendezvous, lock queue,
message receive), reaches a :meth:`Engine.sequence` point, or finishes.  The
scheduler then resumes the ready task with the smallest
``(virtual time, task id)`` key, so the whole execution — including every
interaction with shared virtual-time resources — is a pure function of the
task code and is reproduced bit-for-bit run after run.

Tasks are plain synchronous callables.  Each task is carried by a suspended
OS thread (greenlet-style switching without the dependency): the thread
exists only so the task's call stack can be frozen mid-call; it never runs
concurrently with another task or with the scheduler.  Thousands of ranks
are therefore cheap — parked threads cost only their (small) stacks, and
wall-clock time is spent on the simulated work, not on lock contention.

How control moves between tasks — the direct task-to-task hand-off (one
OS-thread switch per event, the thread in :meth:`Engine.run` a watchdog)
and driven steps (a batch of events advanced inline by whichever task stops
running) — is described once, in ARCHITECTURE.md's *Switch protocol* and
*Events, not threads: driven steps* sections.

Primitives
----------

``wait``
    Park the current task until another task (or the scheduler) wakes it.
``wake`` / ``throw``
    Make a blocked task ready again, optionally delivering a value or an
    exception to raise from its ``wait``.
``sequence``
    A *sequence point*: yield to the scheduler iff some ready task has an
    earlier ``(virtual time, task id)`` key.  Shared virtual-time resources
    call this before every reservation so queueing happens in global
    virtual-time order.
``drive``
    Run an iterator of events whose every ``yield`` is a sequence point,
    advanced inline while its owner is parked.  A step must not ``wait``, and passes no second sequence point
    that would yield — both raise :class:`EngineError`.

Shared services build their blocking behaviour from these primitives (the
lock managers keep a waiter queue and wake exactly the requests that no
longer conflict — see ``fs/lockmanager.py``).  Code that may run either
inside or outside an engine discovers the ambient task with
:func:`current_task`; outside one nothing can block: a lock manager grants
a request that conflicts with nothing and raises ``LockViolation`` for one
that does, since no other task could ever release the lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import traceback
from _thread import allocate_lock
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator, List, Optional

if TYPE_CHECKING:  # ``repro.mpi`` imports this module: see ``Engine.spawn``
    from ..mpi.clock import VirtualClock

__all__ = [
    "Engine",
    "EngineError",
    "Task",
    "TaskCancelled",
    "current_task",
    "drive",
    "sequence_point",
]

#: C-stack size for task carrier threads.  Python frames live on the heap,
#: so 1 MiB comfortably holds the interpreter recursion of any rank function
#: while keeping even multi-thousand-rank runs cheap.
_TASK_STACK_BYTES = 1024 * 1024

#: Wall-clock grace given to a timed-out task to unwind before the engine
#: returns.
_DEFAULT_GRACE_SECONDS = 1.0

#: Idle carrier threads kept parked for reuse.  OS thread creation is the
#: dominant per-task cost at scale (it degrades super-linearly as live
#: threads accumulate), so carriers whose task finished are recycled across
#: tasks *and* engines instead of exiting.  The cap bounds idle virtual
#: memory; carriers beyond it simply exit as before.
_MAX_IDLE_CARRIERS = 4096

_tls = threading.local()

#: What :func:`drive` runs, when written as a generator: each ``yield`` is a
#: sequence point, the return value is the batch's result.
Steps = Generator[None, None, Any]


class EngineError(RuntimeError):
    """Misuse of the engine (wrong thread, double run, waking a ready task)."""


class TaskCancelled(BaseException):
    """Injected into a task to unwind it (deadlock teardown, engine abort).

    Derives from :class:`BaseException` so ordinary ``except Exception``
    handlers in rank code cannot swallow the cancellation.
    """


def _held_lock():
    """A raw lock created held: acquiring it again parks, a release resumes."""
    lock = allocate_lock()
    lock.acquire()
    return lock


def current_task() -> Optional["Task"]:
    """The engine task executing on this thread, or ``None`` outside one."""
    return getattr(_tls, "task", None)


def sequence_point() -> None:
    """Yield to the scheduler if an earlier-keyed task is ready (no-op
    outside an engine task)."""
    task = getattr(_tls, "task", None)
    if task is not None:
        ready = task.engine._ready
        if ready and ready[0] < (task.clock.now, task.tid):
            task.engine.sequence(task)


def drive(steps: Iterator) -> Any:
    """Run ``steps`` — an iterator that is at a sequence point whenever it
    is suspended at a ``yield`` and performs one clock-advancing event per
    resumption — to its end, in global virtual-time order; returns its
    ``StopIteration`` value.  See :meth:`Engine.drive`.  Outside an engine
    task nothing orders the events: the iterator is simply exhausted."""
    task = getattr(_tls, "task", None)
    if task is not None:
        return task.engine.drive(steps, task)
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


class _Carrier:
    """A reusable parked OS thread that executes tasks one at a time.

    The thread loops: wait for a task assignment, run the task to
    completion, hand control on, then return to the shared pool for the
    next assignment.  A carrier only ever runs while its current task is the
    engine's running task, so recycling never introduces concurrency — it
    only skips the thread create/destroy.
    """

    __slots__ = ("thread", "_work", "_task")

    def __init__(self) -> None:
        self._work = _held_lock()
        self._task: Optional["Task"] = None
        old_stack = threading.stack_size(_TASK_STACK_BYTES)
        try:
            self.thread = threading.Thread(
                target=self._loop, name="engine-carrier", daemon=True
            )
            self.thread.start()
        finally:
            threading.stack_size(old_stack)

    def _loop(self) -> None:
        while True:
            self._work.acquire()
            handoff = self._task._main()
            # Drop the finished task *before* control moves on: a parked
            # carrier must not pin it (and through it the whole run's state).
            self._task = _tls.task = None
            pooled = _carrier_pool.release(self)
            handoff.release()
            if not pooled:
                return


class _CarrierPool:
    """Process-wide free list of idle carriers (threads are fungible)."""

    def __init__(self, max_idle: int) -> None:
        self._idle: List[_Carrier] = []
        self._max_idle = max_idle
        self._lock = threading.Lock()

    def acquire(self) -> _Carrier:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return _Carrier()

    def release(self, carrier: _Carrier) -> bool:
        """Park an idle carrier for reuse; False tells the thread to exit."""
        with self._lock:
            if len(self._idle) < self._max_idle:
                self._idle.append(carrier)
                return True
        return False


_carrier_pool = _CarrierPool(_MAX_IDLE_CARRIERS)


class Task:
    """One cooperatively scheduled unit of work (an MPI rank, usually)."""

    # States
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    __slots__ = (
        "engine",
        "tid",
        "name",
        "fn",
        "clock",
        "state",
        "wait_reason",
        "result",
        "error",
        "traceback_text",
        "deadlocked",
        "detached",
        "tag",
        "_thread",
        "_resume",
        "_steps",
        "_wake_value",
        "_throw_exc",
        "_cancel_exc",
        "_cancelling",
    )

    def __init__(self, engine: "Engine", tid: int, fn: Callable[[], Any],
                 name: str, clock: "VirtualClock", detached: bool = False,
                 tag: Optional[str] = None) -> None:
        self.engine = engine
        self.tid = tid
        self.name = name
        self.fn = fn
        self.clock = clock
        self.detached = detached
        self.tag = tag
        self.state = Task.NEW
        self.wait_reason = ""
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.traceback_text: Optional[str] = None
        self.deadlocked = False
        self._thread: Optional[threading.Thread] = None
        self._resume = _held_lock()
        #: The iterator this task is inside :meth:`Engine.drive` of, if any.
        self._steps: Optional[Iterator] = None
        self._wake_value: Any = None
        self._throw_exc: Optional[BaseException] = None
        self._cancel_exc: Optional[BaseException] = None
        self._cancelling = False

    @property
    def finished(self) -> bool:
        """True once the task can never run again."""
        return self.state in (Task.DONE, Task.FAILED, Task.CANCELLED)

    def sort_key(self):
        """Deterministic scheduling key: virtual time, then task id."""
        return (self.clock.now, self.tid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r}, state={self.state}, t={self.clock.now:.6f})"

    # -- carrier-thread body --------------------------------------------------

    def _main(self):
        """Run the body; return the lock whose release hands control on."""
        _tls.task = self
        try:
            self.result = self.fn()
        except TaskCancelled as exc:
            self.state = Task.CANCELLED
            self.error = exc
        except BaseException as exc:  # noqa: BLE001 - reported via the engine
            self.state = Task.FAILED
            self.error = exc
            self.traceback_text = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        else:
            self.state = Task.DONE
        # The closure is what captures the rank's heavy state.
        self.fn = None
        return self.engine._next(self)


class Engine:
    """A single-shot cooperative scheduler over a set of tasks."""

    def __init__(self, name: str = "engine") -> None:
        self.name = name
        self.tasks: List[Task] = []
        #: Invoked in scheduler context right after a task fails; used by the
        #: SPMD runtime to abort the failing rank's communicator group so
        #: peers blocked in a collective are released instead of deadlocking.
        self.on_task_failed: Optional[Callable[[Task], None]] = None
        self.timed_out = False
        #: Snapshot (at the deadline) of tasks that had not finished.
        self.unfinished: List[Task] = []
        self._ready: List = []  # heap of (time, tid, Task)
        #: Transfers of control to a different task / back to :meth:`run`.
        self.switches = 0
        self.scheduler_returns = 0
        self._running: Optional[Task] = None
        self._failed: Optional[Task] = None
        self._sched = _held_lock()
        self._started = False
        self._aborted = False
        self._tids = itertools.count()

    # -- task creation ----------------------------------------------------------

    def spawn(self, fn: Callable[[], Any], name: Optional[str] = None,
              clock: Optional["VirtualClock"] = None, detached: bool = False,
              tag: Optional[str] = None) -> Task:
        """Register a task; it becomes ready at its clock's current time.

        Tasks spawned earlier win scheduling ties, so spawning in rank order
        gives the rank-id tiebreak the determinism guarantee relies on.  A
        task whose clock is already advanced (a job arriving at a later
        virtual time in the multi-tenant scheduler) simply becomes ready at
        that later time — the ready heap orders on ``(clock.now, tid)``.

        ``detached=True`` marks a *progress task*: a helper spawned from
        inside a running task (e.g. the execution of a nonblocking file
        request) whose failure is reported through whatever handle owns it
        rather than through the run's per-rank error collection.  Spawning
        mid-run is safe — exactly one task executes at a time, so the ready
        heap is never mutated concurrently.

        ``tag`` is a free-form attribution label (the owning job's id in the
        multi-tenant scheduler) carried on the task for error reporting and
        diagnostics; the engine itself never interprets it.
        """
        if clock is None:
            # Imported here, not at module level: ``repro.mpi``'s package
            # import reaches ``mpi/comm.py``, which imports this module.
            from ..mpi.clock import VirtualClock

            clock = VirtualClock()
        tid = next(self._tids)
        task = Task(self, tid, fn, name or f"task-{tid}", clock, detached=detached, tag=tag)
        self.tasks.append(task)
        task.state = Task.READY
        heapq.heappush(self._ready, (task.clock.now, task.tid, task))
        return task

    # -- primitives (called from inside tasks) -------------------------------------

    def wait(self, reason: str = "") -> Any:
        """Park the current task until :meth:`wake`; returns the wake value."""
        task = self._require_current()
        if task._steps is not None:
            raise EngineError("a driven step must not block")
        if self._aborted or task._cancelling:
            raise TaskCancelled(f"engine {self.name!r} aborted")
        task.state = Task.BLOCKED
        task.wait_reason = reason
        return self._switch(task)

    def wake(self, task: Task, value: Any = None, at: Optional[float] = None) -> None:
        """Make a blocked task ready; schedule it at virtual time ``at``
        (default: its own clock)."""
        if task.state != Task.BLOCKED:
            raise EngineError(f"cannot wake {task!r}: not blocked")
        task._wake_value = value
        self._make_ready(task, at)

    def wake_all(self, tasks: List[Task], value: Any = None,
                 at: Optional[float] = None) -> None:
        """Wake many blocked tasks in one batch (all get the same value).

        The collective rendezvous releases every participant at once; for
        large communicators, extending the ready heap and re-heapifying in
        one pass beats per-task pushes, and the state checks run before any
        task is made ready so a bad batch cannot be half-applied.
        """
        for task in tasks:
            if task.state != Task.BLOCKED:
                raise EngineError(f"cannot wake {task!r}: not blocked")
        entries = []
        for task in tasks:
            task._wake_value = value
            task.state = Task.READY
            entries.append((task.clock.now if at is None else at, task.tid, task))
        if len(entries) > len(self._ready):
            self._ready.extend(entries)
            heapq.heapify(self._ready)
        else:
            for entry in entries:
                heapq.heappush(self._ready, entry)

    def throw(self, task: Task, exc: BaseException, at: Optional[float] = None) -> None:
        """Wake a blocked task so that its ``wait`` raises ``exc``."""
        if task.state != Task.BLOCKED:
            raise EngineError(f"cannot throw into {task!r}: not blocked")
        task._throw_exc = exc
        self._make_ready(task, at)

    def sequence(self, task: Optional[Task] = None) -> None:
        """Yield iff a ready task has a strictly smaller (time, tid) key.

        Shared virtual-time resources call this before reserving, which makes
        reservation order equal to virtual-time order — the discrete-event
        ordering — rather than the order tasks happened to run in.
        """
        task = task if task is not None else self._require_current()
        ready = self._ready
        # A heap entry is (time, tid, task): against a (time, tid) key the
        # comparison is decided by the first two fields, tids being unique.
        while ready and ready[0] < (task.clock.now, task.tid):
            if task._steps is not None:
                raise EngineError(
                    f"a driven step of {task.name} reached a second sequence "
                    f"point at t={task.clock.now!r} behind {ready[0][2].name}: "
                    "one clock-advancing event per step (is a `yield` missing "
                    "before a store or fetch?)"
                )
            if self._aborted or task._cancelling:
                raise TaskCancelled(f"engine {self.name!r} aborted")
            task.state = Task.READY
            heapq.heappush(ready, (task.clock.now, task.tid, task))
            self._switch(task)

    def drive(self, steps: Iterator, task: Optional[Task] = None) -> Any:
        """Run ``steps`` to its end in virtual-time order; returns its value.

        ``steps`` is *at a sequence point whenever it is suspended at a
        ``yield``* and performs exactly one clock-advancing event per
        resumption — the loop ``for ...: sequence_point(); event()`` with the
        sequence point spelled ``yield``.  The owner runs it to its first
        ``yield`` before looking at the heap (a batch without events gives
        way to nobody) and steps it itself while it holds the smallest
        ``(time, tid)`` key.  When an earlier-keyed task is ready it queues
        itself *with the iterator* and parks once; from then on whichever
        task stops running advances the iterator inline, on its own stack,
        each time the owner is the heap minimum (:meth:`_dispatch`), and the
        owner is resumed when the iterator has finished or raised —
        immediately, as a task keeps running after its last event.  (The
        watchdog in :meth:`run` runs no task code: should it pop the owner,
        the owner resumes and goes on stepping itself.)  Event order is that
        of the yielding loop by construction: same min-key rule, same tid
        tie-break, one heap entry per task.

        A step may run on a foreign stack, so it must not block (``wait``
        raises :class:`EngineError`) and may pass no second sequence point
        that would have to yield (``sequence`` raises).  Host CPU measured
        across a blocking primitive belongs to the engine, not the task: a
        thread stopped in ``wait`` or here advances other tasks' steps
        before it parks, so a ``time.thread_time`` pair must not span one.
        """
        task = task if task is not None else self._require_current()
        if task._steps is not None:
            raise EngineError("drive called from inside a driven step")
        ready = self._ready
        clock, tid = task.clock, task.tid
        task._steps = steps
        try:
            next(steps)
            while True:
                while not (ready and ready[0] < (clock.now, tid)):
                    next(steps)
                if self._aborted or task._cancelling:
                    raise TaskCancelled(f"engine {self.name!r} aborted")
                task.state = Task.READY
                heapq.heappush(ready, (clock.now, tid, task))
                value = self._switch(task)
                if task._steps is None:  # finished while parked
                    return value
        except StopIteration as done:
            return done.value
        finally:
            task._steps = None

    # -- the scheduler loop ------------------------------------------------------

    def run(self, timeout: Optional[float] = None,
            grace: float = _DEFAULT_GRACE_SECONDS) -> None:
        """Drive tasks to completion (or deadlock-cancellation / timeout).

        The engine is single-shot.  After ``run`` returns, inspect
        :attr:`tasks` for per-task results and errors, and :attr:`timed_out`
        / :attr:`unfinished` for the wall-clock safety net's verdict.
        """
        if self._started:
            raise EngineError("an Engine can only run once")
        if current_task() is not None:
            raise EngineError("Engine.run cannot be called from inside a task")
        self._started = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                self._expire(grace)
                return
            task = self._pop_ready()
            if task is None:
                blocked = [t for t in self.tasks if t.state == Task.BLOCKED]
                if not blocked:
                    # Complete.  Break the engine <-> task and engine -> hook
                    # -> communicator group -> engine cycles, so the run's
                    # state is freed by reference counting, not whenever the
                    # cyclic collector next looks.
                    self.on_task_failed = None
                    for t in self.tasks:
                        t.engine = None
                    return
                # No runnable task, blocked tasks remain: the run cannot make
                # progress.  Cancel the earliest-keyed blocked task; its
                # unwinding (lock releases, ...) may make others runnable, so
                # re-enter the loop rather than cancelling all at once.  The
                # unwind itself is bounded by the deadline: a victim stuck in
                # real time must not suspend the wall-clock safety net.
                victim = min(blocked, key=Task.sort_key)
                victim.deadlocked = True
                budget = None if deadline is None else max(0.0, deadline - time.monotonic())
                unwound = self._cancel(victim, TaskCancelled(
                    f"deadlock: {victim.name} blocked on "
                    f"{victim.wait_reason or 'nothing runnable'}"
                ), wait_timeout=budget)
                if not unwound:
                    self._expire(grace)
                    return
                continue
            self._activate(task).release()
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not self._regain(remaining):
                self._expire(grace)
                return

    # -- internals --------------------------------------------------------------

    def _require_current(self) -> Task:
        task = current_task()
        if task is None or task.engine is not self:
            raise EngineError("primitive called outside a task of this engine")
        return task

    def _switch(self, task: Task) -> Any:
        """Stop running ``task``: hand control on, park until resumed."""
        handoff = self._next(task)
        if handoff is not None:
            handoff.release()
            task._resume.acquire()
        return self._on_resumed(task)

    def _next(self, prev: Task):
        """Called by ``prev`` as it stops: the lock whose release transfers
        control — the next ready task's, or the scheduler's (ARCHITECTURE.md,
        *Switch protocol*) — or ``None`` when ``prev`` is itself next and need
        not park."""
        if prev.state == Task.FAILED:
            self._failed = prev
        elif not prev._cancelling:
            task = self._dispatch(prev)
            if task is prev:
                task.state = Task.RUNNING
                return None
            if task is not None:
                self.switches += 1
                return self._activate(task)
        self._running = None
        self.scheduler_returns += 1
        return self._sched

    def _activate(self, task: Task):
        """Mark ``task`` running; return the lock that resumes (or starts) it."""
        self._running = task
        task.state = Task.RUNNING
        if task._thread is not None:
            return task._resume
        carrier = _carrier_pool.acquire()
        task._thread = carrier.thread
        carrier._task = task
        return carrier._work

    def _regain(self, timeout: Optional[float]) -> bool:
        """Scheduler side: await control, then run the failure hook first."""
        if not self._sched.acquire(True, -1 if timeout is None else timeout):
            return False
        failed, self._failed = self._failed, None
        if failed is not None and self.on_task_failed is not None:
            self.on_task_failed(failed)
        return True

    def _on_resumed(self, task: Task) -> Any:
        if task._cancel_exc is not None:
            exc = task._cancel_exc
            task._cancel_exc = None
            raise exc
        if task._throw_exc is not None:
            exc = task._throw_exc
            task._throw_exc = None
            raise exc
        value = task._wake_value
        task._wake_value = None
        return value

    def _make_ready(self, task: Task, at: Optional[float] = None) -> None:
        task.state = Task.READY
        key = task.clock.now if at is None else at
        heapq.heappush(self._ready, (key, task.tid, task))

    def _pop_ready(self) -> Optional[Task]:
        while self._ready:
            _, _, task = heapq.heappop(self._ready)
            if task.state == Task.READY:
                return task
        return None

    def _dispatch(self, prev: Task) -> Optional[Task]:
        """Pop ready tasks in key order, advancing driven iterators inline on
        ``prev``'s stack (``prev`` is stopping; this is its thread); returns
        the first task that needs its own stack — an undriven one, or the
        owner of an iterator that just finished or raised, its value or
        exception in the wake slots — or ``None`` when nothing is ready or
        the engine is aborted."""
        ready = self._ready
        try:
            while not self._aborted:
                task = self._pop_ready()
                if task is None or task._steps is None:
                    return task
                _tls.task = task
                try:
                    next(task._steps)
                except StopIteration as done:
                    task._wake_value = done.value
                except BaseException as exc:  # noqa: BLE001 - re-raised in the owner
                    # Minus this frame: the owner sees the step's frames
                    # under its own ``drive`` call, not a foreign stack.
                    task._throw_exc = exc.with_traceback(exc.__traceback__.tb_next)
                else:
                    heapq.heappush(ready, (task.clock.now, task.tid, task))
                    continue
                task._steps = None
                return task
            return None
        finally:
            _tls.task = prev

    def _cancel(self, task: Task, exc: TaskCancelled,
                wait_timeout: Optional[float] = None) -> bool:
        """Synchronously unwind a blocked task (scheduler context only).

        Returns ``False`` if the unwind did not complete within
        ``wait_timeout`` seconds (the victim is stuck in real time, e.g. its
        cleanup blocks on a non-engine lock); the caller must then stop
        scheduling — the engine is left marked aborted so the straggler dies
        at its next primitive call.
        """
        if task._thread is None:
            # Never ran: no stack to unwind.
            task.state = Task.CANCELLED
            task.error = exc
            return True
        task._cancelling = True
        task._cancel_exc = exc
        self._activate(task).release()
        if not self._regain(wait_timeout):
            self._aborted = True
            return False
        return True

    def _expire(self, grace: float) -> None:
        """Wall-clock timeout: snapshot the stragglers and stop scheduling."""
        unfinished = [t for t in self.tasks if not t.finished]
        if not unfinished and self._running is None:
            # The deadline raced with completion: everything actually
            # finished, so the run did not time out.
            return
        self.timed_out = True
        self._aborted = True
        self.unfinished = unfinished
        # Give the currently running task (stuck in real time, e.g. a sleep)
        # a short grace period to unwind; parked tasks stay parked on their
        # daemon carrier threads.
        if self._running is not None:
            self._sched.acquire(True, max(0.0, grace))
            self._running = None
