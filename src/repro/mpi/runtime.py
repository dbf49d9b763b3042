"""SPMD execution harness: every MPI rank is a cooperative scheduler task.

:func:`run_worlds` is the one launch body.  It takes one or more
:class:`World` s — each an SPMD program ``fn(comm)`` on ``nprocs`` ranks with
its own communicator group and per-rank clocks — spawns every world's ranks
in order on one :class:`~repro.core.engine.Engine`, installs one failure hook
that aborts only the failing rank's own group, runs the engine once, and
collects failures, deadlocks and timeouts into one
:class:`~repro.mpi.errors.SPMDExecutionError`.  :func:`run_spmd` — the entry
point every example, test and benchmark uses to run an "MPI program" — is
that body with one world; the multi-tenant scheduler
(:mod:`repro.jobs.scheduler`) calls it with one world per job.

Execution is deterministic: exactly one rank runs at a time, and the
scheduler always resumes the ready rank with the smallest
``(virtual time, task id)`` key — task ids follow spawn order, so world
order, then rank order — and two runs of the same program produce identical
interleavings, identical file contents and identical virtual-time makespans.
Rank counts in the thousands are cheap because a parked rank is just a
frozen call stack — there is no thread contention and no OS-level
synchronisation on the critical path.

Exceptions raised by any rank are collected and re-raised as a single
:class:`~repro.mpi.errors.SPMDExecutionError` carrying, per failing rank,
the exception and the rank-local traceback, keyed by rank number — or by
``(tag, rank)`` for a tagged world, such as a scheduler job.  When a rank
fails, its world's communicator group is aborted so peers blocked in a
collective with it are released (with a
:class:`~repro.mpi.errors.CollectiveAbortedError`) instead of deadlocking;
other worlds keep running.  Ranks still blocked when nothing can run anymore
are reported with a :class:`~repro.mpi.errors.DeadlockError` naming what
they were waiting on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.engine import Engine, Task
from .clock import VirtualClock
from .comm import CommCostModel, Communicator, _CommGroup
from .errors import (
    CollectiveAbortedError,
    DeadlockError,
    SPMDExecutionError,
    rank_label,
)

__all__ = ["SPMDResult", "World", "run_spmd", "run_worlds"]


@dataclass
class SPMDResult:
    """Results of an SPMD run.

    Attributes
    ----------
    returns:
        Per-rank return values of the rank function.
    clocks:
        Per-rank virtual clocks as they stood when the rank function
        returned; ``max(c.now for c in clocks)`` is the virtual makespan.
    switches, scheduler_returns:
        The engine's deterministic hand-off counters for the run (zero for
        results not produced on the event engine).
    """

    returns: List[Any]
    clocks: List[VirtualClock]
    switches: int = 0
    scheduler_returns: int = 0

    @property
    def nprocs(self) -> int:
        """Number of ranks that ran."""
        return len(self.returns)

    @property
    def makespan(self) -> float:
        """Virtual time at which the slowest rank finished."""
        return max((c.now for c in self.clocks), default=0.0)


@dataclass(frozen=True)
class World:
    """One SPMD program of a launch: ``fn(comm)`` on ``nprocs`` ranks.

    The world's ranks share a private communicator group whose per-rank
    clocks start at virtual time ``start`` (a world starting later simply
    becomes runnable later).  A ``tag`` is carried on every task, names
    the tasks ``job-{tag}-rank-{rank}`` instead of ``mpi-rank-{rank}`` and
    keys the world's failures by ``(tag, rank)`` instead of by rank.
    """

    fn: Callable[[Communicator], Any]
    nprocs: int
    start: float = 0.0
    tag: Optional[str] = None


def run_worlds(
    worlds: Sequence[World],
    comm_cost: Optional[CommCostModel] = None,
    timeout: Optional[float] = 120.0,
) -> List[SPMDResult]:
    """Run every world on one engine; one :class:`SPMDResult` per world.

    ``comm_cost`` is every world's communication cost model.  ``timeout``
    is the wall-clock safety net in seconds for the whole launch (``None``
    disables it); on expiry every rank that had not finished at the deadline
    is reported — even if it completed during the short unwind grace
    period, since it exceeded the budget either way.

    Raises :class:`SPMDExecutionError` if any rank of any world raised,
    deadlocked or timed out.
    """
    engine = Engine(name="spmd")
    launched: List[Tuple[_CommGroup, List[Task]]] = []
    owners: Dict[int, Tuple[_CommGroup, Hashable]] = {}
    for world in worlds:
        if world.nprocs <= 0:
            raise ValueError("nprocs must be positive")
        group = _CommGroup(
            world.nprocs,
            clocks=[VirtualClock(now=world.start) for _ in range(world.nprocs)],
            cost_model=comm_cost,
            engine=engine,
        )
        prefix = "mpi-rank" if world.tag is None else f"job-{world.tag}-rank"
        tasks = []
        for rank in range(world.nprocs):
            task = engine.spawn(
                partial(world.fn, Communicator(group, rank)),
                name=f"{prefix}-{rank}",
                clock=group.clocks[rank],
                tag=world.tag,
            )
            owners[task.tid] = (group, rank if world.tag is None else (world.tag, rank))
            tasks.append(task)
        launched.append((group, tasks))

    # A failing rank releases the peers blocked in a collective with it — in
    # its own world only.  Detached progress tasks (nonblocking I/O) report
    # their failures through the request that owns them and abort their own
    # progress communicator, so they must not take a world group down.
    def on_task_failed(task: Task) -> None:
        if task.detached:
            return
        group, key = owners[task.tid]
        group.abort(
            CollectiveAbortedError(
                f"collective aborted: {rank_label(key)} failed with "
                f"{type(task.error).__name__}: {task.error}"
            )
        )

    engine.on_task_failed = on_task_failed
    engine.run(timeout=timeout)

    failures: Dict[Hashable, BaseException] = {}
    tracebacks: Dict[Hashable, str] = {}
    for _, tasks in launched:
        for task in tasks:
            key = owners[task.tid][1]
            if task.state == Task.FAILED:
                failures[key] = task.error
                if task.traceback_text:
                    tracebacks[key] = task.traceback_text
            elif task.state == Task.CANCELLED and task.deadlocked:
                failures[key] = DeadlockError(
                    f"{rank_label(key)} was still blocked on "
                    f"{task.wait_reason or '<unknown>'} when no rank could make progress"
                )
    if engine.timed_out:
        # Timeout entries take precedence over errors the teardown provoked
        # in the same ranks, so the root cause (the budget) is not masked.
        # Detached progress tasks are not ranks: stragglers among them are
        # reported under a single pseudo-entry ``-1`` only when no rank is
        # implicated.
        timeouts: Dict[Hashable, BaseException] = {}
        for task in engine.unfinished:
            if not task.detached:
                key = owners[task.tid][1]
                timeouts[key] = TimeoutError(
                    f"{rank_label(key)} did not finish within the {timeout}s timeout"
                )
        if not timeouts and not failures:
            stragglers = [t for t in engine.unfinished if t.detached]
            if stragglers:
                names = ", ".join(t.name for t in stragglers[:4])
                timeouts[-1] = TimeoutError(
                    f"detached progress task(s) ({names}) did not finish "
                    f"within the {timeout}s timeout"
                )
        failures.update(timeouts)
    if failures:
        raise SPMDExecutionError(failures, tracebacks)
    return [
        SPMDResult(
            returns=[t.result for t in tasks],
            clocks=list(group.clocks),
            switches=engine.switches,
            scheduler_returns=engine.scheduler_returns,
        )
        for group, tasks in launched
    ]


def run_spmd(
    fn: Callable[..., Any],
    nprocs: int,
    *args: Any,
    comm_cost: Optional[CommCostModel] = None,
    timeout: Optional[float] = 120.0,
    **kwargs: Any,
) -> SPMDResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` scheduled ranks.

    :func:`run_worlds` with one world.  ``fn``'s first argument is the
    rank's world :class:`~repro.mpi.comm.Communicator`; ``comm_cost`` is
    the optional virtual-time cost model for communication, ``timeout`` the
    wall-clock safety net in seconds (``None`` disables it).

    Raises :class:`SPMDExecutionError`, keyed by rank number, if any rank
    raised, deadlocked or timed out; per-rank exceptions (and rank-local
    tracebacks, where captured) are attached.
    """
    world = World(lambda comm: fn(comm, *args, **kwargs), nprocs)
    [result] = run_worlds([world], comm_cost=comm_cost, timeout=timeout)
    return result
