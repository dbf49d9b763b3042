"""SPMD execution harness: every MPI rank is a cooperative scheduler task.

:func:`run_spmd` is the entry point every example, test and benchmark uses to
run an "MPI program": it spawns one :class:`~repro.core.engine.Engine` task
per rank, hands each a :class:`~repro.mpi.comm.Communicator` for the world
communicator (plus any extra positional/keyword arguments) and collects the
per-rank return values.

Execution is deterministic: exactly one rank runs at a time, and the
scheduler always resumes the ready rank with the smallest
``(virtual time, rank)`` key, so two runs of the same program produce
identical interleavings, identical file contents and identical virtual-time
makespans.  Rank counts in the thousands are cheap because a parked rank is
just a frozen call stack — there is no thread contention and no OS-level
synchronisation on the critical path.

Exceptions raised by any rank are collected and re-raised as a single
:class:`~repro.mpi.errors.SPMDExecutionError` carrying, per failing rank,
the rank number, the exception and the rank-local traceback.  When a rank
fails, the communicator group is aborted so peers blocked in a collective
with it are released (with a
:class:`~repro.mpi.errors.CollectiveAbortedError`) instead of deadlocking;
ranks still blocked when nothing can run anymore are reported with a
:class:`~repro.mpi.errors.DeadlockError` naming what they were waiting on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.engine import Engine, Task
from .clock import VirtualClock
from .comm import CommCostModel, Communicator, _CommGroup
from .errors import CollectiveAbortedError, DeadlockError, SPMDExecutionError

__all__ = ["SPMDResult", "run_spmd", "spawn_world", "collect_rank_failures"]

#: How long a rank stuck past the deadline gets to unwind before the run is
#: reported as timed out.
_TIMEOUT_GRACE_SECONDS = 1.0


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


def spawn_world(
    engine: Engine,
    group: _CommGroup,
    fn: Callable[..., Any],
    *args: Any,
    name_prefix: str = "mpi-rank",
    tag: Optional[str] = None,
    **kwargs: Any,
) -> List[Task]:
    """Spawn one engine task per rank of ``group`` running ``fn(comm, ...)``.

    The world-construction half of :func:`run_spmd`, reusable by schedulers
    that multiplex several independent SPMD worlds onto one engine (the
    multi-tenant job layer, :mod:`repro.jobs.scheduler`): each rank gets a
    :class:`~repro.mpi.comm.Communicator` facade over ``group`` and runs on
    the group's per-rank clock, so a group whose clocks start at a later
    virtual time simply becomes runnable at that time.  Tasks are spawned in
    rank order (the determinism tiebreak) and labelled
    ``{name_prefix}-{rank}`` with attribution ``tag``.
    """

    def make_rank_main(rank: int) -> Callable[[], Any]:
        comm = Communicator(group, rank)

        def rank_main() -> Any:
            return fn(comm, *args, **kwargs)

        return rank_main

    return [
        engine.spawn(
            make_rank_main(rank),
            name=f"{name_prefix}-{rank}",
            clock=group.clocks[rank],
            tag=tag,
        )
        for rank in range(group.size)
    ]


def collect_rank_failures(
    tasks: List[Task],
) -> Tuple[Dict[int, BaseException], Dict[int, str]]:
    """Per-rank failures (and rank-local tracebacks) after an engine run.

    Maps each failed task to its exception and each deadlock-cancelled task
    to a :class:`~repro.mpi.errors.DeadlockError` naming what it was blocked
    on; the index into ``tasks`` (the rank number) keys both dicts.
    """
    failures: Dict[int, BaseException] = {}
    tracebacks: Dict[int, str] = {}
    for rank, task in enumerate(tasks):
        if task.state == Task.FAILED:
            failures[rank] = task.error
            if task.traceback_text:
                tracebacks[rank] = task.traceback_text
        elif task.state == Task.CANCELLED and task.deadlocked:
            failures[rank] = DeadlockError(
                f"rank {rank} was still blocked on {task.wait_reason or '<unknown>'} "
                "when no rank could make progress"
            )
    return failures, tracebacks


def run_spmd(
    fn: Callable[..., Any],
    nprocs: int,
    *args: Any,
    comm_cost: Optional[CommCostModel] = None,
    timeout: Optional[float] = 120.0,
    **kwargs: Any,
) -> SPMDResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` scheduled ranks.

    Parameters
    ----------
    fn:
        The per-rank function.  Its first argument is the rank's world
        :class:`~repro.mpi.comm.Communicator`.
    nprocs:
        Number of ranks (scheduler tasks) to run.
    comm_cost:
        Optional virtual-time cost model for communication operations.
    timeout:
        Wall-clock safety net in seconds for the whole group; ``None``
        disables it.  On expiry every rank that had not finished at the
        deadline is reported by number in the raised
        :class:`SPMDExecutionError` — even if it completed during the short
        unwind grace period, since it exceeded the budget either way.

    Returns
    -------
    SPMDResult
        Per-rank return values and virtual clocks.

    Raises
    ------
    SPMDExecutionError
        If any rank raised, deadlocked or timed out; per-rank exceptions
        (and rank-local tracebacks, where captured) are attached.
    """
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")

    engine = Engine(name="spmd")
    group = _CommGroup(nprocs, cost_model=comm_cost, engine=engine)
    tasks = spawn_world(engine, group, fn, *args, **kwargs)

    # Release peers blocked in a collective with a failed rank (the
    # event-driven counterpart of the old barrier abort).  Detached progress
    # tasks (nonblocking I/O) report their failures through the request that
    # owns them and abort their own progress communicator, so they must not
    # take the world group down.
    def on_task_failed(task: Task) -> None:
        if task.detached:
            return
        group.abort(
            CollectiveAbortedError(
                f"collective aborted: rank {task.tid} failed with "
                f"{type(task.error).__name__}: {task.error}"
            )
        )

    engine.on_task_failed = on_task_failed

    engine.run(timeout=timeout, grace=_TIMEOUT_GRACE_SECONDS)

    failures, tracebacks = collect_rank_failures(tasks)

    if engine.timed_out:
        # Timeout entries take precedence over errors the teardown provoked
        # in the same ranks, so the root cause (the budget) is not masked.
        # Detached progress tasks are not ranks: their tids would read as
        # phantom rank numbers, so stragglers among them are reported under
        # a single pseudo-entry only when no real rank is implicated.
        timeouts = {
            task.tid: TimeoutError(
                f"rank {task.tid} did not finish within the {timeout}s timeout"
            )
            for task in engine.unfinished
            if not task.detached
        }
        if not timeouts and not failures:
            stragglers = [t for t in engine.unfinished if t.detached]
            if stragglers:
                names = ", ".join(t.name for t in stragglers[:4])
                timeouts[-1] = TimeoutError(
                    f"detached progress task(s) ({names}) did not finish "
                    f"within the {timeout}s timeout"
                )
        if failures or timeouts:
            raise SPMDExecutionError({**failures, **timeouts}, tracebacks)

    if failures:
        raise SPMDExecutionError(failures, tracebacks)
    return SPMDResult(
        returns=[t.result for t in tasks],
        clocks=list(group.clocks),
        switches=engine.switches,
        scheduler_returns=engine.scheduler_returns,
    )
