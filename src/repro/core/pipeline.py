"""The staged collective-I/O pipeline.

Every atomicity strategy in the paper follows the same sequence: exchange
file views, derive what the conflicts require, schedule who transfers what
when, then execute the I/O.  This module holds the parts written once — for
every strategy and for both directions: a collective write and a collective
read differ only in the plan's ``direction`` and in which directives their
schedules set.

:func:`exchange_views`
    Stage 1 (communication): ``allgather`` every rank's flattened file view —
    the handshaking step of Section 3.3 — into one region list that every
    rank of the collective shares (:func:`shared_regions`).  Strategies that
    need no knowledge of their peers (byte-range locking, the non-atomic
    baseline) do not call it and pay no negotiation cost.

Stage 2 (pure local computation) is no object of its own.  Every rank
derives the identical colouring (Section 3.3.1), rank-priority trim
(Section 3.3.2) or two-phase negotiation from the identical views, so a
strategy's schedule asks the shared region list for the one product it
reads — ``regions.once(key, build)``, :class:`~repro.mpi.comm.SharedList` —
and the first rank to ask builds it for all.  A product lives exactly as
long as its collective's region list.

:class:`IOPlan` / :class:`PhasePlan` / :class:`TransferStep` / :class:`LockDirective`
    Stage 3 output: a *declarative* schedule of this rank's I/O — its
    direction, which byte ranges to lock (exclusive for writes, shared for
    reads), how many phases the collective operation has, and which
    ``(buffer, file, length)`` transfers happen in each phase, with per-phase
    cache / invalidate / sync / barrier behaviour.  Building the plan is the
    only part a strategy has to implement.

:func:`run_plan`
    Stage 4 (execution): walk an :class:`IOPlan` against a
    :class:`~repro.fs.client.ClientFileHandle`, acquire the scheduled locks,
    issue each phase's transfers as one batched write — or one batched read
    into the plan's named sink buffers — honour the invalidate, sync and
    barrier directives, and account everything into a
    :class:`~repro.core.strategies.IOOutcome`.

All strategies are expressed through these parts — see
:mod:`repro.core.strategies`.  Because a collective read may move fetched
bytes *between* ranks after the file I/O (the two-phase scatter), delivery of
the user stream is a strategy hook that runs after :func:`run_plan` — see
:meth:`repro.core.strategies.AtomicityStrategy.commit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..fs.lockmanager import LockMode
from ..mpi.comm import SharedList
from .engine import Steps, drive
from .regions import FileRegionSet

if TYPE_CHECKING:  # imported lazily to keep the package import graph acyclic
    from ..fs.client import ClientFileHandle
    from ..mpi.comm import Communicator

__all__ = [
    "exchange_views",
    "shared_regions",
    "LockDirective",
    "TransferStep",
    "PhasePlan",
    "IOPlan",
    "run_plan",
    "step_runs",
    "USER_PAYLOAD",
]

#: Key of the rank's own data stream in a plan's buffer dictionary.
USER_PAYLOAD = "user"


# ---------------------------------------------------------------------------
# Stage 1 — view exchange (communication layer)
# ---------------------------------------------------------------------------


def shared_regions(all_segments: Iterable[Sequence[Tuple[int, int]]]) -> SharedList:
    """One collective's region list: ``regions[i]`` is rank *i*'s view.

    The engine's exchange builds it from every rank's gathered ``segments``,
    the executors (hence the bulk driver) from every rank's view.  A
    region's ``segments`` is taken as already validated; anything else is
    validated as :class:`~repro.core.regions.FileRegionSet` does.
    """
    return SharedList(FileRegionSet(rank, segs) for rank, segs in enumerate(all_segments))


def exchange_views(comm: "Communicator", region: FileRegionSet) -> SharedList:
    """Allgather the views; ``regions[i]`` is rank *i*'s view.

    Every rank of one collective allgathers the *same* list (payloads travel
    by reference), so the region list is built once, as that list's product,
    and every rank receives the same one — treat it as immutable.
    """
    gathered = comm.allgather_shared(region.segments)
    return gathered.once("regions", lambda: shared_regions(gathered))


# ---------------------------------------------------------------------------
# Stage 3 — the declarative schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LockDirective:
    """One byte-range lock to hold for the duration of the plan.

    Write schedules lock exclusively; read schedules use shared mode, so
    concurrent readers coexist while conflicting writers still serialise
    against them.
    """

    start: int
    stop: int
    mode: str = LockMode.EXCLUSIVE

    @property
    def length(self) -> int:
        """Bytes covered by the lock."""
        return self.stop - self.start


class TransferStep(NamedTuple):
    """One contiguous transfer between a named buffer and the file.

    ``buffer`` names the buffer on the memory side of the transfer — the
    payload a write step draws from, the sink a read step fills (``"user"``
    for the rank's own data stream; the two-phase strategy adds an
    aggregation buffer in either direction).  ``writer`` optionally overrides
    the provenance recorded by the file system; reads ignore it.  A two-phase
    aggregator's *span* step names its ``(origin, length)`` runs instead, back
    to back, each written *on behalf of* its origin (:func:`step_runs`).
    """

    buffer_offset: int
    file_offset: int
    length: int
    buffer: str = USER_PAYLOAD
    writer: Optional[int] = None
    runs: Tuple[Tuple[int, int], ...] = ()


@dataclass
class PhasePlan:
    """The I/O this rank performs in one phase of the collective operation."""

    index: int
    steps: List[TransferStep] = field(default_factory=list)
    #: Bypass the client cache (the behaviour of transfers under a lock).
    direct: bool = False
    #: Drop cached pages before the phase's transfers, so they observe data
    #: that peers flushed since the pages were cached (the invalidate half of
    #: the paper's handshaking protocol; the cache flushes its own dirty
    #: pages first — sync-then-invalidate).
    invalidate_before: bool = False
    #: Flush write-behind data after the phase's transfers (``MPI_File_sync``).
    sync_after: bool = False
    #: Synchronise with every other rank before the next phase may begin.
    barrier_after: bool = False

    @property
    def bytes_scheduled(self) -> int:
        """Total bytes this phase transfers."""
        return sum(s.length for s in self.steps)


@dataclass
class IOPlan:
    """A complete declarative schedule for one rank's collective operation."""

    #: ``"write"`` or ``"read"`` — which way the steps move their bytes, in the
    #: spelling ``JobSpec.mode``, ``MPIFile._issue``'s ``kind`` and the tuner's
    #: ``mode=`` use.
    direction: str
    strategy: str
    rank: int
    bytes_requested: int
    phases: List[PhasePlan] = field(default_factory=list)
    locks: List[LockDirective] = field(default_factory=list)
    my_phase: int = 0
    colors_used: int = 0
    bytes_surrendered: int = 0
    #: Bytes this rank moved to *other* ranks while the schedule was built
    #: (the shuffle of an aggregated write; a read's scatter runs after the
    #: file I/O and accounts into the outcome directly).
    bytes_shuffled: int = 0
    #: Override for the reported phase count when the logical phase structure
    #: differs from the plan's I/O phases (two-phase I/O reports its shuffle
    #: or scatter phase even though only one phase performs file I/O).
    reported_phases: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.direction not in ("write", "read"):
            raise ValueError(f"plan direction must be 'write' or 'read', not {self.direction!r}")

    @property
    def num_phases(self) -> int:
        """Phase count reported in the outcome (at least 1)."""
        if self.reported_phases is not None:
            return self.reported_phases
        return max(len(self.phases), 1)

    @property
    def bytes_scheduled(self) -> int:
        """Total bytes scheduled across all phases."""
        return sum(p.bytes_scheduled for p in self.phases)

    def sink_sizes(self) -> Dict[str, int]:
        """Required size of each named buffer (max step end per buffer)."""
        sizes: Dict[str, int] = {}
        for phase in self.phases:
            for step in phase.steps:
                end = step.buffer_offset + step.length
                if end > sizes.get(step.buffer, 0):
                    sizes[step.buffer] = end
        return sizes

    def sinks(self) -> Dict[str, bytearray]:
        """Fresh zeroed buffers for one execution of a read plan."""
        return {name: bytearray(size) for name, size in self.sink_sizes().items()}


# ---------------------------------------------------------------------------
# Stage 4 — plan execution
# ---------------------------------------------------------------------------


def step_runs(steps: Iterable[TransferStep]) -> Iterable[tuple]:
    """The steps' transfers as the client makes them, in order:
    ``(buffer_offset, file_offset, length, buffer, writer)``, one per run of
    a span step, else one per step."""
    for at, offset, length, buffer, writer, runs in steps:
        for writer, length in runs or ((writer, length),):
            yield at, offset, length, buffer, writer
            at, offset = at + length, offset + length


def transfer_steps(
    handle: "ClientFileHandle",
    direction: str,
    phase: PhasePlan,
    buffers: Dict[str, Any],
    out: "IOOutcome",
) -> Steps:
    """One phase's transfers in step form (:func:`repro.core.engine.drive`).

    The only direction branch of stage 4: a write step draws its bytes from
    ``buffers[step.buffer]``, a read step lands them there.  Written once for
    both drivers — :func:`run_plan` drives it on the engine, the bulk sweep
    (:mod:`repro.core.bulk`) advances one per replayed rank.
    """
    steps = phase.steps
    if direction == "write":
        out.bytes_moved += yield from handle.write_batch_steps(
            (
                (file_offset, buffers[buffer][at : at + length], writer)
                for at, file_offset, length, buffer, writer in step_runs(steps)
            ),
            phase.direct,
        )
    else:
        fetched = yield from handle.read_batch_steps(
            ((s.file_offset, s.length) for s in steps), phase.direct
        )
        for s, data in zip(steps, fetched):
            buffers[s.buffer][s.buffer_offset : s.buffer_offset + len(data)] = data
            out.bytes_moved += len(data)
    out.segments_moved += sum([len(s.runs) or 1 for s in steps])


def run_plan(
    comm: "Communicator",
    handle: "ClientFileHandle",
    plan: IOPlan,
    buffers: Dict[str, Any],
    start_time: Optional[float] = None,
) -> "IOOutcome":
    """Run ``plan`` against ``buffers``, the named memory side of its steps.

    Strategy-agnostic: every behavioural difference between the strategies —
    and between the directions, up to the transfer call itself — is encoded
    in the plan.  Locks are acquired before the first phase and released
    after the last (or on error, including an error while a later lock of
    the same plan is being acquired); each phase optionally invalidates the
    client cache, issues its steps as one batched transfer, then honours its
    sync and barrier directives.

    A write draws each step's bytes from ``buffers[step.buffer]``; a read
    lands them there, so a read's ``buffers`` are the plan's
    :meth:`~IOPlan.sinks` — delivery of the user stream (which may involve
    communication, e.g. the two-phase scatter) is the strategy's job.
    ``start_time`` backdates the outcome to when the pipeline started
    (stage 1), so the negotiation cost is part of the measured time just as
    in the monolithic implementations.
    """
    from .strategies import IOOutcome  # local import: avoids a cycle

    clock = handle.clock
    out = IOOutcome.from_plan(plan, clock.now if start_time is None else start_time)
    stats = handle.cache.stats
    hits0, misses0 = stats.hits, stats.misses
    held = []
    try:
        for directive in plan.locks:
            waited0 = clock.waited
            held.append(handle.lock(directive.start, directive.stop, mode=directive.mode))
            out.locks_acquired += 1
            out.lock_wait_seconds += clock.waited - waited0
        for phase in plan.phases:
            if phase.invalidate_before:
                handle.invalidate()
                out.invalidations += 1
            if phase.steps:
                drive(transfer_steps(handle, plan.direction, phase, buffers, out))
            if phase.sync_after:
                handle.sync()
            if phase.barrier_after:
                comm.barrier()
    finally:
        for lock in held:
            handle.unlock(lock)
    out.cache_hits = stats.hits - hits0
    out.cache_misses = stats.misses - misses0
    out.end_time = clock.now
    return out
