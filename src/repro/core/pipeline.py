"""The staged collective-I/O pipeline.

Every atomicity strategy in the paper follows the same hidden sequence:
exchange file views, analyse conflicts, schedule who transfers what when,
then execute the I/O.  This module makes that sequence explicit as four
composable stages, so a strategy is nothing but a particular configuration of
them — and it makes it explicit **once** for both directions: a collective
write and a collective read share every class below and differ only in the
plan's ``direction`` and in which directives their schedules set.

:class:`ViewExchange`
    Stage 1 (communication): ``allgather`` every rank's flattened file view —
    the handshaking step of Section 3.3.  Strategies that need no knowledge
    of their peers (byte-range locking, the non-atomic baseline) disable it
    and pay no negotiation cost.

:class:`ConflictAnalysis`
    Stage 2 (pure local computation): run the requested conflict-resolution
    algorithm on the exchanged views — the boolean overlap matrix plus greedy
    colouring (Section 3.3.1), or the exact rank-priority trimming
    (Section 3.3.2).  Every rank computes the identical result from the
    identical inputs, so no further communication is needed.

:class:`IOPlan` / :class:`PhasePlan` / :class:`TransferStep` / :class:`LockDirective`
    Stage 3 output: a *declarative* schedule of this rank's I/O — its
    direction, which byte ranges to lock (exclusive for writes, shared for
    reads), how many phases the collective operation has, and which
    ``(buffer, file, length)`` transfers happen in each phase, with per-phase
    cache / invalidate / sync / barrier behaviour.  Building the plan is the
    only part a strategy has to implement.

:class:`PlanRunner`
    Stage 4 (execution): walk an :class:`IOPlan` against a
    :class:`~repro.fs.client.ClientFileHandle`, acquire the scheduled locks,
    issue each phase's transfers as one batched write — or one batched read
    into the plan's named sink buffers — honour the invalidate, sync and
    barrier directives, and account everything into a
    :class:`~repro.core.strategies.IOOutcome`.

All strategies are expressed as compositions of these stages — see
:mod:`repro.core.strategies`.  Because a collective read may move fetched
bytes *between* ranks after the file I/O (the two-phase scatter), delivery of
the user stream is a strategy hook that runs after the runner — see
:meth:`repro.core.strategies.AtomicityStrategy.commit`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..fs.lockmanager import LockMode
from .engine import Steps, drive
from .coloring import ColoringResult, greedy_coloring
from .overlap import OverlapMatrix, build_overlap_matrix
from .rank_ordering import (
    HIGHER_RANK_WINS,
    PriorityPolicy,
    RankOrderingResult,
    resolve_by_rank,
)
from .regions import FileRegionSet

if TYPE_CHECKING:  # imported lazily to keep the package import graph acyclic
    from ..fs.client import ClientFileHandle
    from ..mpi.comm import Communicator

__all__ = [
    "ViewExchange",
    "ConflictAnalysis",
    "ConflictReport",
    "LockDirective",
    "TransferStep",
    "PhasePlan",
    "IOPlan",
    "PlanRunner",
    "USER_PAYLOAD",
]

#: Key of the rank's own data stream in a plan's buffer dictionary.
USER_PAYLOAD = "user"

#: How many recent collective operations the view/analysis caches remember.
#: One entry per concurrent collective is enough; a few more tolerate
#: interleaved experiments sharing a strategy instance.
_MEMO_ENTRIES = 4


class _SharedMemo:
    """A tiny LRU keyed by object identity, pinning keys alive.

    Within one collective operation every rank receives the *same* Python
    objects from the exchange (payloads travel by reference), so object
    identity is a constant-time fingerprint for "the same exchanged views".
    The memo stores a reference (``pin``) to the keyed objects, which keeps
    their ids stable — and therefore unique — for as long as the entry
    lives, so a key hit is guaranteed to mean "the very same objects".
    """

    def __init__(self, entries: int = _MEMO_ENTRIES) -> None:
        self.entries = entries
        self._slots: "OrderedDict[Any, Tuple[Any, Any]]" = OrderedDict()

    def get(self, key: Any) -> Optional[Any]:
        hit = self._slots.get(key)
        if hit is None:
            return None
        self._slots.move_to_end(key)
        return hit[1]

    def put(self, key: Any, pin: Any, value: Any) -> None:
        self._slots[key] = (pin, value)
        while len(self._slots) > self.entries:
            self._slots.popitem(last=False)


# ---------------------------------------------------------------------------
# Stage 1 — view exchange (communication layer)
# ---------------------------------------------------------------------------


class ViewExchange:
    """Collectively exchange every rank's flattened file view.

    ``enabled=False`` makes the stage a no-op (returns ``None``): the
    byte-range locking strategy and the non-atomic baseline coordinate
    through the file system, not through the communicator, and must not pay
    the negotiation cost of an ``allgather``.

    Every rank of one collective operation allgathers the *same* segment
    tuples (payloads travel by reference), so the stage builds the
    :class:`~repro.core.regions.FileRegionSet` list once and hands the same
    (read-only) list to all ranks — an O(P) identity-fingerprint lookup per
    rank instead of P regions rebuilt P times.  Building it validates
    nothing: each tuple is a region's already-validated ``segments``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._memo = _SharedMemo()

    def run(
        self, comm: "Communicator", region: FileRegionSet
    ) -> Optional[List[FileRegionSet]]:
        """Allgather the views; ``regions[i]`` is rank *i*'s view.

        The returned list is shared between the ranks of one collective —
        treat it as immutable.
        """
        if not self.enabled:
            return None
        all_segments = comm.allgather_shared(region.segments)
        key = id(all_segments)
        regions = self._memo.get(key)
        if regions is None:
            regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(all_segments)]
            self._memo.put(key, all_segments, regions)
        return regions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ViewExchange(enabled={self.enabled})"


# ---------------------------------------------------------------------------
# Stage 2 — conflict analysis (pure local computation)
# ---------------------------------------------------------------------------


@dataclass
class ConflictReport:
    """Everything stage 2 learned about the concurrent operation.

    Fields are ``None`` when the corresponding analysis was not requested;
    strategies read only what their scheduling needs.
    """

    regions: Optional[List[FileRegionSet]] = None
    overlap: Optional[OverlapMatrix] = None
    coloring: Optional[ColoringResult] = None
    ordering: Optional[RankOrderingResult] = None


class ConflictAnalysis:
    """Run a conflict-resolution algorithm on the exchanged views.

    ``mode`` selects the algorithm:

    * ``"none"`` — no analysis (locking / baseline);
    * ``"coloring"`` — overlap matrix + greedy colouring (Section 3.3.1);
    * ``"rank-order"`` — exact priority trimming (Section 3.3.2).  Also used
      by the two-phase strategy, whose per-byte winner is the same
      highest-priority covering rank.
    """

    MODES = ("none", "coloring", "rank-order")

    def __init__(
        self,
        mode: str = "none",
        policy: PriorityPolicy = HIGHER_RANK_WINS,
        order: Optional[Sequence[int]] = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown analysis mode {mode!r}; known: {self.MODES}")
        self.mode = mode
        self.policy = policy
        self.order = order
        self._memo = _SharedMemo()

    def run(self, regions: Optional[Sequence[FileRegionSet]]) -> ConflictReport:
        """Analyse ``regions`` (the stage-1 output) deterministically.

        Every rank computes the identical result from the identical inputs,
        so when the ranks of one collective pass the shared regions list
        from :class:`ViewExchange`, the analysis runs once and the products
        (matrix, colouring, ordering) are shared — this is what makes the
        O(P^2)-ish negotiation algorithms affordable at thousands of ranks.
        """
        # Hand the shared stage-1 list through as-is: copying it per rank is
        # O(P) references per rank — O(P^2) per collective — for no benefit,
        # since the report is read-only downstream.
        if regions is not None and not isinstance(regions, list):
            regions = list(regions)
        report = ConflictReport(regions=regions)
        if self.mode == "none" or regions is None:
            return report
        # Fingerprint every view by identity: the region objects are shared
        # between the ranks of one collective even when the list holding
        # them was copied, and two lists differing in any element must not
        # share an analysis.
        pin = tuple(regions)
        key = tuple(map(id, pin))
        products = self._memo.get(key)
        if products is None:
            if self.mode == "coloring":
                overlap = build_overlap_matrix(regions)
                products = (overlap, greedy_coloring(overlap, order=self.order), None)
            else:  # rank-order
                products = (None, None, resolve_by_rank(regions, policy=self.policy))
            self._memo.put(key, pin, products)
        report.overlap, report.coloring, report.ordering = products
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConflictAnalysis(mode={self.mode!r})"


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
    the provenance recorded by the file system — an aggregator writing *on
    behalf of* the rank whose data won the conflict resolution; reads record
    no provenance and ignore it.
    """

    buffer_offset: int
    file_offset: int
    length: int
    buffer: str = USER_PAYLOAD
    writer: Optional[int] = None


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
    both drivers — :class:`PlanRunner` drives it on the engine, the bulk
    sweep (:mod:`repro.core.bulk`) advances one per replayed rank.
    """
    steps = phase.steps
    if direction == "write":
        out.bytes_moved += yield from handle.write_batch_steps(
            (
                (
                    s.file_offset,
                    buffers[s.buffer][s.buffer_offset : s.buffer_offset + s.length],
                    s.writer,
                )
                for s in steps
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
    out.segments_moved += len(steps)


class PlanRunner:
    """Execute an :class:`IOPlan` against a client file handle.

    The runner is strategy-agnostic: every behavioural difference between the
    strategies — and between the directions, up to the transfer call itself —
    is encoded in the plan it receives.  Locks are acquired before the first
    phase and released after the last (or on error, including an error while
    a later lock of the same plan is being acquired); each phase optionally
    invalidates the client cache, issues its steps as one batched transfer,
    then honours its sync and barrier directives.
    """

    def execute(
        self,
        comm: Communicator,
        handle: ClientFileHandle,
        plan: IOPlan,
        buffers: Dict[str, Any],
        start_time: Optional[float] = None,
    ) -> "IOOutcome":
        """Run ``plan`` against ``buffers``, the named memory side of its steps.

        A write draws each step's bytes from ``buffers[step.buffer]``; a read
        lands them there, so a read's ``buffers`` are the plan's
        :meth:`~IOPlan.sinks` — delivery of the user stream (which may
        involve communication, e.g. the two-phase scatter) is the strategy's
        job.  ``start_time`` backdates the outcome to when the pipeline
        started (stage 1), so the negotiation cost is part of the measured
        time just as in the monolithic implementations.
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
