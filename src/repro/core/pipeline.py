"""The staged collective-write pipeline.

Every atomicity strategy in the paper follows the same hidden sequence:
exchange file views, analyse conflicts, schedule who writes what when, then
execute the I/O.  This module makes that sequence explicit as four composable
stages, so a strategy is nothing but a particular configuration of them:

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

:class:`WritePlan` / :class:`PhasePlan` / :class:`WriteStep` / :class:`LockDirective`
    Stage 3 output: a *declarative* schedule of this rank's I/O — which byte
    ranges to lock, how many phases the collective operation has, and which
    ``(buffer, file, length)`` transfers happen in each phase, with per-phase
    cache/sync/barrier behaviour.  Building the plan is the only part a
    strategy has to implement.

:class:`PhaseRunner`
    Stage 4 (execution): walk a :class:`WritePlan` against a
    :class:`~repro.fs.client.ClientFileHandle`, acquire the scheduled locks,
    issue each phase's transfers as one batched write, honour the sync and
    barrier directives, and account everything into a
    :class:`~repro.core.strategies.WriteOutcome`.

The legacy strategies (locking, graph-coloring, rank-ordering) and the
two-phase aggregation strategy are all expressed as compositions of these
stages — see :mod:`repro.core.strategies`.

The **read pipeline** mirrors the write pipeline with the data flowing the
other way: stages 1 and 2 are shared unchanged (the exchange and the
analysis do not care about the transfer direction), stage 3 produces a
:class:`ReadPlan` — :class:`ReadStep` transfers grouped into
:class:`ReadPhasePlan` phases, with shared-mode :class:`LockDirective` locks
and per-phase cache-invalidation directives instead of sync directives —
and stage 4 is the :class:`ReadRunner`, which fetches each step into a named
*sink* buffer and accounts everything into a
:class:`~repro.core.strategies.ReadOutcome`.  Because a collective read may
move fetched bytes *between* ranks after the file I/O (the two-phase scatter),
delivery of the user stream is a strategy hook that runs after the runner —
see :meth:`repro.core.strategies.PipelineStrategy.execute_read`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..fs.lockmanager import LockMode
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
    "WriteStep",
    "PhasePlan",
    "WritePlan",
    "PhaseRunner",
    "ReadStep",
    "ReadPhasePlan",
    "ReadPlan",
    "ReadRunner",
    "USER_PAYLOAD",
]

#: Key of the rank's own data stream in a plan's payload dictionary.
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
    rank instead of P regions rebuilt P times.
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
# Stage 3 — the declarative write schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockDirective:
    """One byte-range lock to hold for the duration of the plan."""

    start: int
    stop: int
    mode: str = LockMode.EXCLUSIVE

    @property
    def length(self) -> int:
        """Bytes covered by the lock."""
        return self.stop - self.start


@dataclass(frozen=True)
class WriteStep:
    """One contiguous transfer: payload bytes → file bytes.

    ``source`` names the payload buffer the bytes come from (``"user"`` for
    the rank's own data stream; the two-phase strategy adds an aggregation
    buffer).  ``writer`` optionally overrides the provenance recorded by the
    file system — an aggregator writing *on behalf of* the rank whose data
    won the conflict resolution.
    """

    buffer_offset: int
    file_offset: int
    length: int
    source: str = USER_PAYLOAD
    writer: Optional[int] = None


@dataclass
class PhasePlan:
    """The I/O this rank performs in one phase of the collective write."""

    index: int
    steps: List[WriteStep] = field(default_factory=list)
    #: Bypass the client cache (the behaviour of writes under a lock).
    direct: bool = False
    #: Flush write-behind data after the phase's transfers (``MPI_File_sync``).
    sync_after: bool = False
    #: Synchronise with every other rank before the next phase may begin.
    barrier_after: bool = False

    @property
    def bytes_scheduled(self) -> int:
        """Total payload bytes this phase transfers."""
        return sum(s.length for s in self.steps)


@dataclass
class WritePlan:
    """A complete declarative schedule for one rank's collective write."""

    strategy: str
    rank: int
    bytes_requested: int
    phases: List[PhasePlan] = field(default_factory=list)
    locks: List[LockDirective] = field(default_factory=list)
    my_phase: int = 0
    colors_used: int = 0
    bytes_surrendered: int = 0
    #: Override for the reported phase count when the logical phase structure
    #: differs from the plan's I/O phases (two-phase I/O reports its shuffle
    #: phase even though only the write phase performs file I/O).
    reported_phases: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def num_phases(self) -> int:
        """Phase count reported in the outcome (at least 1)."""
        if self.reported_phases is not None:
            return self.reported_phases
        return max(len(self.phases), 1)

    @property
    def bytes_scheduled(self) -> int:
        """Total payload bytes scheduled across all phases."""
        return sum(p.bytes_scheduled for p in self.phases)


# ---------------------------------------------------------------------------
# Stage 3 (read side) — the declarative read schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadStep:
    """One contiguous transfer: file bytes → a named sink buffer.

    ``sink`` names the buffer the fetched bytes land in (``"user"`` for the
    rank's own data stream; the two-phase read strategy fills an aggregation
    sink it later scatters to the consumers).
    """

    buffer_offset: int
    file_offset: int
    length: int
    sink: str = USER_PAYLOAD


@dataclass
class ReadPhasePlan:
    """The I/O this rank performs in one phase of the collective read."""

    index: int
    steps: List[ReadStep] = field(default_factory=list)
    #: Bypass the client cache (the behaviour of reads under a lock).
    direct: bool = False
    #: Drop cached pages before the phase's transfers, so they observe data
    #: that peers flushed since the pages were cached (the invalidate half of
    #: the paper's handshaking protocol; the cache flushes its own dirty
    #: pages first — sync-then-invalidate).
    invalidate_before: bool = False
    #: Synchronise with every other rank before the next phase may begin.
    barrier_after: bool = False

    @property
    def bytes_scheduled(self) -> int:
        """Total file bytes this phase fetches."""
        return sum(s.length for s in self.steps)


@dataclass
class ReadPlan:
    """A complete declarative schedule for one rank's collective read."""

    strategy: str
    rank: int
    bytes_requested: int
    phases: List[ReadPhasePlan] = field(default_factory=list)
    #: Byte-range locks held for the duration of the plan; read schedules use
    #: shared mode so concurrent readers coexist while conflicting writers
    #: (exclusive mode) still serialise against them.
    locks: List[LockDirective] = field(default_factory=list)
    my_phase: int = 0
    colors_used: int = 0
    #: Override for the reported phase count (the two-phase read reports its
    #: scatter phase even though only the read phase performs file I/O).
    reported_phases: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def num_phases(self) -> int:
        """Phase count reported in the outcome (at least 1)."""
        if self.reported_phases is not None:
            return self.reported_phases
        return max(len(self.phases), 1)

    @property
    def bytes_scheduled(self) -> int:
        """Total file bytes scheduled across all phases."""
        return sum(p.bytes_scheduled for p in self.phases)

    def sink_sizes(self) -> Dict[str, int]:
        """Required size of each sink buffer (max step end per sink)."""
        sizes: Dict[str, int] = {}
        for phase in self.phases:
            for step in phase.steps:
                end = step.buffer_offset + step.length
                if end > sizes.get(step.sink, 0):
                    sizes[step.sink] = end
        return sizes

    def sinks(self) -> Dict[str, bytearray]:
        """Fresh zeroed sink buffers for one execution of the plan."""
        return {name: bytearray(size) for name, size in self.sink_sizes().items()}


# ---------------------------------------------------------------------------
# Stage 4 — plan execution
# ---------------------------------------------------------------------------


class PhaseRunner:
    """Execute a :class:`WritePlan` against a client file handle.

    The runner is strategy-agnostic: every behavioural difference between the
    strategies is encoded in the plan it receives.  Locks are acquired before
    the first phase and released after the last (or on error); each phase's
    steps go to the file system as one batched write.
    """

    def execute(
        self,
        comm: Communicator,
        handle: ClientFileHandle,
        plan: WritePlan,
        payloads: Dict[str, bytes],
        start_time: Optional[float] = None,
    ) -> "WriteOutcome":
        """Run ``plan``, drawing step data from ``payloads``.

        ``start_time`` backdates the outcome to when the pipeline started
        (stage 1), so the negotiation cost is part of the measured time just
        as in the monolithic implementations.
        """
        from .strategies import WriteOutcome  # local import: avoids a cycle

        out = WriteOutcome.from_plan(
            plan, handle.clock.now if start_time is None else start_time
        )
        held = []
        for directive in plan.locks:
            held.append(handle.lock(directive.start, directive.stop, mode=directive.mode))
            out.locks_acquired += 1
        try:
            for phase in plan.phases:
                if phase.steps:
                    batch = [
                        (
                            step.file_offset,
                            payloads[step.source][
                                step.buffer_offset : step.buffer_offset + step.length
                            ],
                            step.writer,
                        )
                        for step in phase.steps
                    ]
                    out.bytes_written += handle.write_batch(batch, direct=phase.direct)
                    out.segments_written += len(batch)
                if phase.sync_after:
                    handle.sync()
                if phase.barrier_after:
                    comm.barrier()
        finally:
            for lock in held:
                handle.unlock(lock)
        out.end_time = handle.clock.now
        return out


class ReadRunner:
    """Execute a :class:`ReadPlan` against a client file handle.

    Strategy-agnostic, like :class:`PhaseRunner`: locks (shared mode for
    reads) are acquired before the first phase and released after the last;
    each phase optionally invalidates the client cache first, then issues its
    steps as one batched read whose results land in the named sink buffers.
    Returns the :class:`~repro.core.strategies.ReadOutcome` plus the filled
    sinks — delivery of the user stream (which may involve communication,
    e.g. the two-phase scatter) is the strategy's job.
    """

    def execute(
        self,
        comm: Communicator,
        handle: ClientFileHandle,
        plan: ReadPlan,
        start_time: Optional[float] = None,
    ) -> Tuple["ReadOutcome", Dict[str, bytearray]]:
        """Run ``plan``; returns ``(outcome, sinks)``.

        ``start_time`` backdates the outcome to when the pipeline started
        (stage 1), so the negotiation cost is part of the measured time.
        """
        from .strategies import ReadOutcome  # local import: avoids a cycle

        out = ReadOutcome.from_plan(
            plan, handle.clock.now if start_time is None else start_time
        )
        sinks = plan.sinks()
        stats = handle.cache.stats
        hits0, misses0 = stats.hits, stats.misses
        clock = handle.clock
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
                    fetched = handle.read_batch(
                        [(s.file_offset, s.length) for s in phase.steps],
                        direct=phase.direct,
                    )
                    for step, data in zip(phase.steps, fetched):
                        sinks[step.sink][
                            step.buffer_offset : step.buffer_offset + len(data)
                        ] = data
                        out.bytes_read += len(data)
                    out.segments_read += len(phase.steps)
                if phase.barrier_after:
                    comm.barrier()
        finally:
            for lock in held:
                handle.unlock(lock)
        out.cache_hits = stats.hits - hits0
        out.cache_misses = stats.misses - misses0
        out.end_time = clock.now
        return out, sinks
