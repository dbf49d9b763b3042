"""MPI-atomicity implementation strategies (Section 3 of the paper).

Each strategy turns one rank's share of a *concurrent overlapping write*
into a sequence of file system operations such that the MPI atomic-mode
guarantee holds: every byte of every overlapped region ends up containing
data from exactly one of the participating processes.

All strategies are expressed through the staged collective-I/O pipeline
(:mod:`repro.core.pipeline`): whether they exchange views
(``exchanges_views``), and the per-direction *policy* — a ``schedule`` method
(writes) and a ``schedule_read`` / ``deliver_read`` pair (reads) that turn
the products of the collective's shared region list (a colouring, a trim, a
negotiation, each built once by ``regions.once``) into a declarative
:class:`~repro.core.pipeline.IOPlan`.  Everything else is written once for
both directions: :meth:`AtomicityStrategy.prepare` runs stages 1–3 into a
:class:`PreparedIO`, :meth:`AtomicityStrategy.commit` hands the plan to
:func:`~repro.core.pipeline.run_plan`, and the accounting lands in one
:class:`IOOutcome`.  Adding a strategy means writing a ``schedule`` method
and registering the class — see ``ARCHITECTURE.md`` for a worked example.

The aggregation strategies communicate *inside* their schedule (the shuffle
of a write, the scatter of a read).  That schedule is written once, for
every topology, as per-rank generator coroutines
(:meth:`TwoPhaseStrategy.shuffle` / :meth:`TwoPhaseStrategy.scatter`) that
yield the ``{dest: payload}`` dict of a sparse all-to-all and are resumed
with the ``[(src, payload)]`` pairs they received.  It has two drivers: on
the engine, ``schedule`` / ``deliver_read`` pump it against the communicator
(:func:`_pump`); at scale, :mod:`repro.core.bulk` advances all ``P``
coroutines in lockstep with no engine at all.

Implemented strategies:

:class:`NoAtomicityStrategy`
    The baseline (MPI non-atomic mode): each contiguous segment becomes an
    independent POSIX write.  Overlapped regions may end up interleaved —
    this is the failure mode of Figure 2 that motivates the paper.

:class:`LockingStrategy`
    Byte-range file locking (Section 3.2, the ROMIO approach): lock the whole
    extent of the process's file view, write every segment directly to the
    servers, unlock.  Correct on any file system with byte-range locks, but
    for the column-wise pattern the extent is nearly the whole file, so the
    concurrent writes serialise.

:class:`GraphColoringStrategy`
    Process handshaking via graph colouring (Section 3.3.1): exchange file
    views, build the boolean overlap matrix, greedily colour it, and perform
    the I/O in one phase per colour with barriers in between, flushing
    (``sync``) after the writes of each phase.

:class:`RankOrderingStrategy`
    Process-rank ordering (Section 3.3.2): exchange file views, give every
    overlapped byte to the highest-ranked writer, trim lower-ranked views,
    and let all processes write their now-disjoint regions fully in parallel.

:class:`TwoPhaseStrategy`
    Two-phase aggregation (ROMIO-style collective buffering): elect
    aggregator ranks, shuffle every rank's data to the aggregator owning the
    corresponding file-domain chunk (resolving overlaps by the rank-ordering
    priority rule during the merge), then write the disjoint aggregated
    extents fully in parallel.

:class:`HierarchicalTwoPhaseStrategy`
    The same schedule on nodes of several ranks (``cb_ppn``): data crosses a
    node hop — to or from the node's leader — beside the global one.  Flat
    two-phase is the case of one rank per node, where that hop vanishes.

All strategies are *collective over the communicator*: every rank of the
concurrent operation must call :meth:`AtomicityStrategy.execute_write`.

Every strategy also implements the **collective read** side
(:meth:`AtomicityStrategy.execute_read`) through the same pipeline, with a
``direction="read"`` plan:

* ``none`` / ``graph-coloring`` / ``rank-ordering`` — invalidate the client
  cache (sync-then-invalidate, the paper's protocol for observing peers'
  flushed writes), then read the full view through the cache in one fully
  parallel phase; reads commute with reads, so no coloring phases or view
  trimming are needed — serialisation against conflicting *writers* comes
  from the cache protocol (their sync-after-write, our invalidate-before-read).
* ``locking`` — a *shared-mode* byte-range lock over the view extent, then
  direct reads: concurrent readers coexist while conflicting exclusive
  writers serialise against them.
* ``two-phase`` — aggregators read their disjoint file-domain chunks *once*
  (direct, no cache invalidation — resident pages stay warm), then scatter
  every consumer's pieces through a sparse all-to-all; an overlapped byte
  costs one server read no matter how many ranks request it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from weakref import WeakValueDictionary
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..fs.lockmanager import LockMode
from .aggregation import (
    QueryBatch,
    ReadRoutes,
    WriteRoutes,
    _placed,
    choose_node_aggregators,
    delivered,
    joined,
    partition_domain,
    stream_order,
)
from .coloring import ColoringResult, greedy_coloring
from .intervals import IntervalSet, merge_interval_sets
from .overlap import _check_rank_order, _interval_runs, build_overlap_matrix
from .pipeline import (
    IOPlan,
    LockDirective,
    PhasePlan,
    TransferStep,
    USER_PAYLOAD,
    exchange_views,
    run_plan,
)
from .rank_ordering import (
    HIGHER_RANK_WINS,
    PriorityPolicy,
    resolve_by_rank,
)
from .regions import FileRegionSet
from .registry import register_strategy

if TYPE_CHECKING:  # imported lazily to keep the package import graph acyclic
    from ..fs.client import ClientFileHandle
    from ..mpi.comm import Communicator, SharedList
    from .autotune import TuningDecision

__all__ = [
    "IOOutcome",
    "PreparedIO",
    "AtomicityStrategy",
    "NoAtomicityStrategy",
    "LockingStrategy",
    "GraphColoringStrategy",
    "RankOrderingStrategy",
    "TwoPhaseStrategy",
    "HierarchicalTwoPhaseStrategy",
]

#: Payload key of the merged aggregation buffer in a two-phase plan.
AGGREGATE_PAYLOAD = "aggregate"


@dataclass
class IOOutcome:
    """Per-rank accounting of one strategy execution, in either direction.

    ``bytes_requested`` is the volume the rank's view covers;
    ``bytes_moved`` / ``segments_moved`` what this rank actually transferred
    to or from the file system — smaller than the request when rank ordering
    surrenders overlapped bytes (``bytes_surrendered``) or an aggregation
    strategy moves each overlapped byte once on some other rank;
    ``bytes_shuffled`` the volume this rank sent to *other* ranks in a
    shuffle (write) or scatter (read) phase; ``bytes_returned`` the length of
    the stream a read delivered (0 for a write).
    """

    strategy: str
    rank: int
    bytes_requested: int = 0
    bytes_moved: int = 0
    bytes_returned: int = 0
    bytes_surrendered: int = 0
    bytes_shuffled: int = 0
    segments_moved: int = 0
    locks_acquired: int = 0
    lock_wait_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    invalidations: int = 0
    phases: int = 1
    my_phase: int = 0
    colors_used: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_plan(cls, plan: IOPlan, start_time: float) -> "IOOutcome":
        """A fresh outcome carrying ``plan``'s bookkeeping — what every
        executor of the plan (:func:`run_plan`, the bulk sweep) accounts into."""
        return cls(
            strategy=plan.strategy,
            rank=plan.rank,
            bytes_requested=plan.bytes_requested,
            bytes_surrendered=plan.bytes_surrendered,
            bytes_shuffled=plan.bytes_shuffled,
            phases=plan.num_phases,
            my_phase=plan.my_phase,
            colors_used=plan.colors_used,
            start_time=start_time,
            extra=dict(plan.extra),
        )


@dataclass
class PreparedIO:
    """Stage-3 output of a collective operation, ready for execution.

    Produced by :meth:`AtomicityStrategy.prepare` (view exchange, conflict
    analysis, scheduling — everything that needs the *data* and the peers),
    consumed by :meth:`AtomicityStrategy.commit` (the file I/O and, for a
    read, the delivery).  The split is what the split-collective API pins
    down: ``begin`` runs the exchange, ``end`` (or a detached progress task
    in between) the commit.  The region and the shared region list ride
    along because read delivery may need them — the two-phase scatter routes
    pieces with the negotiation built on the list.
    """

    plan: IOPlan
    region: FileRegionSet
    #: The collective's shared region list; ``None`` when the strategy
    #: exchanges no views.
    regions: Optional["SharedList"]
    #: The named memory side of the plan's steps: the payloads a write draws
    #: from, the (still zeroed) sinks a read fills.
    buffers: Dict[str, Any]
    start_time: float
    #: Set by ``auto``, in both directions: the tuning decision whose
    #: delegate strategy built the plan and owns its commit.
    decision: Optional["TuningDecision"] = None


class AtomicityStrategy(ABC):
    """An MPI-atomicity implementation strategy, as a staged-pipeline
    composition.

    Subclasses say whether they exchange views (``exchanges_views``) and
    implement :meth:`schedule`, which turns the shared region list — or
    rather the one product of it the strategy reads — into a declarative
    :class:`~repro.core.pipeline.IOPlan` plus the payload buffers its steps
    draw from.  Everything around it — :meth:`prepare`, :meth:`commit`,
    :func:`~repro.core.pipeline.run_plan`, the outcome — is shared, by every
    strategy and by both directions.

    What a collective read adds is policy only: :meth:`schedule_read` builds
    the ``direction="read"`` plan from the same (direction-agnostic) region
    list, and :meth:`deliver_read` turns the sinks :func:`run_plan` filled into
    the rank's contiguous data stream — a hook because delivery may involve
    communication (the two-phase scatter).  The default pair — invalidate,
    then read the full view through the cache in one parallel phase — is
    correct for any strategy, so registering a new write strategy yields a
    working collective read for free.
    """

    #: Short machine-readable identifier (used by the registry and harness).
    name: str = "abstract"
    #: Whether the strategy guarantees the MPI atomic-mode outcome.
    provides_atomicity: bool = True
    #: Whether the strategy needs byte-range locks from the file system.
    requires_locks: bool = False

    #: Whether :meth:`prepare` allgathers every rank's view first (stage 1,
    #: :func:`~repro.core.pipeline.exchange_views`).  Byte-range locking and
    #: the non-atomic baseline coordinate through the file system and must
    #: not pay the negotiation cost; their schedules receive ``None``.
    exchanges_views = False
    #: Whether transfers go through the client cache; rank ordering shadows
    #: it per instance (its ``use_cache`` constructor argument).
    use_cache = True

    def bind_context(self, fs, filename: str) -> None:
        """Associate the strategy with the file it will drive.

        Called once by every consumer that knows the file (the MPI-IO layer,
        the executors, the job scheduler).  A no-op here; the adaptive tuner
        overrides it to learn the machine model and the per-file record.
        """

    def prepare(
        self,
        comm: Communicator,
        region: FileRegionSet,
        start_time: float,
        data: Optional[bytes] = None,
    ) -> PreparedIO:
        """Stages 1–3 of a collective operation: exchange, analyse, schedule.

        ``data`` is the stream to write; ``None`` prepares a read.
        Collective over ``comm`` (the exchange — and, for a two-phase write,
        the shuffle inside :meth:`schedule` — rendezvous there); performs no
        file I/O, so the result can be committed later, on a different
        clock, by :meth:`commit`.  ``start_time`` backdates the eventual
        outcome to when the operation logically began.

        Before preparing a read the caller must have flushed its own
        write-behind data (``handle.sync()``): two-phase aggregators read
        directly from the servers on every rank's behalf, and they may start
        the moment the exchange completes.
        """
        if data is not None:
            self._check_request(region, data)
        regions = exchange_views(comm, region) if self.exchanges_views else None
        return self._scheduled(comm, region, start_time, data, regions)

    def _scheduled(
        self,
        comm: Communicator,
        region: FileRegionSet,
        start_time: float,
        data: Optional[bytes],
        regions: Optional[SharedList],
    ) -> PreparedIO:
        """Stage 3: this strategy's plan for ``regions``, with its buffers."""
        if data is None:
            plan = self.schedule_read(comm, region, regions)
            buffers = plan.sinks()
        else:
            plan, buffers = self.schedule(comm, region, data, regions)
        return PreparedIO(
            plan=plan, region=region, regions=regions, buffers=buffers, start_time=start_time
        )

    def commit(
        self, comm: Communicator, handle: ClientFileHandle, prepared: PreparedIO
    ) -> Tuple[Optional[bytes], IOOutcome]:
        """Stage 4: run the prepared plan's file I/O; a read then delivers.

        Returns ``(data, outcome)`` — ``data`` is the stream a read
        delivered, ``None`` for a write.  Collective over ``comm`` when the
        plan contains barrier directives (graph colouring) or the delivery
        communicates (the two-phase scatter); ``comm`` and ``handle`` may
        belong to a detached progress task rather than the rank's main task.
        """
        outcome = run_plan(
            comm, handle, prepared.plan, prepared.buffers, start_time=prepared.start_time
        )
        if prepared.plan.direction == "write":
            return None, outcome
        data = self.deliver_read(
            comm, prepared.region, prepared.regions, outcome, prepared.buffers
        )
        # Delivery may communicate; the outcome covers it.
        outcome.end_time = handle.clock.now
        outcome.bytes_returned = len(data)
        return data, outcome

    def execute_write(
        self,
        comm: Communicator,
        handle: ClientFileHandle,
        region: FileRegionSet,
        data: bytes,
    ) -> IOOutcome:
        """Perform this rank's part of the concurrent overlapping write.

        Parameters
        ----------
        comm:
            Communicator of the participating processes (collective call).
        handle:
            The rank's open file handle.
        region:
            The rank's flattened file view for this request.
        data:
            The contiguous data stream; ``len(data)`` must equal
            ``region.total_bytes``.
        """
        prepared = self.prepare(comm, region, handle.clock.now, data)
        return self.commit(comm, handle, prepared)[1]

    def execute_read(
        self,
        comm: Communicator,
        handle: ClientFileHandle,
        region: FileRegionSet,
    ) -> Tuple[bytes, IOOutcome]:
        """Perform this rank's part of a collective read.

        Returns ``(data, outcome)`` where ``data`` is the rank's contiguous
        data stream (``region.total_bytes`` bytes, in view order).  Collective
        over the communicator, like :meth:`execute_write`.
        """
        start_time = handle.clock.now
        # Push this rank's own write-behind data to the servers before any
        # read I/O happens — its own direct reads (locking), an aggregator's
        # read on its behalf (two-phase, whose fetches only start after the
        # exchange rendezvous below, i.e. after every rank has flushed), or
        # its own cached reads.  Without this, a direct read would return
        # the servers' stale bytes for data this very rank wrote.
        handle.sync()
        return self.commit(comm, handle, self.prepare(comm, region, start_time))

    @abstractmethod
    def schedule(
        self,
        comm: Communicator,
        region: FileRegionSet,
        data: bytes,
        regions: Optional[SharedList],
    ) -> Tuple[IOPlan, Dict[str, bytes]]:
        """Build this rank's write plan.

        ``regions`` is the collective's shared region list (``None`` unless
        the strategy exchanges views); ask it for the product the schedule
        reads with ``regions.once(key, build)``, so the ranks build it once.
        """

    def schedule_read(
        self,
        comm: Communicator,
        region: FileRegionSet,
        regions: Optional[SharedList],
    ) -> IOPlan:
        """Build this rank's read plan (``regions`` as in :meth:`schedule`).

        Default schedule: drop cached pages that peers may have overwritten
        (sync-then-invalidate), then read the full view through the cache in
        one fully parallel phase.  Reads commute with reads, so no strategy
        needs phases or trimming for correctness; strategies override this to
        trade the invalidation and the per-rank read amplification away.
        """
        phase = PhasePlan(
            index=0,
            steps=self._steps(region.buffer_map()),
            direct=not self.use_cache,
            invalidate_before=True,
        )
        return self._plan("read", region, phases=[phase])

    def deliver_read(
        self,
        comm: Communicator,
        region: FileRegionSet,
        regions: Optional[SharedList],
        outcome: IOOutcome,
        sinks: Dict[str, bytearray],
    ) -> bytes:
        """Turn the sinks :func:`run_plan` filled into the rank's data stream."""
        return bytes(sinks.get(USER_PAYLOAD, bytearray()))

    def _plan(self, direction: str, region: FileRegionSet, **kwargs) -> IOPlan:
        """A fresh plan pre-filled with the request bookkeeping."""
        return IOPlan(
            direction=direction,
            strategy=self.name,
            rank=region.rank,
            bytes_requested=region.total_bytes,
            **kwargs,
        )

    @staticmethod
    def _steps(
        buffer_map: Sequence[Tuple[int, int, int]], buffer: str = USER_PAYLOAD
    ) -> List[TransferStep]:
        """Turn a region buffer map into transfer steps on ``buffer``."""
        return [
            TransferStep(buffer_offset=buf, file_offset=off, length=length, buffer=buffer)
            for buf, off, length in buffer_map
        ]

    @staticmethod
    def _check_request(region: FileRegionSet, data: bytes) -> None:
        if len(data) != region.total_bytes:
            raise ValueError(
                f"data stream has {len(data)} bytes but the file view covers "
                f"{region.total_bytes} bytes"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@register_strategy
class NoAtomicityStrategy(AtomicityStrategy):
    """MPI non-atomic mode: uncoordinated per-segment POSIX writes."""

    name = "none"
    provides_atomicity = False

    def schedule(self, comm, region, data, regions):  # noqa: D102 - see base
        phase = PhasePlan(index=0, steps=self._steps(region.buffer_map()), sync_after=True)
        return self._plan("write", region, phases=[phase]), {USER_PAYLOAD: data}


@register_strategy
class LockingStrategy(AtomicityStrategy):
    """Byte-range file locking over the whole file-view extent (Section 3.2)."""

    name = "locking"
    requires_locks = True

    def schedule(self, comm, region, data, regions):  # noqa: D102 - see base
        if region.is_empty():
            return self._plan("write", region), {USER_PAYLOAD: data}
        extent = region.extent()
        # The lock must span from the first to the last byte the process will
        # write; locking each segment individually is NOT sufficient for MPI
        # atomicity (Section 3.2 / tests.test_incorrect_per_segment_locking).
        plan = self._plan(
            "write",
            region,
            locks=[LockDirective(extent.start, extent.stop)],
            phases=[PhasePlan(index=0, steps=self._steps(region.buffer_map()), direct=True)],
            extra={"locked_bytes": float(extent.length)},
        )
        return plan, {USER_PAYLOAD: data}

    def schedule_read(self, comm, region, regions):  # noqa: D102 - see base
        if region.is_empty():
            return self._plan("read", region)
        extent = region.extent()
        # Shared mode: concurrent readers are granted together; only a
        # conflicting exclusive (writer) lock serialises against us.  Reads
        # under the lock go direct (and the pipeline already flushed this
        # rank's dirty pages), so no cache invalidation is needed and
        # resident pages stay warm for later unlocked reads.
        return self._plan(
            "read",
            region,
            locks=[LockDirective(extent.start, extent.stop, mode=LockMode.SHARED)],
            phases=[PhasePlan(index=0, steps=self._steps(region.buffer_map()), direct=True)],
            extra={"locked_bytes": float(extent.length)},
        )


@register_strategy
class GraphColoringStrategy(AtomicityStrategy):
    """Process handshaking by graph colouring (Section 3.3.1).

    Reads commute with reads: the colouring resolves write-write conflicts
    only, so a read builds no colouring and takes the default read plan —
    invalidate, then one fully parallel phase through the cache.  The
    invalidation is the read half of the paper's protocol: writers of a
    conflicting operation flushed (sync-after-write), so stale pages must go.
    """

    name = "graph-coloring"
    exchanges_views = True

    @staticmethod
    def coloring(regions: SharedList) -> ColoringResult:
        """The collective's greedy colouring of its overlap graph, built once
        on the shared region list."""
        return regions.once("coloring", lambda: greedy_coloring(build_overlap_matrix(regions)))

    def schedule(self, comm, region, data, regions):  # noqa: D102 - see base
        coloring = self.coloring(regions)
        my_color = coloring.color_of(region.rank)
        steps = [] if region.is_empty() else self._steps(region.buffer_map())
        phases = []
        for step in range(max(coloring.num_colors, 1)):
            mine = step == my_color and bool(steps)
            phases.append(
                PhasePlan(
                    index=step,
                    steps=steps if mine else [],
                    # Flush write-behind data so the next colour's processes
                    # (and later readers) observe it — the file-sync the paper
                    # requires after every write when handshaking replaces
                    # locking.
                    sync_after=mine,
                    # No process of colour step+1 may start before colour
                    # step finishes.
                    barrier_after=True,
                )
            )
        plan = self._plan(
            "write",
            region,
            phases=phases,
            my_phase=my_color,
            colors_used=coloring.num_colors,
        )
        return plan, {USER_PAYLOAD: data}


@register_strategy
class RankOrderingStrategy(AtomicityStrategy):
    """Process-rank ordering (Section 3.3.2): high rank wins, others trim."""

    name = "rank-ordering"
    exchanges_views = True

    def __init__(self, policy: PriorityPolicy = HIGHER_RANK_WINS, use_cache: bool = True) -> None:
        self.policy = policy
        self.use_cache = use_cache

    def schedule(self, comm, region, data, regions):  # noqa: D102 - see base
        # Every rank trims against the same resolution, built once on the
        # shared region list.
        resolution = regions.once(
            ("rank-order", self.policy), lambda: resolve_by_rank(regions, policy=self.policy)
        )
        # Write only the bytes this rank still owns; the data for surrendered
        # bytes is simply not transferred (reducing the total I/O volume).
        phase = PhasePlan(
            index=0,
            steps=self._steps(region.buffer_map_restricted(resolution.kept[region.rank])),
            direct=not self.use_cache,
            sync_after=True,
        )
        plan = self._plan(
            "write",
            region,
            phases=[phase],
            bytes_surrendered=resolution.surrendered_bytes[region.rank],
        )
        return plan, {USER_PAYLOAD: data}


@dataclass(eq=False)
class Negotiation:
    """What the ranks of one aggregation collective agree on without talking.

    Election and file-domain partitioning are pure functions of the
    exchanged views and one strategy's tunables, its policy among them, so
    they are computed once per collective (:meth:`TwoPhaseStrategy.negotiation`)
    and this one record, which holds no region, is handed read-only to every
    rank's coroutines.  It carries every table sized by ``P`` or by the
    aggregator count, so a rank's own work stays proportional to its traffic.
    """

    size: int
    #: Ranks per node of the strategy that negotiated (block placement).
    ranks_per_node: int
    #: The priority policy the aggregators' merge follows.
    policy: PriorityPolicy
    aggregators: List[int]
    #: The piece table, four int64 columns ``(start, stop, aggregator,
    #: sink)``: the covered domain cut at the aggregators' chunks, in file
    #: order (so ``aggregator`` is non-decreasing); piece ``j`` is file bytes
    #: ``[start[j], stop[j])`` of ``aggregator[j]``, at ``sink[j]`` of its read
    #: sink, where an aggregator's pieces lie back to back.
    pieces: np.ndarray
    #: Each aggregator's ``(first, last)`` pieces — its chunk.
    chunks: Dict[int, Tuple[int, int]]
    #: The coverages as one query batch and the collective's one coverage-run
    #: kernel over its intervals (:func:`~repro.core.overlap._interval_runs`),
    #: which both directions' routes read.
    scatter_batch: QueryBatch
    runs: tuple
    #: Each direction's routes, held weakly: the coroutines using them keep
    #: them alive, to the last one.
    _routes: WeakValueDictionary = field(default_factory=WeakValueDictionary, repr=False)

    @classmethod
    def of(
        cls,
        regions: Sequence[FileRegionSet],
        ranks_per_node: int,
        policy: PriorityPolicy,
        aggregators: List[int],
        chunks: Sequence[IntervalSet],
    ) -> "Negotiation":
        """The record of a collective over ``regions`` in which
        ``aggregators[i]``, ascending, holds ``chunks[i]``."""
        sizes = [len(chunk.starts) for chunk in chunks]
        first = np.cumsum([0] + sizes).tolist()
        starts = np.concatenate([chunk.starts for chunk in chunks])
        stops = np.concatenate([chunk.stops for chunk in chunks])
        aggregator = np.repeat(np.asarray(aggregators, dtype=np.int64), sizes)
        pieces = np.stack((starts, stops, aggregator, _placed(stops - starts, aggregator)))
        rows = dict(zip(aggregators, zip(first, first[1:])))
        batch = QueryBatch.of([r.coverage for r in regions])
        runs = _interval_runs(batch.starts, batch.stops, batch.dest)
        return cls(len(regions), ranks_per_node, policy, aggregators, pieces, rows, batch, runs)

    def write_routes(self) -> WriteRoutes:
        """The write's routes, built on first use."""
        routes = self._routes.get("write")
        if routes is None:
            routes = self._routes["write"] = WriteRoutes.of(self)
        return routes

    def read_routes(self) -> ReadRoutes:
        """The read's routes, built on first use."""
        routes = self._routes.get("read")
        if routes is None:
            routes = self._routes["read"] = ReadRoutes.of(self)
        return routes


def _pump(comm: Communicator, schedule: Generator):
    """Drive one rank's schedule coroutine on the engine.

    The coroutine yields the ``{dest: payload}`` dict of a sparse exchange
    and is resumed with the ``[(src, payload)]`` list it received; this
    driver answers every yield with ``comm.alltoallv_sparse`` and returns
    the coroutine's return value.  :mod:`repro.core.bulk` holds the other
    driver, which advances all ``P`` coroutines in lockstep.
    """
    try:
        sent = next(schedule)
        while True:
            sent = schedule.send(comm.alltoallv_sparse(sent))
    except StopIteration as done:
        return done.value


@register_strategy
class TwoPhaseStrategy(AtomicityStrategy):
    """Two-phase aggregation (ROMIO-style collective buffering).

    The union of every rank's view is partitioned among elected aggregators.
    A write ships each covered byte to its aggregator, which merges what
    arrives — a contested byte goes to the highest-priority covering rank,
    the winner process-rank ordering picks, so the two strategies are
    byte-for-byte comparable — and writes its pairwise-disjoint extents in
    parallel: no locks, no barriers, the origin recorded as provenance.  A
    read mirrors it: aggregators fetch their chunks once and scatter them.

    The schedule is written once, over ``ranks_per_node`` consecutive ranks
    per node (a node's leader is its lowest rank; aggregators are evenly
    spaced leaders).  Where a node holds more than one rank the data crosses
    a **node hop** too: on a write every rank ships its pieces to its leader,
    which sends on its node's winning bytes; on a read an aggregator ships
    each node's *union* request to the leader, which sends each local rank
    its own.  With one rank per node — this class — the hop would be a
    rendezvous in which each rank sends only to itself, and is not made.
    What each hop sends and keeps comes from the negotiation's routes
    (:class:`~repro.core.aggregation.WriteRoutes`,
    :class:`~repro.core.aggregation.ReadRoutes`).  A byte's winner at a node
    and at an aggregator follows one fixed total order, ``(policy(origin),
    -origin)``, so file bytes and provenance do not depend on
    ``ranks_per_node``; only the schedule, hence the makespan, does
    (ARCHITECTURE.md, *The two-phase aggregation strategy*).
    """

    name = "two-phase"
    exchanges_views = True

    #: Ranks per node; :class:`HierarchicalTwoPhaseStrategy` sets it per
    #: instance from the ``cb_ppn`` hint.
    ranks_per_node = 1

    def __init__(
        self,
        num_aggregators: Optional[int] = None,
        policy: PriorityPolicy = HIGHER_RANK_WINS,
        cb_buffer_size: Optional[int] = None,
    ) -> None:
        if num_aggregators is not None and num_aggregators <= 0:
            raise ValueError("num_aggregators must be positive")
        if cb_buffer_size is not None and cb_buffer_size <= 0:
            raise ValueError("cb_buffer_size must be positive")
        self.num_aggregators = num_aggregators
        self.policy = policy
        self.cb_buffer_size = cb_buffer_size

    def negotiate(self, regions: Sequence[FileRegionSet]) -> Negotiation:
        """Election and partitioning for one collective over ``regions``.

        A pure function of the exchanged views and this strategy's tunables;
        :meth:`negotiation` runs it once per collective.
        """
        _check_rank_order(regions)
        size = len(regions)
        domain = merge_interval_sets([r.coverage for r in regions])
        # ``cb_nodes`` aggregators if hinted, else enough for chunks of
        # ``cb_buffer_size``, else one per node; the election clamps the wish
        # to the node count and picks evenly spaced node leaders.
        if self.num_aggregators is not None:
            want = self.num_aggregators
        elif self.cb_buffer_size is not None and domain.total_bytes > 0:
            want = -(-domain.total_bytes // self.cb_buffer_size)  # ceil division
        else:
            want = size
        aggregators = choose_node_aggregators(size, min(self.ranks_per_node, size), want)
        chunks = partition_domain(domain, len(aggregators))
        return Negotiation.of(regions, self.ranks_per_node, self.policy, aggregators, chunks)

    def negotiation(self, regions: SharedList) -> Negotiation:
        """The collective's negotiation for this strategy's tunables, built
        once on the shared region list — every rank, every strategy instance
        (the MPI-IO layer builds one per rank) and both drivers ask here."""
        key = (
            "negotiation",
            self.num_aggregators,
            self.cb_buffer_size,
            self.policy,
            self.ranks_per_node,
        )
        return regions.once(key, lambda: self.negotiate(regions))

    # The engine side of "one schedule, two drivers": pump this rank's
    # coroutine against the communicator.

    def schedule(self, comm, region, data, regions):  # noqa: D102 - see base
        return _pump(comm, self.shuffle(region, data, self.negotiation(regions)))

    def schedule_read(self, comm, region, regions):  # noqa: D102 - see base
        return self.fetch_plan(region, self.negotiation(regions))

    def deliver_read(self, comm, region, regions, outcome, sinks):  # noqa: D102 - see base
        return _pump(comm, self.scatter(region, self.negotiation(regions), outcome, sinks))

    @property
    def _hops(self) -> int:
        """Hops between a rank and an aggregator: the global one, plus the node
        hop where a node holds several ranks — the schedule's one condition."""
        return 1 + (self.ranks_per_node > 1)

    def _roles(self, neg: Negotiation) -> Dict[str, float]:
        """The outcome extras both directions report."""
        roles = {"aggregators": float(len(neg.aggregators))}
        if self._hops == 2:
            roles["node_leaders"] = float(-(-neg.size // self.ranks_per_node))
        return roles

    def shuffle(self, region: FileRegionSet, data: bytes, neg: Negotiation):
        """This rank's write schedule, as a coroutine (see :func:`_pump`);
        returns ``(plan, payloads)``.  Every hop sends by the negotiation's
        routes (:func:`_hop`); an aggregator then keeps its rows of what
        arrived."""
        # The node hop ships every view to its leader; the global hop cuts a
        # leader's node winners, or a lone rank's view, at the pieces.  Every
        # rank holds the routes (held weakly) to its end, for its surrender.
        rank, hops, routes = region.rank, self._hops, neg.write_routes()
        shuffled, source = 0, data
        for hop in range(hops):
            outgoing, sent = _hop(routes, hop, region, source)
            received = yield outgoing
            source, shuffled = joined(received) if received else b"", shuffled + sent

        # Write phase: parallel disjoint direct writes — no locks, no
        # barriers — one step per contiguous span of the keep rows, closed
        # before a run that would take it past ``cb_buffer_size``.
        spans, parts, at, end, limit = [], [], 0, -1, self.cb_buffer_size or float("inf")
        for _, origin, offset, lo, hi in routes.rows_of(hops, region):
            length = hi - lo
            if offset != end or spans[-1][2] + length > limit:
                spans.append([at, offset, 0, []])
            spans[-1][2] += length
            spans[-1][3].append((origin, length))
            parts.append(source[lo:hi])
            at, end = at + length, offset + length
        steps = [TransferStep(b, f, n, AGGREGATE_PAYLOAD, None, tuple(r)) for b, f, n, r in spans]
        plan = self._plan(
            "write",
            region,
            phases=[PhasePlan(index=hops, steps=steps, direct=True)],
            reported_phases=hops + 1,
            my_phase=hops if rank in neg.chunks else 0 if rank % self.ranks_per_node else hops - 1,
            bytes_surrendered=routes.surrendered[rank],
            bytes_shuffled=shuffled,
            extra=self._roles(neg),
        )
        return plan, {USER_PAYLOAD: data, AGGREGATE_PAYLOAD: b"".join(parts)}

    def fetch_plan(self, region: FileRegionSet, neg: Negotiation) -> IOPlan:
        """This rank's read plan (the communication-free half of a read)."""
        # Phase 0 — fetch: each aggregator reads its file-domain chunk once,
        # directly from the servers (bypassing — and therefore never
        # invalidating — the client cache; every rank's dirty pages were
        # flushed before the exchange rendezvous, so the servers are
        # current).  An overlapped byte costs one server read regardless of
        # how many consumers cover it.  The scatter hops follow.
        rank, steps = region.rank, []
        chunk = neg.chunks.get(rank)
        if chunk:
            starts, stops, _, sinks = neg.pieces[:, chunk[0] : chunk[1]].tolist()
            for start, stop, buf in zip(starts, stops, sinks):
                steps.append(TransferStep(buf, start, stop - start, AGGREGATE_PAYLOAD))
        return self._plan(
            "read",
            region,
            phases=[PhasePlan(index=0, steps=steps, direct=True)],
            reported_phases=self._hops + 1,
            my_phase=0 if chunk else 2 if rank % self.ranks_per_node else 1,
            extra=self._roles(neg),
        )

    def scatter(
        self,
        region: FileRegionSet,
        neg: Negotiation,
        outcome: IOOutcome,
        sinks: Dict[str, bytearray],
    ):
        """This rank's read delivery, as a coroutine (see :func:`_pump`);
        returns the rank's data stream.  Every hop sends by the negotiation's
        routes, as in :meth:`shuffle`, and what arrives must tile what the
        hop owes the rank."""
        # Hop 0 sends each node's union request from the aggregators' sinks
        # to the node's leader, so a byte crosses the inter-node network once
        # however many of the node's ranks cover it; hop 1 sends each rank its
        # request from what its leader received.
        rank, routes, last = region.rank, neg.read_routes(), self._hops - 1
        shuffled, source = 0, bytes(sinks.get(AGGREGATE_PAYLOAD, b""))
        for hop in range(self._hops):
            outgoing, sent = _hop(routes, hop, region, source)
            received = yield outgoing
            owed = region.coverage if hop == last else routes.unions.get(rank, IntervalSet.empty())
            source = delivered(rank, received, owed) if received or owed else b""
            shuffled += sent
        outcome.bytes_shuffled = shuffled
        outcome.extra["scatter_filled_bytes"] = float(len(source))
        return stream_order(region, source)


def _hop(routes: "WriteRoutes | ReadRoutes", hop: int, region: FileRegionSet, source: bytes):
    """One hop of ``region``'s rank in a two-phase schedule: its pieces by
    ``routes.rows_of(hop, region)`` — a write row ``(dest, origin, offset,
    lo, hi)`` sends ``dest`` the piece ``(origin, offset, source[lo:hi])``, a
    read row ``(dest, offset, lo, hi)`` the piece ``(offset,
    source[lo:hi])`` — as ``({dest: pieces}, bytes sent to other ranks)``."""
    rank, outgoing, shuffled = region.rank, {}, 0
    for row in routes.rows_of(hop, region):
        dest, lo, hi = row[0], row[-2], row[-1]
        piece = (row[1], row[2], source[lo:hi]) if len(row) == 5 else (row[1], source[lo:hi])
        sent = outgoing.get(dest)
        if sent is None:
            outgoing[dest] = sent = []
        sent.append(piece)
        if dest != rank:
            shuffled += hi - lo
    return outgoing, shuffled


@register_strategy
class HierarchicalTwoPhaseStrategy(TwoPhaseStrategy):
    """:class:`TwoPhaseStrategy` on nodes of several ranks — the same
    schedule; this class only supplies the topology.

    The flat shuffle is ``P × A`` flows, which dominate at tens of thousands
    of ranks; with the node hop each rank talks to one leader and each leader
    to a handful of aggregators (by default one per node).  Info hints:
    ``atomicity_strategy = two-phase-hier`` with ``cb_ppn`` (ranks per node,
    default 8; ``cb_ppn = 1`` is ``two-phase``) and ``cb_nodes`` (aggregator
    nodes, default every node).
    """

    name = "two-phase-hier"

    #: Default block size of the rank-to-node placement when no ``cb_ppn``
    #: hint is given.
    DEFAULT_RANKS_PER_NODE = 8

    def __init__(
        self,
        num_aggregators: Optional[int] = None,
        policy: PriorityPolicy = HIGHER_RANK_WINS,
        cb_buffer_size: Optional[int] = None,
        ranks_per_node: Optional[int] = None,
    ) -> None:
        super().__init__(
            num_aggregators=num_aggregators,
            policy=policy,
            cb_buffer_size=cb_buffer_size,
        )
        if ranks_per_node is not None and ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        self.ranks_per_node = ranks_per_node or self.DEFAULT_RANKS_PER_NODE


# Registers the adaptive "auto" strategy — a tuner over the strategies above,
# not one of the paper's fixed strategies.  Imported last to keep the
# dependency one-way at class definition time.
from . import autotune as _autotune  # noqa: E402,F401  (registration side effect)
