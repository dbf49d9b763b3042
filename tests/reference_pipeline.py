"""Test-only oracle: the staged pipeline's stage objects and identity memos
as they were before a collective's products moved onto the list it hands
every rank, kept verbatim.

``repro.core.pipeline`` now has two functions where this module has classes:
``exchange_views`` (stage 1) and ``run_plan`` (stage 4); stage 2 is gone as a
stage, because each ``schedule`` / ``schedule_read`` / ``deliver_read`` asks
the shared region list for the one product it reads (``regions.once``).
Here live, unchanged, what that replaced:

* ``_SharedMemo``, ``ViewExchange``, ``ConflictReport``, ``ConflictAnalysis``
  and ``PlanRunner``;
* ``PreparedIO`` with its ``report`` field, and ``AtomicityStrategy``'s
  ``prepare`` / ``_scheduled`` / ``commit``;
* the ``schedule`` / ``schedule_read`` / ``deliver_read`` / ``negotiate``
  bodies that read a report, with the constructors and class attributes that
  configured them (``NoAtomicityStrategy(use_cache=, sync_after=)``,
  ``RankOrderingStrategy``'s per-instance analysis, ``TwoPhaseStrategy``'s
  class-level negotiation memo);
* ``AutoStrategy``'s ``_resolve`` / ``_decide`` / ``prepare`` / ``commit``.

Each is a mixin; :func:`reference` puts the right one in front of a strategy
class of ``src/``, which supplies everything that did not change — the
bodies that read no report, ``_plan``, ``shuffle`` / ``scatter`` /
``fetch_plan``, the tuner.  ``tests/test_pipeline_differential.py`` requires
both to leave the same plans, outcomes, bytes, provenance, streams and
clocks.

Two edits, both in ``ReferenceAuto``, because the objects they touched
changed shape: the resolution memo ``FileTuningRecord.memo`` is kept in
:data:`_RESOLUTION_MEMOS` beside the record, and ``decision.delegate()`` is
:func:`_delegate`, the parent's ``TuningDecision.delegate`` body building the
reference class of the tuned strategy.

Never imported by ``src/``.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.autotune import (
    AutoStrategy,
    FileTuningRecord,
    PatternSignature,
    PlanEntry,
    TuningDecision,
    classify_pattern,
)
from repro.core.coloring import ColoringResult, greedy_coloring
from repro.core.engine import drive
from repro.core.intervals import merge_interval_sets
from repro.core.overlap import OverlapMatrix, build_overlap_matrix
from repro.core.pipeline import USER_PAYLOAD, IOPlan, PhasePlan, transfer_steps
from repro.core.rank_ordering import (
    HIGHER_RANK_WINS,
    PriorityPolicy,
    RankOrderingResult,
    resolve_by_rank,
)
from repro.core.aggregation import choose_node_aggregators, partition_domain
from repro.core.regions import FileRegionSet
from repro.core.registry import default_registry
from repro.core.strategies import (
    GraphColoringStrategy,
    IOOutcome,
    Negotiation,
    NoAtomicityStrategy,
    RankOrderingStrategy,
    TwoPhaseStrategy,
    _pump,
)
from repro.fs.client import ClientFileHandle
from repro.mpi.comm import Communicator

__all__ = ["reference"]

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
        pin, comm_size = tuple(regions), len(regions)
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


@dataclass
class PreparedIO:
    """Stage-3 output of a collective operation, ready for execution.

    Produced by :meth:`AtomicityStrategy.prepare` (view exchange, conflict
    analysis, scheduling — everything that needs the *data* and the peers),
    consumed by :meth:`AtomicityStrategy.commit` (the file I/O and, for a
    read, the delivery).  The split is what the split-collective API pins
    down: ``begin`` runs the exchange, ``end`` (or a detached progress task
    in between) the commit.  The conflict report and the region ride along
    because read delivery may need them — the two-phase scatter routes
    pieces with the exchanged views.
    """

    plan: IOPlan
    region: FileRegionSet
    report: ConflictReport
    #: The named memory side of the plan's steps: the payloads a write draws
    #: from, the (still zeroed) sinks a read fills.
    buffers: Dict[str, Any]
    start_time: float
    #: Set by ``auto``, in both directions: the tuning decision whose
    #: delegate strategy built the plan and owns its commit.
    decision: Optional["TuningDecision"] = None



class ReferencePipeline:
    """The parent's stage objects and the body of a collective operation."""

    exchange: ViewExchange = ViewExchange(enabled=False)
    analysis: ConflictAnalysis = ConflictAnalysis(mode="none")
    runner: PlanRunner = PlanRunner()

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
        regions = self.exchange.run(comm, region)
        return self._scheduled(comm, region, start_time, data, self.analysis.run(regions))

    def _scheduled(
        self,
        comm: Communicator,
        region: FileRegionSet,
        start_time: float,
        data: Optional[bytes],
        report: ConflictReport,
    ) -> PreparedIO:
        """Stage 3: this strategy's plan for ``report``, with its buffers."""
        if data is None:
            plan = self.schedule_read(comm, region, report)
            buffers = plan.sinks()
        else:
            plan, buffers = self.schedule(comm, region, data, report)
        return PreparedIO(
            plan=plan, region=region, report=report, buffers=buffers, start_time=start_time
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
        outcome = self.runner.execute(
            comm, handle, prepared.plan, prepared.buffers, start_time=prepared.start_time
        )
        if prepared.plan.direction == "write":
            return None, outcome
        data = self.deliver_read(
            comm, prepared.region, prepared.report, outcome, prepared.buffers
        )
        # Delivery may communicate; the outcome covers it.
        outcome.end_time = handle.clock.now
        outcome.bytes_returned = len(data)
        return data, outcome


class ReferenceNone(ReferencePipeline):
    """``NoAtomicityStrategy`` with its two constructor options."""

    def __init__(self, use_cache: bool = True, sync_after: bool = True) -> None:
        self.use_cache = use_cache
        self.sync_after = sync_after

    def schedule(self, comm, region, data, report):  # noqa: D102 - see base
        phase = PhasePlan(
            index=0,
            steps=self._steps(region.buffer_map()),
            direct=not self.use_cache,
            sync_after=self.sync_after,
        )
        return self._plan("write", region, phases=[phase]), {USER_PAYLOAD: data}


class ReferenceColoring(ReferencePipeline):
    """``GraphColoringStrategy``'s stages and report-reading schedules."""

    exchange = ViewExchange(enabled=True)
    analysis = ConflictAnalysis(mode="coloring")

    def schedule(self, comm, region, data, report):  # noqa: D102 - see base
        coloring: ColoringResult = report.coloring
        my_color = coloring.color_of(region.rank)
        steps = [] if region.is_empty() else self._steps(region.buffer_map())
        phases = []
        for step in range(max(coloring.num_colors, 1)):
            mine = step == my_color and bool(steps)
            phases.append(
                PhasePlan(
                    index=step,
                    steps=steps if mine else [],
                    direct=not self.use_cache,
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

    def schedule_read(self, comm, region, report):  # noqa: D102 - see base
        # The handshake (view exchange + coloring) ran, but reads commute
        # with reads: the colouring resolves write-write conflicts, so the
        # read schedule is one fully parallel phase.  The invalidation is the
        # read half of the paper's protocol — writers of a conflicting
        # operation flushed (sync-after-write), we must drop stale pages.
        phase = PhasePlan(
            index=0,
            steps=self._steps(region.buffer_map()),
            direct=not self.use_cache,
            invalidate_before=True,
        )
        return self._plan("read", region, phases=[phase])


class ReferenceRankOrdering(ReferencePipeline):
    """``RankOrderingStrategy`` with its per-instance analysis."""

    exchange = ViewExchange(enabled=True)

    def __init__(self, policy: PriorityPolicy = HIGHER_RANK_WINS, use_cache: bool = True) -> None:
        self.policy = policy
        self.use_cache = use_cache
        self.analysis = ConflictAnalysis(mode="rank-order", policy=policy)

    def schedule(self, comm, region, data, report):  # noqa: D102 - see base
        resolution = report.ordering
        my_view = resolution.view_of(region.rank)
        # Write only the bytes this rank still owns; the data for surrendered
        # bytes is simply not transferred (reducing the total I/O volume).
        phase = PhasePlan(
            index=0,
            steps=self._steps(region.buffer_map_restricted(my_view.coverage)),
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


class ReferenceTwoPhase(ReferencePipeline):
    """``TwoPhaseStrategy``'s memoised negotiation and report-reading
    schedules (its subclass keeps its own constructor, so the memo is bound
    as a class attribute rather than in ``__init__``)."""

    exchange = ViewExchange(enabled=True)

    #: Class-level negotiation memo: the MPI-IO layer builds one strategy
    #: instance per rank (each rank owns its file handle), yet all ranks of a
    #: collective negotiate over the *same* exchanged region objects, so
    #: keying by region identity plus the tunables lets P ranks share one
    #: negotiation instead of computing P identical ones.
    _negotiation_memo = _SharedMemo()

    _memo = _negotiation_memo

    def negotiate(self, regions: Sequence[FileRegionSet]) -> Negotiation:
        """Election and partitioning for one collective.

        Every rank computes the identical result from the identical exchanged
        views, so when the ranks share the regions list from the exchange
        stage this runs once per collective instead of once per rank.
        """
        # Fingerprint every exchanged view by identity, not the list holding
        # them: all ranks of a collective share one list, but the adaptive
        # strategy rebuilds it around cached region objects on a plan-cache
        # miss, and two lists differing in any element must not share a
        # negotiation.
        pin, comm_size = tuple(regions), len(regions)
        # The memo is shared between strategy instances (one per rank in the
        # MPI-IO layer), so the key must include every tunable that changes
        # the negotiation, not just the exchanged views.
        key = (
            tuple(map(id, pin)),
            comm_size,
            self.num_aggregators,
            self.cb_buffer_size,
            id(self.policy),
            self.ranks_per_node,
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        coverages = [r.coverage for r in regions]
        domain = merge_interval_sets(coverages)
        # ``cb_nodes`` aggregators if hinted, else enough for chunks of
        # ``cb_buffer_size``, else one per node; the election clamps the wish
        # to the node count and picks evenly spaced node leaders.
        if self.num_aggregators is not None:
            want = self.num_aggregators
        elif self.cb_buffer_size is not None and domain.total_bytes > 0:
            want = -(-domain.total_bytes // self.cb_buffer_size)  # ceil division
        else:
            want = comm_size
        aggregators = choose_node_aggregators(
            comm_size, min(self.ranks_per_node, comm_size), want
        )
        chunks = partition_domain(domain, len(aggregators))
        result = Negotiation.of(regions, self.ranks_per_node, self.policy, aggregators, chunks)
        self._memo.put(key, pin, result)
        return result

    # The engine side of "one schedule, two drivers": pump this rank's
    # coroutine against the communicator.

    def schedule(self, comm, region, data, report):  # noqa: D102 - see base
        negotiation = self.negotiate(report.regions)
        return _pump(comm, self.shuffle(region, data, negotiation))

    def schedule_read(self, comm, region, report):  # noqa: D102 - see base
        return self.fetch_plan(region, self.negotiate(report.regions))

    def deliver_read(self, comm, region, report, outcome, sinks):  # noqa: D102 - see base
        # negotiate() is memoised per collective, so re-asking here costs a
        # dictionary lookup.
        negotiation = self.negotiate(report.regions)
        return _pump(comm, self.scatter(region, negotiation, outcome, sinks))


#: ``FileTuningRecord.memo`` of the parent, per record.
_RESOLUTION_MEMOS: "weakref.WeakKeyDictionary[FileTuningRecord, _SharedMemo]" = (
    weakref.WeakKeyDictionary()
)


def _delegate(decision: TuningDecision):
    """The parent's ``TuningDecision.delegate``, building the reference
    class of the tuned strategy (cached on the decision)."""
    cached = getattr(decision, "_reference_delegate", None)
    if cached is None:
        tunables = {
            "num_aggregators": decision.cb_nodes,
            "cb_buffer_size": decision.cb_buffer_size,
            "ranks_per_node": decision.cb_ppn,
        }
        cls = reference(default_registry._classes[decision.strategy])
        cached = cls(**{k: v for k, v in tunables.items() if v is not None})
        decision._reference_delegate = cached
    return cached


_Resolution = Tuple[List[FileRegionSet], PatternSignature, bool]


class ReferenceAuto(ReferencePipeline):
    """``AutoStrategy``'s resolution protocol and delegation."""

    def _resolve(
        self, comm, region: FileRegionSet, direction: str = "write"
    ) -> Tuple[List[FileRegionSet], TuningDecision, bool]:
        """One collective exchange resolving views, signature and decision.

        Exactly one allgather, whatever the cache state (see module doc).
        """
        record = self._active_record()
        cpu_start = time.thread_time()
        fingerprint = self._fingerprint(region)
        entry = record.entry
        claim_hit = (
            self.plan_cache
            and entry is not None
            and region.rank < len(entry.fingerprints)
            and entry.fingerprints[region.rank] == fingerprint
        )
        if claim_hit:
            payload: Tuple = ("hit",) + fingerprint
        else:
            payload = ("view",) + tuple(
                value for segment in region.segments for value in segment
            )
        # The stopwatch stops across the collective: a thread stopped in a
        # blocking primitive advances other ranks' driven steps before it
        # parks (``Engine.drive``), so its CPU there is not this rank's.
        elapsed = time.thread_time() - cpu_start
        shared = comm.allgather_shared(payload)
        cpu_start = time.thread_time()
        key = id(shared)
        memo = _RESOLUTION_MEMOS.setdefault(record, _SharedMemo())
        resolution = memo.get(key)
        if resolution is None:
            resolution = self._decide(comm.size, shared, record)
            memo.put(key, shared, resolution)
        regions, signature, hit = resolution
        decision = self._decision_for(record, signature, direction)
        if claim_hit:
            # Exact verification behind the O(1) fingerprint: a hash collision
            # must never let a stale plan touch the wrong bytes.
            if regions[region.rank].segments != region.segments:
                raise RuntimeError(
                    f"auto: plan-cache fingerprint collision on rank "
                    f"{region.rank}; cached view does not match the request"
                )
        self.last_decision = decision
        elapsed += time.thread_time() - cpu_start
        if hit:
            record.warm_cpu += elapsed
        else:
            record.cold_cpu += elapsed
        return (regions, decision, hit)

    def _decide(self, comm_size: int, shared, record: FileTuningRecord) -> _Resolution:
        """The once-per-collective verdict, computed from the shared payloads.

        Runs exactly once per collective (memoised on the shared list) on
        whichever rank drains the allgather first; every mutation of the
        record therefore happens before any rank finishes its prepare, i.e.
        strictly before the next collective's cache guesses.
        """
        entry = record.entry
        if (
            entry is not None
            and comm_size == len(entry.fingerprints)
            and all(payload[0] == "hit" for payload in shared)
        ):
            for rank, payload in enumerate(shared):
                if tuple(payload[1:]) != entry.fingerprints[rank]:
                    raise RuntimeError(
                        f"auto: rank {rank} hit claim does not match the "
                        "cached plan entry"
                    )
            record.hits += 1
            return (entry.regions, entry.signature, True)
        regions: List[FileRegionSet] = []
        for rank, payload in enumerate(shared):
            tag = payload[0]
            if tag == "hit":
                if (
                    entry is None
                    or rank >= len(entry.fingerprints)
                    or entry.fingerprints[rank] != tuple(payload[1:])
                ):
                    raise RuntimeError(
                        f"auto: rank {rank} claimed a plan-cache hit with no "
                        "matching cached entry"
                    )
                regions.append(entry.regions[rank])
            elif tag == "view":
                flat = payload[1:]
                regions.append(FileRegionSet(rank, zip(flat[0::2], flat[1::2])))
            else:
                raise RuntimeError(
                    f"auto: malformed exchange payload from rank {rank}: {tag!r}"
                )
        signature = classify_pattern(regions)
        record.misses += 1
        record.entry = PlanEntry(
            signature=signature,
            regions=regions,
            fingerprints=tuple(self._fingerprint(r) for r in regions),
        )
        return (regions, signature, False)

    def prepare(self, comm, region, start_time, data=None) -> PreparedIO:  # noqa: D102
        if data is not None:
            self._check_request(region, data)
        direction = "read" if data is None else "write"
        regions, decision, _ = self._resolve(comm, region, direction)
        delegate = _delegate(decision)
        prepared = delegate._scheduled(
            comm, region, start_time, data, delegate.analysis.run(regions)
        )
        self.adopt(prepared.plan, decision)
        # The decision's delegate owns the commit (two-phase scatters from
        # aggregators); remember it, since the commit may run on a detached
        # task, after a later collective replaced ``last_decision``.
        prepared.decision = decision
        return prepared

    def commit(self, comm, handle, prepared):  # noqa: D102
        decision = prepared.decision
        if decision.read_ahead is not None:
            self._apply_read_ahead(handle, decision.read_ahead)
        return _delegate(decision).commit(comm, handle, prepared)


def reference(cls: type) -> type:
    """``cls`` with the parent's pipeline in front of it."""
    for base, mixin in (
        (AutoStrategy, ReferenceAuto),
        (TwoPhaseStrategy, ReferenceTwoPhase),
        (RankOrderingStrategy, ReferenceRankOrdering),
        (GraphColoringStrategy, ReferenceColoring),
        (NoAtomicityStrategy, ReferenceNone),
    ):
        if issubclass(cls, base):
            break
    else:
        mixin = ReferencePipeline
    return type(f"Reference{cls.__name__}", (mixin, cls), {"__module__": __name__})
