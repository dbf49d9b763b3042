"""Pattern-aware adaptive collective I/O (``atomicity_strategy = auto``).

The paper evaluates *fixed* atomicity strategies per run; production MPI-IO
stacks (ROMIO-style heuristics) instead derive the collective-buffering
parameters from the observed access pattern.  This module closes that gap
with three layers:

1. **Pattern classifier** — from the per-collective exchanged views (already
   computed once and shared between ranks), classify the access pattern into
   a compact, hashable :class:`PatternSignature`: contiguous / strided /
   block-block / irregular, plus log-bucketed fragmentation, overlap density
   and inter-rank interleave factor from the existing sweep-line analysis
   (:func:`repro.core.analysis.pattern_features`).

2. **Self-tuning hint engine** — :class:`HintEngine` maps a signature plus a
   :class:`MachineModel` (lock support, I/O server count, stripe size) to a
   concrete strategy (``rank-ordering`` / ``two-phase`` / ``two-phase-hier``)
   and auto-derived ``cb_nodes`` / ``cb_ppn`` / ``cb_buffer_size``.  The
   chosen :class:`TuningDecision` is remembered in a per-``(fs, file)``
   :class:`FileTuningRecord` that survives ``Close``/``Open``, so the second
   job step on the same file starts warm.

3. **Cross-collective plan cache** — repeated collectives (the
   checkpoint-every-timestep workload) reuse the exchanged region objects,
   the classification and the tuning decision from the previous collective
   instead of re-shipping and re-analysing identical views; see
   :meth:`AutoStrategy._resolve` for the protocol.  The cache is invalidated
   by ``Set_view`` (:func:`notify_view_change`), by hint changes
   (:func:`notify_hint_change`), and implicitly by any view change — a
   fingerprint mismatch on any rank falls back to the cold path.

Plan-cache protocol (deadlock-free by construction)
---------------------------------------------------
Every collective performs exactly **one** ``allgather`` regardless of cache
state; only the *payload* differs per rank.  A rank whose local view
fingerprint matches the cached entry sends a 4-element hit claim
``("hit", num_segments, total_bytes, hash)``; any other rank sends its
flattened view ``("view", off0, len0, off1, len1, ...)``.  Because the
collective structure never branches on the (rank-local) cache guess, ranks
disagreeing about the cache state cannot deadlock.  The hit/miss verdict is
computed *after* the allgather, once per collective, from the shared payload
list: all-hit replays the cached region list by identity — the shared list of
the collective that filled the cache, with the products built on it (the
delegate's trim or negotiation), so a warm collective rebuilds none of them;
any view payload rebuilds the region list — reusing the cached region object
for verified hit claimers — and refreshes the cache.  Each hit-claiming rank
additionally compares its actual segments against the cached ones and raises
on mismatch, so a fingerprint collision can corrupt nothing.

The warm path is also cheaper in *virtual* time, honestly modelled: the hit
claim is a 4-element payload where the cold view payload carries
``1 + 2 * num_segments`` elements, so ``N``-timestep workloads amortise the
view shipping exactly as a real implementation would.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..mpi.comm import SharedList
from .analysis import pattern_features
from .regions import FileRegionSet
from .registry import default_registry, register_strategy
from .strategies import AtomicityStrategy, PreparedIO

__all__ = [
    "PatternSignature",
    "classify_pattern",
    "MachineModel",
    "TuningDecision",
    "HintEngine",
    "PlanEntry",
    "FileTuningRecord",
    "record_for",
    "peek_record",
    "notify_view_change",
    "notify_hint_change",
    "AutoStrategy",
]


# -- machine model ------------------------------------------------------------


@dataclass(frozen=True)
class MachineModel:
    """What the hint engine knows about the machine under the file.

    Derived from the :class:`~repro.fs.filesystem.FSConfig` when the strategy
    is bound to a file (:meth:`AutoStrategy.bind_context`); the unbound
    default is a lockless machine so the engine never proposes ``locking``
    without evidence the file system supports it.
    """

    supports_locking: bool = False
    num_servers: int = 4
    stripe_size: int = 64 * 1024

    @classmethod
    def from_fs(cls, fs) -> "MachineModel":
        cfg = fs.config
        return cls(
            supports_locking=bool(cfg.supports_locking()),
            num_servers=max(1, int(cfg.num_servers)),
            stripe_size=max(1, int(cfg.stripe_size)),
        )


# -- pattern classification ---------------------------------------------------


def _bucket(value: float) -> int:
    """Log2 bucket of a non-negative quantity (0 stays 0)."""
    return int(value).bit_length() if value > 0 else 0


@dataclass(frozen=True)
class PatternSignature:
    """A compact, hashable description of one collective's access pattern.

    Exact byte offsets are deliberately dropped: two collectives whose views
    differ only in absolute position (or by less than a power of two in
    scale) should share a tuning decision.  ``domain_bucket`` is the
    file-size class — when an append-style workload grows the file past the
    next power of two, the signature changes and the hint cache is consulted
    afresh.
    """

    kind: str  #: "contiguous" | "strided" | "block-block" | "irregular"
    nprocs: int
    segments_bucket: int  #: log2 of the worst per-rank segment count
    segment_bucket: int  #: log2 of the typical segment length (bytes)
    domain_bucket: int  #: log2 of the hull of all views — the file-size class
    overlap_bucket: int  #: log2 of overlapped permille of the domain
    interleave_bucket: int  #: log2 of the inter-rank interleave factor


def classify_pattern(regions: Sequence[FileRegionSet]) -> PatternSignature:
    """Classify exchanged views into a :class:`PatternSignature`.

    Runs on the already-shared region list (no communication).  ``kind`` is
    ``contiguous`` when every rank's view is a single run, ``strided`` when
    the views are uniformly strided and all ``P`` ranks interleave within one
    stride period (the paper's column-wise partitioning), ``block-block``
    when uniformly strided but only a subset of ranks interleaves (a
    ``Pr x Pc`` process grid), and ``irregular`` otherwise.
    """
    feats = pattern_features(regions)
    nprocs = int(feats["nprocs"])
    max_segments = int(feats["max_segments"])
    total = int(feats["total_bytes"])
    extent = int(feats["extent_bytes"])
    interleave = feats["interleave"]
    if max_segments <= 1:
        kind = "contiguous"
    elif feats["stride"]:
        kind = "strided" if interleave >= nprocs - 0.5 else "block-block"
    else:
        kind = "irregular"
    overlap_permille = (
        int(feats["overlapped_bytes"]) * 1000 // extent if extent else 0
    )
    segment_count = max(1, max_segments) * max(1, nprocs)
    return PatternSignature(
        kind=kind,
        nprocs=nprocs,
        segments_bucket=_bucket(max_segments),
        segment_bucket=_bucket(total // segment_count),
        domain_bucket=_bucket(extent),
        overlap_bucket=_bucket(overlap_permille),
        interleave_bucket=_bucket(int(interleave)),
    )


# -- tuning decisions ---------------------------------------------------------


@dataclass
class TuningDecision:
    """A concrete strategy choice with its derived collective-buffering hints.

    The delegate strategy instance is built lazily and cached: all ranks of a
    collective share the record (and hence the decision), so they share one
    delegate.
    """

    strategy: str
    cb_nodes: Optional[int] = None
    cb_ppn: Optional[int] = None
    cb_buffer_size: Optional[int] = None
    #: Read-side cache coupling: ``True`` keeps/enables client read-ahead
    #: (contiguous cached reads), ``False`` disables it (scatter-fed or
    #: direct-read schedules never benefit), ``None`` leaves the handle's
    #: policy alone (write decisions).
    read_ahead: Optional[bool] = None
    _delegate: Optional[AtomicityStrategy] = field(
        default=None, repr=False, compare=False
    )

    def delegate(self) -> AtomicityStrategy:
        """The (shared, cached) strategy instance implementing the decision:
        the registered class of that name, built with the derived tunables
        its constructor accepts (the ``cb_*`` fields carry the hints' names)."""
        if self._delegate is None:
            self._delegate = default_registry.create_tuned(self.strategy, vars(self))
        return self._delegate

    def hints(self) -> Dict[str, float]:
        """The derived ``cb_*`` hints as numeric plan/outcome extras."""
        out: Dict[str, float] = {}
        if self.cb_nodes is not None:
            out["cb_nodes"] = float(self.cb_nodes)
        if self.cb_ppn is not None:
            out["cb_ppn"] = float(self.cb_ppn)
        if self.cb_buffer_size is not None:
            out["cb_buffer_size"] = float(self.cb_buffer_size)
        if self.read_ahead is not None:
            out["read_ahead"] = 1.0 if self.read_ahead else 0.0
        return out


class HintEngine:
    """Maps ``(PatternSignature, MachineModel, direction)`` to a
    :class:`TuningDecision`.

    The rules mirror ROMIO-style heuristics, adapted to what the simulation
    actually rewards (measured against the deterministic cost model):

    * **contiguous** views — each rank owns an (almost) private byte range —
      want no aggregation at all: ``rank-ordering`` trims the small ghost
      overlaps and moves the rest fully in parallel.
    * **interleaved** views (strided / block-block / irregular) want
      two-phase aggregation: the aggregate domain is re-partitioned into
      contiguous per-aggregator chunks, converting the fine-grained
      interleave into large sequential transfers; ``cb_buffer_size`` records
      the stripe-aligned per-aggregator domain chunk.
    * at large ``P`` the flat shuffle's fan-out dominates, so the engine
      switches to the hierarchical variant with ``cb_ppn`` node-local
      combining.

    ``locking`` is never proposed: even where supported, the extent locks of
    interleaved patterns cover nearly the whole file and serialise (the
    paper's Section 3.4 argument), and ``auto`` must stay runnable on the
    lockless machines.
    """

    #: Above this rank count the flat alltoallv metadata dominates and the
    #: hierarchical strategy wins (PR 6's scale sweep).
    hier_threshold: int = 64
    #: Node width assumed when deriving ``cb_ppn`` (the paper's clusters).
    default_ppn: int = 8

    def decide(
        self, signature: PatternSignature, machine: MachineModel, direction: str = "write"
    ) -> TuningDecision:
        """The decision for one collective's pattern, in ``direction``.

        The two directions differ in two things.  **Flat aggregator count**:
        a write wants few aggregators — half the server count measures best
        across the machine presets: it keeps every server busy (two
        aggregators interleave on one server's stripes) without paying the
        full shuffle fan-out of one aggregator per server, and more writers
        than servers only adds fan-out.  A read has no commit side, so the
        fetch phase scales with server parallelism and the only brake is
        shuffle latency: two aggregators per I/O server keep every server's
        pipeline full without over-paying alltoallv latency — the measured
        optimum on both the many-server (XFS, best at ``cb = P``) and
        single-server (ENFS, best at ``cb = 2``) presets.  **Client cache**:
        a write leaves the handle's read-ahead alone; contiguous readers
        walk their range sequentially, so read-ahead turns page misses into
        hits and stays on; aggregation delegates fetch *direct*
        (cache-bypassing) and scatter-feed the consumers, so read-ahead would
        only prefetch pages nobody reads through the cache — off.
        """
        reading = direction == "read"
        if signature.kind == "contiguous":
            return TuningDecision(
                strategy="rank-ordering", read_ahead=True if reading else None
            )
        nprocs = max(1, signature.nprocs)
        if nprocs >= self.hier_threshold:
            strategy, ppn = "two-phase-hier", self.default_ppn
            nodes = -(-nprocs // ppn)
            cb_nodes = max(1, min(nodes, max(machine.num_servers, nodes // 4)))
        else:
            strategy, ppn = "two-phase", None
            wanted = 2 * machine.num_servers if reading else machine.num_servers // 2
            cb_nodes = min(nprocs, max(1, wanted))
        return TuningDecision(
            strategy=strategy,
            cb_nodes=cb_nodes,
            cb_ppn=ppn,
            cb_buffer_size=self._chunk(1 << signature.domain_bucket, cb_nodes, machine),
            read_ahead=False if reading else None,
        )

    @staticmethod
    def _chunk(domain_bytes: int, cb_nodes: int, machine: MachineModel) -> int:
        """Stripe-aligned per-aggregator file-domain chunk."""
        stripe = max(1, machine.stripe_size)
        raw = -(-domain_bytes // max(1, cb_nodes))
        return max(stripe, -(-raw // stripe) * stripe)


# -- per-file tuning records --------------------------------------------------


@dataclass
class PlanEntry:
    """One cached collective plan: the exchanged views and their signature.

    The entry is direction-agnostic: a cached plan seeded by a write collective
    replays for a read of the same views (and vice versa) — the signature is
    looked up in the decision table under the collective's direction at
    resolution time, so the two never hand each other the wrong decision.
    """

    signature: PatternSignature
    #: The shared exchanged region list.  Replayed *by identity* on a hit, so
    #: the products built on it (:meth:`SharedList.once`) are replayed too.
    regions: SharedList
    #: Per-rank fingerprints ``(num_segments, total_bytes, hash(segments))``.
    fingerprints: Tuple[Tuple[int, int, int], ...]


class FileTuningRecord:
    """Adaptive-I/O state for one ``(file system, filename)`` pair.

    Shared by every rank's strategy instance (the simulated ranks live in one
    process and one :class:`~repro.fs.filesystem.ParallelFileSystem`), and —
    unlike the strategy instances — it survives ``Close``/``Open``: the hint
    cache (``decisions``) is the persistent layer, while ``entry`` (the plan
    cache) is dropped on every ``Set_view``/hint change.
    """

    def __init__(self) -> None:
        #: Persistent hint cache: ``(direction, signature)`` -> tuning
        #: decision (reads reward different cache coupling and aggregator
        #: counts, so the direction is part of the key).
        self.decisions: Dict[Tuple[str, PatternSignature], TuningDecision] = {}
        #: Cross-collective plan cache (at most one live entry).
        self.entry: Optional[PlanEntry] = None
        #: Plan-cache accounting (collectives, not ranks).
        self.hits = 0
        self.misses = 0
        #: Host CPU spent resolving views (summed over ranks): what a warm
        #: collective actually saves.  Thread CPU time with the stopwatch
        #: stopped across the allgather (whose thread may run other ranks'
        #: steps) — this measures the payload construction, region
        #: rebuilding, classification and verification work, which is
        #: exactly the work the plan cache elides.
        self.cold_cpu = 0.0
        self.warm_cpu = 0.0


_RECORDS: Dict[Tuple[int, str], FileTuningRecord] = {}


def record_for(fs, filename: str) -> FileTuningRecord:
    """The (created-on-demand) tuning record for ``filename`` on ``fs``.

    Keyed by file-system identity so two simulated machines never share
    tuning state; a finalizer drops the record when the file system dies, so
    a recycled ``id()`` can never resurrect stale state.
    """
    key = (id(fs), str(filename))
    record = _RECORDS.get(key)
    if record is None:
        record = FileTuningRecord()
        _RECORDS[key] = record
        weakref.finalize(fs, _RECORDS.pop, key, None)
    return record


def peek_record(fs, filename: str) -> Optional[FileTuningRecord]:
    """The tuning record if one exists (no creation) — for tests/inspection."""
    return _RECORDS.get((id(fs), str(filename)))


def notify_view_change(fs, filename: str) -> None:
    """Invalidate the plan cache after ``Set_view`` (idempotent, per rank)."""
    record = peek_record(fs, filename)
    if record is not None:
        record.entry = None


def notify_hint_change(fs, filename: str) -> None:
    """Invalidate plans *and* decisions after a hint change (idempotent)."""
    record = peek_record(fs, filename)
    if record is not None:
        record.entry = None
        record.decisions.clear()


# -- the adaptive strategy ----------------------------------------------------

#: A resolution: the shared region list, the signature, and the hit verdict.
#: (Direction-agnostic — the decision is looked up from the signature.)
_Resolution = Tuple[SharedList, PatternSignature, bool]


@register_strategy
class AutoStrategy(AtomicityStrategy):
    """``atomicity_strategy = auto``: classify, tune, cache, delegate.

    Collective-count parity with the statics: every prepare is one
    allgather (plus, for aggregation delegates, the delegate's own shuffle),
    so makespans are directly comparable.  See the module docstring for the
    plan-cache protocol.
    """

    name = "auto"

    def __init__(self, plan_cache: bool = True) -> None:
        self.plan_cache = bool(plan_cache)
        self.engine = HintEngine()
        self._machine = MachineModel()
        self._record: Optional[FileTuningRecord] = None
        self._fallback: Optional[FileTuningRecord] = None
        #: The decision taken by the most recent collective (harness/jsonlog
        #: report it as ``selected_strategy`` + ``cb_*``).
        self.last_decision: Optional[TuningDecision] = None

    # -- context binding ------------------------------------------------------

    def bind_context(self, fs, filename: str) -> None:
        """Attach the per-file tuning record and the machine model.

        Called by the executors and :class:`repro.io.file.MPIFile` when the
        strategy is associated with a concrete file.  Unbound instances fall
        back to a private record and the default (lockless) machine model.
        """
        self._machine = MachineModel.from_fs(fs)
        self._record = record_for(fs, filename)

    def _active_record(self) -> FileTuningRecord:
        if self._record is not None:
            return self._record
        if self._fallback is None:
            self._fallback = FileTuningRecord()
        return self._fallback

    # -- resolution protocol --------------------------------------------------

    @staticmethod
    def _fingerprint(region: FileRegionSet) -> Tuple[int, int, int]:
        return (region.num_segments, region.total_bytes, hash(region.segments))

    def _decision_for(
        self, record: FileTuningRecord, signature: PatternSignature, direction: str
    ) -> TuningDecision:
        """Get-or-create ``direction``'s decision for ``signature``."""
        decision = record.decisions.get((direction, signature))
        if decision is None:
            decision = self.engine.decide(signature, self._machine, direction)
            record.decisions[direction, signature] = decision
        return decision

    def _resolve(
        self, comm, region: FileRegionSet, direction: str = "write"
    ) -> Tuple[SharedList, TuningDecision, bool]:
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
        regions, signature, hit = shared.once(
            "auto", lambda: self._decide(comm.size, shared, record)
        )
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

        Runs exactly once per collective (a product of the shared list) on
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
        regions = SharedList()
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

    # -- the pipeline, via the delegate ---------------------------------------

    def adopt(self, plan, decision: TuningDecision):
        """Brand a delegate's plan as ``auto``'s and record the tuned hints.

        The one site every delegated plan passes through — both directions,
        engine and bulk replay alike — so the outcomes of the two substrates
        cannot drift apart.
        """
        plan.strategy = self.name
        plan.extra.update(decision.hints())
        return plan

    def prepare(self, comm, region, start_time, data=None) -> PreparedIO:  # noqa: D102
        if data is not None:
            self._check_request(region, data)
        direction = "read" if data is None else "write"
        regions, decision, _ = self._resolve(comm, region, direction)
        prepared = decision.delegate()._scheduled(comm, region, start_time, data, regions)
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
        return decision.delegate().commit(comm, handle, prepared)

    @staticmethod
    def _apply_read_ahead(handle, enabled: bool) -> None:
        """Couple the decision's ``read_ahead`` verdict to the client cache,
        by the ``read_ahead`` hint's rule
        (:meth:`~repro.fs.cache.CachePolicy.toggled_read_ahead`).

        Free in simulated time (a pure policy swap) — it changes which pages
        future cached reads prefetch, not the clock.
        """
        cache = handle.cache
        policy = cache.policy
        pages = handle.client.fs.config.cache_policy.toggled_read_ahead(enabled)
        if policy.read_ahead_pages != pages:
            cache.policy = replace(policy, read_ahead_pages=pages)

    def schedule(self, comm, region, data, regions):  # noqa: D102
        raise RuntimeError(
            "AutoStrategy delegates scheduling to the tuned strategy; "
            "prepare is the entry point"
        )

    # -- bulk-replay support ---------------------------------------------------

    def resolve_static(
        self, regions: Sequence[FileRegionSet], direction: str = "write"
    ) -> TuningDecision:
        """Classify and decide without a collective, for the bulk replay.

        The bulk executor already holds every rank's regions, so no exchange
        is needed; the plan cache does not apply (one-shot replay).  The
        caller runs the decision's delegate and brands its plans with
        :meth:`adopt`.
        """
        decision = self._decision_for(self._active_record(), classify_pattern(regions), direction)
        self.last_decision = decision
        return decision
