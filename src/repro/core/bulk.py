"""Bulk-synchronous scale executor: the engine's answer without the engine.

:class:`~repro.core.executor.AtomicWriteExecutor` runs every rank as a
cooperative engine task on a parked OS thread.  That is the right model for
arbitrary rank programs — any blocking pattern works — but even recycled
carrier threads put a ceiling in the tens of thousands of ranks: stacks,
handoffs and ready-heap traffic all scale with ``P``.  The aggregation
strategies need none of that generality.  Their rank program is a fixed
bulk-synchronous sequence — collective, pure local compute, collective,
file I/O — which :mod:`repro.core.strategies` writes **once**, as a
per-rank coroutine that yields at each sparse exchange.  The engine pumps
one coroutine per task against the communicator; this module is the second
driver of the very same coroutines, with plain per-rank state and no tasks:

* ``_lockstep`` advances all ``P`` coroutines to their next ``yield``,
  synchronises every clock to the latest arrival, charges each rank its own
  payload cost — exactly what ``Communicator._collective`` computes, in
  closed form — then transposes the payloads and resumes.
* ``_sweep`` is a driver too, not a replay: the file I/O of the plans the
  coroutines return is the same step iterators the engine's
  :meth:`~repro.core.engine.Engine.drive` steps
  (:func:`~repro.core.pipeline.transfer_steps` over the real
  :class:`~repro.fs.client.ClientFileHandle` / shared
  :class:`~repro.fs.costmodel.Resource` stack), one per rank, resumed in
  ascending ``(virtual clock, rank)`` order — the engine's min-key rule
  (a running task keeps the resources while its key is minimal; ties resume
  in task-id order, and task ids are assigned in rank order) on a plain heap.
  Only a rank whose plan has a transfer step gets a handle and an iterator
  (at scale, the aggregators): opening and closing a handle advances no
  clock, and the sweep refuses every plan that would use the cache, locks or
  tokens, so a handle nobody transfers through is invisible to virtual time.

Both substrates therefore produce **bit-identical** virtual times, file
bytes, per-byte provenance and outcomes; ``tests/test_core_bulk.py`` pins
it on grids and ``tests/test_bulk_differential.py`` on generated views.
What this driver gives up is generality — it runs coroutine schedules
(:class:`~repro.core.strategies.TwoPhaseStrategy`, its hierarchical
subclass, and ``auto`` when it resolves to one of them) whose plans never
park a rank — and what it buys is scale: no tasks, no threads, no handoffs,
so the Section 3.4 sweep extends to 64k ranks in seconds.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Generator, Iterator, List, Optional, Sequence

from ..fs.client import ClientFileHandle, FSClient
from ..fs.filesystem import ParallelFileSystem
from ..mpi.clock import VirtualClock, synchronize_clocks
from ..mpi.comm import SharedList
from ..mpi.cost import CommCostModel, _Volume, payload_nbytes
from ..mpi.errors import CollectiveMismatchError
from ..mpi.runtime import SPMDResult
from .executor import (
    ConcurrentReadResult,
    ConcurrentWriteResult,
    DataFactory,
    ViewFactory,
    _Executor,
    default_data_factory,
)
from .autotune import AutoStrategy
from .pipeline import IOPlan, transfer_steps
from .strategies import IOOutcome, TwoPhaseStrategy

__all__ = ["BulkReadExecutor", "BulkWriteExecutor"]

#: ``next(iterator, _DONE)``: the default that says the iterator is exhausted.
_DONE = object()


def _sweep(
    plans: Sequence[IOPlan],
    clocks: List[VirtualClock],
    handles: Dict[int, ClientFileHandle],
    buffers: Sequence[dict],
    outcomes: List[IOOutcome],
) -> None:
    """The plans' file I/O in discrete-event order: the second driver of the
    step iterators :meth:`~repro.core.engine.Engine.drive` steps on the
    engine (:func:`~repro.core.pipeline.transfer_steps`, one chain of phases
    per rank).  Each iterator rests at the sequence point before its next
    transfer; the sweep resumes the one holding the minimal ``(clock, rank)``
    key — the engine's rule with ranks for task ids (sequence points no-op
    outside engine tasks; the heap IS the sequencing).  ``handles`` holds the
    ranks that transfer anything (:meth:`_BulkExecutor._handles`); the others
    have no iterator to resume.  It never parks a rank, so it refuses — on
    the plan itself, whichever strategy built it — what would need more:
    locks, barriers, or phases that go through the client cache.
    """
    for plan in plans:
        if plan.locks or any(
            phase.barrier_after
            or not phase.direct
            or phase.sync_after
            or phase.invalidate_before
            for phase in plan.phases
        ):
            raise TypeError(
                f"rank {plan.rank}'s {plan.strategy!r} plan holds locks, barriers "
                "or cached/synced/invalidating phases; it must run on the engine "
                "executors"
            )
    def rank_steps(plan, handle, buffer, outcome):
        for phase in plan.phases:
            yield from transfer_steps(handle, plan.direction, phase, buffer, outcome)

    # One iterator per transferring rank, each advanced to its first sequence
    # point (which advances no clock); steps of no bytes drop out.
    iters = {
        rank: rank_steps(plans[rank], handle, buffers[rank], outcomes[rank])
        for rank, handle in handles.items()
    }
    heap = [
        (clocks[rank].now, rank)
        for rank, steps in iters.items()
        if next(steps, _DONE) is not _DONE
    ]
    heapq.heapify(heap)
    while heap:
        rank = heap[0][1]
        if next(iters[rank], _DONE) is _DONE:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (clocks[rank].now, rank))


class _BulkExecutor(_Executor):
    """What the two directions share: the type guard, stage 1, the handles."""

    def __init__(
        self,
        fs: ParallelFileSystem,
        strategy: TwoPhaseStrategy,
        filename: str = "shared.dat",
        comm_cost: Optional[CommCostModel] = None,
    ) -> None:
        # The adaptive strategy is accepted too: it resolves to a two-phase
        # delegate at run time (and the run raises TypeError if its decision
        # is not an aggregation schedule).
        if not isinstance(strategy, (TwoPhaseStrategy, AutoStrategy)):
            raise TypeError(
                f"{type(self).__name__} drives aggregation schedules only; "
                f"{type(strategy).__name__} must run on the engine executors"
            )
        super().__init__(fs, strategy, filename, comm_cost)

    def _exchange(self, regions: SharedList, clocks, direction: str):
        """Stage 1 — view exchange and negotiation, for both directions.

        Returns ``(delegate, negotiation, adopt)``: the aggregation strategy
        whose coroutines to drive, its per-collective record, and the
        function every plan it builds passes through.  ``regions`` is built
        as the engine's exchange builds its region list
        (:func:`~repro.core.pipeline.shared_regions`), and the negotiation is
        its product here as there.  The adaptive strategy resolves to its
        tuned delegate without a collective (the driver already holds every
        rank's regions) and ships a tagged flattened view of
        ``1 + 2 * segments`` elements, costed honestly.
        """
        if isinstance(self.strategy, AutoStrategy):
            decision = self.strategy.resolve_static(regions, direction)
            delegate = decision.delegate()
            if not isinstance(delegate, TwoPhaseStrategy):
                raise TypeError(
                    f"auto selected {decision.strategy!r} for this pattern, which "
                    "the bulk replay cannot execute; use the engine executors"
                )
            adopt = lambda plan: self.strategy.adopt(plan, decision)  # noqa: E731
            shipped = [_Volume(1 + 2 * r.num_segments) for r in regions]
        else:
            delegate, adopt = self.strategy, lambda plan: plan
            shipped = [r.segments for r in regions]
        synchronize_clocks(clocks, [self.comm_cost.cost(view) for view in shipped])
        return delegate, delegate.negotiation(regions), adopt

    def _lockstep(self, schedules: Sequence[Generator], clocks: List[VirtualClock]) -> list:
        """Drive every rank's schedule coroutine, one sparse exchange per round.

        A coroutine yields the ``{dest: payload}`` dict it would hand
        ``comm.alltoallv_sparse`` and is resumed with its ``[(src, payload)]``
        pairs in ascending source order; as on the engine, the bytes charged
        are those sent to *other* ranks.  Returns the coroutines' return
        values.  They must all finish in the same round: ranks that disagree
        about the schedule fail as loudly here as in ``Communicator``.
        """
        nprocs = len(schedules)
        # ``send(None)`` starts a coroutine; later rounds deliver what arrived,
        # held sparsely (most ranks of a hierarchical hop receive nothing) and
        # let go of as it is delivered.
        inboxes: dict = dict.fromkeys(range(nprocs))
        latency, byte_cost = self.comm_cost.latency, self.comm_cost.byte_cost
        while True:
            arriving, costs, returned = defaultdict(list), [], {}
            for rank, schedule in enumerate(schedules):
                try:
                    outgoing = schedule.send(inboxes.pop(rank, ()))
                except StopIteration as done:
                    returned[rank] = done.value
                    continue
                network_bytes = 0
                for dest, payload in outgoing.items():
                    if not 0 <= dest < nprocs:
                        raise CollectiveMismatchError(
                            f"rank {rank} names destination {dest} outside the "
                            f"{nprocs} replayed ranks"
                        )
                    arriving[dest].append((rank, payload))
                    if dest != rank:
                        network_bytes += payload_nbytes(payload)
                # ``comm_cost.cost`` of a payload of ``network_bytes`` bytes.
                costs.append(latency + byte_cost * float(network_bytes))
            if returned and costs:
                exchanging = [rank for rank in range(nprocs) if rank not in returned]
                raise CollectiveMismatchError(
                    f"ranks disagree on the schedule: ranks {list(returned)[:8]} "
                    f"finished while ranks {exchanging[:8]} still exchange "
                    f"({len(returned)} against {len(exchanging)}, first 8 named)"
                )
            if returned:
                return list(returned.values())
            synchronize_clocks(clocks, costs)
            inboxes = arriving

    @contextmanager
    def _handles(
        self, plans: Sequence[IOPlan], clocks: List[VirtualClock], create: bool
    ) -> Iterator[Dict[int, ClientFileHandle]]:
        """An open handle, on the rank's own clock, for every rank whose plan
        has a transfer step (see the module docstring for why the others
        need none); all are closed on the way out, however the sweep ends."""
        handles: Dict[int, ClientFileHandle] = {}
        try:
            for rank, plan in enumerate(plans):
                if any(phase.steps for phase in plan.phases):
                    client = FSClient(self.fs, client_id=rank, clock=clocks[rank])
                    handles[rank] = client.open(self.filename, create)
            yield handles
        finally:
            for handle in handles.values():
                handle.close()


class BulkWriteExecutor(_BulkExecutor):
    """Drop-in replacement for :class:`AtomicWriteExecutor` at scale.

    Same constructor and :meth:`run` contract, same
    :class:`~repro.core.executor.ConcurrentWriteResult`; only the execution
    substrate differs.  Raises :class:`TypeError` for strategies whose
    schedule is not a coroutine it can drive.
    """

    def run(
        self,
        nprocs: int,
        view_factory: ViewFactory,
        data_factory: DataFactory = default_data_factory,
    ) -> ConcurrentWriteResult:
        """Execute the concurrent write on ``nprocs`` replayed ranks."""
        regions = self._views(nprocs, view_factory)
        datas = [data_factory(region.rank, region.total_bytes) for region in regions]
        for region, data in zip(regions, datas):
            self.strategy._check_request(region, data)
        fobj = self.fs.create(self.filename)
        clocks = [VirtualClock() for _ in regions]
        delegate, negotiation, adopt = self._exchange(regions, clocks, "write")

        # Stages 2+3 — every rank's shuffle coroutine, to its write plan.
        prepared = self._lockstep(
            [delegate.shuffle(r, data, negotiation) for r, data in zip(regions, datas)],
            clocks,
        )
        plans = [adopt(plan) for plan, _ in prepared]
        outcomes = [IOOutcome.from_plan(plan, 0.0) for plan in plans]

        # Stage 4 — the plans' writes against the real resource stack.
        with self._handles(plans, clocks, create=True) as handles:
            _sweep(plans, clocks, handles, [payloads for _, payloads in prepared], outcomes)
        for outcome, clock in zip(outcomes, clocks):
            outcome.end_time = clock.now

        return ConcurrentWriteResult(
            filename=self.filename,
            fs=self.fs,
            file=fobj,
            outcomes=outcomes,
            spmd=SPMDResult(returns=list(outcomes), clocks=clocks),
            regions=regions,
        )


class BulkReadExecutor(_BulkExecutor):
    """Drop-in replacement for :class:`CollectiveReadExecutor` at scale.

    Same constructor and :meth:`run` contract, same
    :class:`~repro.core.executor.ConcurrentReadResult`: view exchange, the
    strategy's fetch plans swept in discrete-event order, then its scatter
    coroutines (one hop flat, two hops hierarchical).  Raises
    :class:`TypeError` for strategies it cannot drive.
    """

    def run(self, nprocs: int, view_factory: ViewFactory) -> ConcurrentReadResult:
        """Execute the collective read on ``nprocs`` replayed ranks."""
        regions = self._views(nprocs, view_factory)
        fobj = self.fs.lookup(self.filename)
        clocks = [VirtualClock() for _ in regions]
        delegate, negotiation, adopt = self._exchange(regions, clocks, "read")
        plans = [adopt(delegate.fetch_plan(region, negotiation)) for region in regions]
        outcomes = [IOOutcome.from_plan(plan, 0.0) for plan in plans]
        sinks = [plan.sinks() for plan in plans]

        # Phase 1 — aggregator fetch, one direct read per heap pop.
        # (``execute_read`` flushes first; these fresh handles have clean caches.)
        with self._handles(plans, clocks, create=False) as handles:
            _sweep(plans, clocks, handles, sinks, outcomes)

        # Phase 2 — every rank's scatter coroutine, to its data stream.
        streams = self._lockstep(
            [
                delegate.scatter(region, negotiation, outcome, sink)
                for region, outcome, sink in zip(regions, outcomes, sinks)
            ],
            clocks,
        )
        for outcome, clock, stream in zip(outcomes, clocks, streams):
            outcome.end_time = clock.now
            outcome.bytes_returned = len(stream)

        return ConcurrentReadResult(
            filename=self.filename,
            fs=self.fs,
            file=fobj,
            outcomes=outcomes,
            spmd=SPMDResult(returns=list(zip(streams, outcomes)), clocks=clocks),
            regions=regions,
            data=streams,
        )
