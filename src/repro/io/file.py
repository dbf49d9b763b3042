"""The MPI-IO file object (ROMIO equivalent).

:class:`MPIFile` reproduces the slice of the MPI-IO interface the paper's
code fragment (Figure 4) exercises, on top of the file system substrate:

* collective ``Open`` / ``Close`` (``Close`` flushes write-behind data — an
  implicit ``Sync`` — and refuses to close over unfinished requests)
* ``Set_view`` with an etype/filetype/displacement triple built from the
  derived-datatype constructors
* ``Set_atomicity`` / ``Get_atomicity``
* collective ``Write_all`` / ``Read_all`` and independent ``Write_at`` /
  ``Read_at`` / ``Write`` / ``Read`` (individual file pointer); every
  data-access call returns an :class:`~repro.core.strategies.IOOutcome`
  (a nonblocking one from its request's ``Wait``)
* **nonblocking** forms ``Iwrite_all`` / ``Iread_all`` / ``Iwrite_at`` /
  ``Iread_at`` returning a :class:`~repro.mpi.status.Request` — the same
  request a point-to-point ``irecv`` returns, which completes when a send,
  after its sequence point, deposits a message it is the earliest-posted
  match for (``Wait`` / ``Test``, plus :func:`~repro.mpi.status.Waitall` /
  ``Testall`` / ``Waitany`` over lists of both)
* **split-collective** forms ``Write_all_begin`` / ``Write_all_end`` (and
  the read pair): ``begin`` pins the negotiation/exchange phase on the
  calling rank, the commit runs detached, ``end`` joins it
* ``Sync``

The blocking collectives are thin wrappers — ``Write_all`` is literally
``Iwrite_all(...).Wait()``.  A nonblocking operation executes on a *detached
progress task* with its own virtual clock (see
:meth:`repro.mpi.comm.Communicator.dup_detached`), so computation issued
between the call and its ``Wait`` overlaps the collective's shuffle and
commit phases in virtual time; the request completes when the progress task
ends, and ``Wait`` joins the caller's clock to that end.  Requests on one
file are executed in issue order (the MPI ordering rule for nonblocking
collectives), which also keeps the progress communicator's rendezvous
consistent across ranks.

In **atomic mode** the collective write is delegated to one of the paper's
three strategies (:mod:`repro.core.strategies`); which one is chosen via the
``atomicity_strategy`` Info hint or the file system's best supported default
(locking where available — the ROMIO behaviour — otherwise process-rank
ordering).  Strategy tunables also come from the Info bag — ``cb_nodes`` /
``cb_buffer_size`` steer two-phase aggregator election, ``striping_unit``
overrides the file's stripe size, ``read_ahead`` / ``read_ahead_pages``
tune the client cache (see :mod:`repro.io.info` for the full table).  In
non-atomic mode the segments are written independently, which is exactly
the situation in which overlapping writes may interleave (Figure 2).

There is one data path.  An independent call is a one-rank
:class:`~repro.core.pipeline.IOPlan` with no view exchange, run by the same
:func:`~repro.core.pipeline.run_plan` as every collective: in atomic mode
it locks its extent (exclusive to write, shared to read — Section 3.2's only
correct option for non-collective I/O) and transfers directly.

Collective reads are symmetric: ``Read_all`` runs the selected strategy's
read schedule through the same staged pipeline (shared-mode locks,
invalidate-then-read, or two-phase aggregate-and-scatter — see
:mod:`repro.core.pipeline`) and returns the same
:class:`~repro.core.strategies.IOOutcome` record; even the non-atomic
baseline invalidates cached pages first so a collective read observes
everything its peers flushed before the call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..core import autotune
from ..core.engine import TaskCancelled, current_task
from ..core.pipeline import (
    USER_PAYLOAD,
    IOPlan,
    LockDirective,
    PhasePlan,
    TransferStep,
    run_plan,
)
from ..core.regions import FileRegionSet
from ..core.registry import default_registry
from ..core.strategies import (
    AtomicityStrategy,
    IOOutcome,
    NoAtomicityStrategy,
)
from ..fs.lockmanager import LockMode
from ..fs.striping import StripingLayout
from ..datatypes.datatype import Datatype
from ..datatypes.pack import pack, unpack
from ..datatypes.typemap import BasicType
from ..fs.client import ClientFileHandle, FSClient
from ..fs.filesystem import ParallelFileSystem
from ..mpi.comm import Communicator
from ..mpi.errors import CollectiveAbortedError
from ..mpi.status import Request
from .fileview import FileView
from .info import Info, InvalidHint
from .modes import MODE_CREATE, MODE_RDONLY, MODE_RDWR, MODE_WRONLY

__all__ = ["MPIFile"]

Buffer = Union[bytes, bytearray, np.ndarray]


def _check_hints(info: Info) -> None:
    """Parse every typed hint and check that ``atomicity_strategy`` names a
    registered strategy, so a bad hint fails at ``Open`` / ``Set_view``
    rather than at the first call that reads it."""
    info.validate()
    name = info.get("atomicity_strategy")
    if name and name not in default_registry:
        known = ", ".join(default_registry.names())
        raise InvalidHint("atomicity_strategy", name, f"a registered strategy ({known})")


def _as_bytes(buffer: Buffer, datatype: Optional[Datatype], count: Optional[int]) -> bytes:
    """Render a user buffer as the contiguous data stream to be written."""
    if datatype is not None:
        return pack(buffer, datatype, count if count is not None else 1)
    if isinstance(buffer, np.ndarray):
        return np.ascontiguousarray(buffer).tobytes()
    return bytes(buffer)


class MPIFile:
    """An open MPI file handle for one rank.

    Construction is collective (all ranks of ``comm`` must construct
    together, which :meth:`Open` guarantees): besides the rank's main file
    handle it sets up the *progress substrate* for nonblocking I/O — a
    detached duplicate of the communicator plus a second client handle on
    the same file, both running on an independent virtual clock.
    """

    def __init__(
        self,
        comm: Communicator,
        filename: str,
        fs: ParallelFileSystem,
        amode: int,
        info: Optional[Info] = None,
    ) -> None:
        self.comm = comm
        self.filename = filename
        self.fs = fs
        self.amode = amode
        self.info = info.copy() if info is not None else Info()
        _check_hints(self.info)
        # The file-system client id must be unique per *process*, not per
        # communicator rank: two groups split from the world communicator
        # both have a rank 0, and byte-range locks are owner-aware (a
        # process's own locks never conflict).  The engine task id is the
        # process identity — for world-communicator files it equals the rank,
        # so per-byte provenance still reads as the writing rank.
        task = current_task()
        client_id = task.tid if task is not None else comm.rank
        # The ``provenance_base`` hint pins the *global* identity instead:
        # coupled groups and multi-tenant jobs racing on one file each pass
        # a disjoint base so client ids — and therefore per-byte provenance,
        # whichever strategy records it — read as ``base + rank`` and the
        # cross-group atomicity verifiers can be keyed globally.
        provenance_base = self.info.get_int("provenance_base", -1)
        if provenance_base >= 0:
            client_id = provenance_base + comm.rank
        self._client = FSClient(
            fs,
            client_id=client_id,
            clock=comm.clock,
            provenance_base=max(provenance_base, 0),
        )
        # Open always creates (a long-standing simplification: MODE_CREATE is
        # accepted but not required for missing files).  The progress handle
        # below opens with create=False and relies on this ordering.
        self._handle = self._client.open(filename, create=True)
        self._view = FileView.default()
        self._atomic = False
        self._auto_strategy: Optional[AtomicityStrategy] = None
        self._non_atomic = NoAtomicityStrategy()
        self._position = 0  # individual file pointer, in etypes
        self._closed = False
        # -- nonblocking-I/O substrate: detached communicator + second handle
        # on an independent clock, so in-flight collectives never contend
        # with the rank's own timeline (compute, independent I/O).
        self._async_comm = comm.dup_detached()
        self._async_client = FSClient(
            fs,
            client_id=client_id,
            clock=self._async_comm.clock,
            provenance_base=max(provenance_base, 0),
        )
        self._async_handle = self._async_client.open(filename, create=False)
        self._outstanding: List[Request] = []
        self._chain_tail: Optional[Request] = None
        #: ``(direction, request)`` of the active split collective.
        self._split_active: Optional[Tuple[str, Request]] = None
        self._request_seq = itertools.count(1)
        self._apply_open_hints()

    # -- lifecycle -----------------------------------------------------------------

    @classmethod
    def Open(  # noqa: N802 - MPI spelling
        cls,
        comm: Communicator,
        filename: str,
        fs: ParallelFileSystem,
        amode: int = MODE_RDWR | MODE_CREATE,
        info: Optional[Info] = None,
    ) -> "MPIFile":
        """Collectively open ``filename`` on ``fs``; all ranks must call."""
        f = cls(comm, filename, fs, amode, info)
        comm.barrier()
        return f

    def Close(self) -> None:  # noqa: N802 - MPI spelling
        """Collectively close the file.

        Flushes all write-behind cache data (an implicit :meth:`Sync`) and
        synchronises the ranks.  Closing with outstanding unfinished
        :class:`~repro.mpi.status.Request`\\ s — issued but never
        completed with ``Wait`` or a true ``Test`` — raises ``RuntimeError``:
        a request's data is only guaranteed readable-after once it has been
        waited on, so dropping one across a close is a program error.
        """
        if not self._closed:
            if self._outstanding:
                labels = ", ".join(r._label for r in self._outstanding[:4])
                raise RuntimeError(
                    f"Close of {self.filename!r} with {len(self._outstanding)} "
                    f"outstanding I/O request(s) ({labels}{'…' if len(self._outstanding) > 4 else ''}): "
                    "complete them with Wait/Test (or Waitall) first"
                )
            self._handle.close()  # flushes this handle's write-behind pages
            self._async_handle.close()
            self.comm.release_detached(self._async_comm)
            self._closed = True
        self.comm.barrier()

    # -- view management -----------------------------------------------------------

    def Set_view(  # noqa: N802 - MPI spelling
        self,
        disp: int,
        etype: Union[Datatype, BasicType],
        filetype: Union[Datatype, BasicType, None] = None,
        datarep: str = "native",
        info: Optional[Info] = None,
    ) -> None:
        """Set this process's file view (``MPI_File_set_view``)."""
        if datarep != "native":
            raise NotImplementedError("only the 'native' data representation is supported")
        if info is not None:
            _check_hints(info)
            for key in info.keys():
                self.info.set(key, info.get(key))
            self._auto_strategy = None  # hints changed: re-derive the strategy
            self._apply_cache_hints()
            # Hints changed: the adaptive tuner must drop its cached plans
            # *and* decisions for this file (idempotent across ranks).
            autotune.notify_hint_change(self.fs, self.filename)
        self._view = FileView.create(disp, etype, filetype if filetype is not None else etype)
        self._position = 0
        # A cached collective plan must never be replayed against a changed
        # view; conservatively invalidate on every Set_view.
        autotune.notify_view_change(self.fs, self.filename)

    # -- Info hints ----------------------------------------------------------------

    def _apply_open_hints(self) -> None:
        """Apply the hints that configure the file/cache at open time."""
        striping_unit = self.info.get_int("striping_unit", 0)
        if striping_unit > 0 and striping_unit != self._handle.file.layout.stripe_size:
            # The byte store is layout-agnostic, so restriping only redirects
            # which servers future transfers are charged to — safe even when
            # the file already holds data.  All ranks carry the same hint, so
            # the assignment is idempotent across the collective open.
            self._handle.file.layout = StripingLayout(
                num_servers=self.fs.config.num_servers, stripe_size=striping_unit
            )
        self._apply_cache_hints()

    def _apply_cache_hints(self) -> None:
        """Apply the read-ahead hints to both of this rank's cache policies."""
        updates = {}
        # Tri-state toggle: absent leaves the configured policy alone.
        toggle = self.info.get_bool("read_ahead", None)
        if toggle is not None:
            updates["read_ahead_pages"] = self.fs.config.cache_policy.toggled_read_ahead(toggle)
        pages = self.info.get_int("read_ahead_pages", -1)
        if pages >= 0:
            updates["read_ahead_pages"] = pages
        if not updates:
            return
        for handle in (self._handle, self._async_handle):
            handle.cache.policy = replace(handle.cache.policy, **updates)

    # -- atomicity ---------------------------------------------------------------------

    def Set_atomicity(self, flag: bool) -> None:  # noqa: N802 - MPI spelling
        """Enable or disable MPI atomic mode (collective)."""
        self._atomic = bool(flag)
        self.comm.barrier()

    def Get_atomicity(self) -> bool:  # noqa: N802 - MPI spelling
        """Whether atomic mode is enabled."""
        return self._atomic

    def effective_strategy(self) -> AtomicityStrategy:
        """The strategy that an atomic collective operation will use.

        Resolution order: the ``atomicity_strategy`` Info hint, then the file
        system's best supported default — byte-range locking where available
        (the ROMIO behaviour), process-rank ordering on lock-less file
        systems (ENFS).  The instance is built through the registry's
        Info-aware constructor, so hints like ``cb_nodes`` reach aggregator
        election, and it is cached until the hints change.
        """
        if self._auto_strategy is None:
            hint = self.info.get("atomicity_strategy")
            if not hint:
                hint = "locking" if self.fs.config.supports_locking() else "rank-ordering"
            self._auto_strategy = default_registry.create_from_info(hint, self.info)
            self._auto_strategy.bind_context(self.fs, self.filename)
        return self._auto_strategy

    def _collective_strategy(self) -> AtomicityStrategy:
        """The strategy governing a collective data-access call right now."""
        return self.effective_strategy() if self._atomic else self._non_atomic

    # -- helpers ------------------------------------------------------------------------

    def _region_for(self, nbytes: int, etype_position: int) -> FileRegionSet:
        segments = self._view.segments_for(
            nbytes, stream_position=etype_position * self._view.etype_size
        )
        return FileRegionSet(self.comm.rank, segments)

    def _stream(
        self, direction: str, buffer: Buffer, count: Optional[int], datatype: Optional[Datatype]
    ) -> Tuple[Optional[bytes], int]:
        """The checked request of a data-access call: ``(data, nbytes)``, the
        stream a write captures at issue (``None`` for a read) and its size.

        A read whose ``buffer`` cannot be filled raises ``TypeError`` here,
        before any flush, rendezvous or I/O.
        """
        if direction == "write":
            self._check_writable()
            data = _as_bytes(buffer, datatype, count)
            return data, len(data)
        self._check_readable()
        if datatype is not None:
            if isinstance(buffer, bytes):
                raise TypeError("cannot read into an immutable bytes object")
        elif not isinstance(buffer, (np.ndarray, bytearray)):
            raise TypeError(f"cannot read into buffer of type {type(buffer).__name__}")
        return None, self._data_stream_size(buffer, datatype, count)

    def _data_stream_size(self, buffer: Buffer, datatype: Optional[Datatype], count: Optional[int]) -> int:
        if datatype is not None:
            return datatype.size * (count if count is not None else 1)
        if isinstance(buffer, np.ndarray):
            return buffer.nbytes
        return len(buffer)

    # -- the request machinery ---------------------------------------------------------

    def _issue(
        self,
        label: str,
        kind: str,
        body: Callable[[Communicator, ClientFileHandle], object],
        collective: bool = True,
    ) -> Request:
        """Spawn ``body`` as a detached progress task; return its request.

        The body receives the progress communicator and the progress file
        handle (independent clock).  Requests on one file are chained in
        issue order — request *n* starts only after request *n-1* completed —
        which is both the MPI ordering rule for nonblocking collectives and
        what keeps the progress communicator's rendezvous consistent across
        ranks.  A failing collective body aborts the progress communicator so
        every peer's in-flight request surfaces
        :class:`~repro.mpi.errors.CollectiveAbortedError` instead of
        deadlocking.
        """
        task = current_task()
        if task is None:
            raise RuntimeError(
                "nonblocking file I/O must run inside an engine task "
                "(start the program through run_spmd)"
            )
        # Read-your-own-writes across handles: data this rank wrote through
        # the blocking independent path may still sit in the main handle's
        # write-behind cache, invisible to the progress handle's transfers.
        # (A split-collective begin flushed already, before its exchange
        # rendezvous, which writes nothing: this flush finds no dirty page.)
        self._handle.sync()
        issue_time = self.comm.clock.now
        request = Request(label, on_retire=functools.partial(self._retire_request, kind))
        prev = self._chain_tail
        self._chain_tail = request
        self._outstanding.append(request)
        comm = self._async_comm
        handle = self._async_handle
        rank = self.comm.rank

        def progress() -> None:
            try:
                if prev is not None and not prev._done:
                    prev._park_until_done()
                # The operation starts no earlier than it was issued (and no
                # earlier than the previous request finished — the progress
                # clock already stands at that time).
                handle.clock.advance_to(issue_time)
                outcome = body(comm, handle)
            except TaskCancelled:
                raise
            except BaseException as exc:  # noqa: BLE001 - delivered via Wait
                error: BaseException = exc
                if collective:
                    comm.abort(exc)
                    if not isinstance(exc, CollectiveAbortedError):
                        error = CollectiveAbortedError(
                            f"nonblocking collective {label!r} aborted: rank "
                            f"{rank} raised {type(exc).__name__}: {exc}"
                        )
                        error.__cause__ = exc
                request._finish(None, error, handle.clock.now)
            else:
                request._finish(outcome, None, handle.clock.now)

        task.engine.spawn(
            progress,
            name=f"{self.filename}:{label}@{rank}",
            clock=handle.clock,
            detached=True,
        )
        return request

    def _retire_request(self, kind: str, request: Request) -> None:
        """Bookkeeping when a request is consumed by Wait / a true Test."""
        if request in self._outstanding:
            self._outstanding.remove(request)
        if self._chain_tail is request:
            self._chain_tail = None  # complete: nothing left to chain behind
        if self._split_active == (kind, request):
            self._split_active = None
        if self._closed:
            return
        # A waited-on request is readable-after: push any write-behind data
        # the detached operations left in the progress handle's cache out to
        # the servers *before* refreshing the main handle, even while later
        # requests are still in flight — the flush only moves already-written
        # dirty runs, so it cannot disorder an in-flight operation.  (Free
        # when nothing is dirty.)
        self._async_handle.sync()
        if kind == "write":
            # The operation wrote through the progress handle; pages this
            # handle cached before it are stale now.  (Dirty pages are
            # flushed first — invalidate is sync-then-invalidate.)
            self._handle.invalidate()

    def _next_label(self, op: str) -> str:
        return f"{op}#{next(self._request_seq)}"

    # -- collective data access -----------------------------------------------------------

    def _collective(
        self,
        direction: str,
        buffer: Buffer,
        count: Optional[int],
        datatype: Optional[Datatype],
        split: bool,
    ) -> Request:
        """One collective call, in any of its four request forms.

        Check, capture the data stream (or size the read), build the region
        at the individual file pointer, pick the strategy, issue, advance the
        pointer.  The forms differ in the direction and in where
        ``strategy.prepare`` — view exchange, conflict analysis and, for a
        two-phase write, the shuffle — runs: a nonblocking call prepares on
        the detached progress task, so the whole operation overlaps the
        caller's work; a split ``begin`` prepares here, on the caller's own
        timeline after flushing its main handle, and detaches only the
        commit.  A read flushes the handle it runs on before its exchange
        (see ``AtomicityStrategy.execute_read``) and scatters the delivered
        stream into ``buffer`` at completion.
        """
        if split and self._split_active is not None:
            raise RuntimeError(
                "a split collective is already active on this file; call the "
                "matching _end first (MPI allows one split collective per file)"
            )
        writing = direction == "write"
        data, nbytes = self._stream(direction, buffer, count, datatype)
        region = self._region_for(nbytes, self._position)
        strategy = self._collective_strategy()
        prepared = None
        if split:
            self._handle.sync()  # flush before the exchange rendezvous
            prepared = strategy.prepare(self.comm, region, self.comm.clock.now, data)

        def body(comm: Communicator, handle: ClientFileHandle) -> IOOutcome:
            start_time = handle.clock.now
            if not writing:
                handle.sync()  # the progress handle's own write-behind pages
            ready = prepared or strategy.prepare(comm, region, start_time, data)
            stream, outcome = strategy.commit(comm, handle, ready)
            if not writing:
                self._scatter_into(buffer, stream, datatype, count)
            return outcome

        label = f"{direction}_all_begin" if split else f"i{direction}_all"
        request = self._issue(self._next_label(label), direction, body)
        self._position += nbytes // self._view.etype_size
        if split:
            self._split_active = (direction, request)
        return request

    def _split_end(self, kind: str) -> IOOutcome:
        active = self._split_active
        if active is None or active[0] != kind:
            raise RuntimeError(f"no split collective {kind} is active on this file")
        return active[1].Wait()

    def Iwrite_all(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        """Nonblocking collective write (``MPI_File_iwrite_all``).

        Captures the data stream and advances the individual file pointer at
        issue time, then runs the full staged pipeline — exchange, conflict
        analysis, commit — on a detached progress task.  Returns the
        :class:`~repro.mpi.status.Request` whose ``Wait`` yields the
        :class:`~repro.core.strategies.IOOutcome`.
        """
        return self._collective("write", buffer, count, datatype, split=False)

    def Iread_all(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        """Nonblocking collective read (``MPI_File_iread_all``).

        ``buffer`` is filled when the operation completes and must not be
        read (or reused) before ``Wait``.  ``Wait`` returns the
        :class:`~repro.core.strategies.IOOutcome`.
        """
        return self._collective("read", buffer, count, datatype, split=False)

    def Write_all_begin(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        """Begin a split collective write (``MPI_File_write_all_begin``).

        The negotiation — view exchange, conflict analysis and, for
        two-phase, the data shuffle — is pinned *here*, on the calling rank's
        own timeline; the commit (the file I/O) runs detached until
        :meth:`Write_all_end`.  Computation between ``begin`` and ``end``
        therefore overlaps exactly the commit phase.
        """
        return self._collective("write", buffer, count, datatype, split=True)

    def Write_all_end(self) -> IOOutcome:  # noqa: N802 - MPI spelling
        """Finish the active split collective write; returns its outcome."""
        return self._split_end("write")

    def Read_all_begin(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        """Begin a split collective read (``MPI_File_read_all_begin``).

        The exchange and read scheduling happen here; the fetch (and, for
        two-phase, the scatter) run detached until :meth:`Read_all_end`.
        ``buffer`` is filled by completion and must not be read before
        ``end``.
        """
        return self._collective("read", buffer, count, datatype, split=True)

    def Read_all_end(self) -> IOOutcome:  # noqa: N802 - MPI spelling
        """Finish the active split collective read; returns its outcome."""
        return self._split_end("read")

    # -- blocking collective data access ------------------------------------------------

    def Write_all(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IOOutcome:
        """Collective write at the individual file pointer.

        A thin wrapper: ``Iwrite_all(...).Wait()``.  In atomic mode the
        write is carried out by the configured atomicity strategy; in
        non-atomic mode each file segment is written independently (no
        coordination).
        """
        return self.Iwrite_all(buffer, count, datatype).Wait()

    def Read_all(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IOOutcome:
        """Collective read at the individual file pointer into ``buffer``.

        A thin wrapper: ``Iread_all(...).Wait()``.  The read runs through
        the staged pipeline of the configured strategy (the same
        selection rules as :meth:`Write_all`): shared-mode locks for the
        locking strategy, invalidate-then-cached-read for the handshaking
        strategies, aggregate-and-scatter for two-phase.  In non-atomic mode
        the baseline strategy still drops cached pages first
        (sync-then-invalidate), so a collective read observes everything its
        peers flushed before the call.
        """
        return self.Iread_all(buffer, count, datatype).Wait()

    # -- independent data access -----------------------------------------------------------

    def _independent(
        self,
        direction: str,
        offset_etypes: int,
        buffer: Buffer,
        count: Optional[int],
        datatype: Optional[Datatype],
        nonblocking: bool = False,
    ) -> Union[IOOutcome, Request]:
        """One independent call: a one-rank plan, built at issue time with no
        view exchange, run by :func:`~repro.core.pipeline.run_plan` on
        the main handle — or, ``nonblocking``, on the progress handle.

        An atomic write, or an atomic read where the file system has locks,
        locks its extent — exclusive to write, shared to read — and transfers
        directly.  The locked write first drops this rank's cached pages
        (dirty ones are flushed): a stale dirty page would overwrite it at the
        next flush, a clean one would mask it from later cached reads.  Every
        other call goes through the cache, and a read there that is atomic or
        nonblocking invalidates first — the progress handle's pages may
        predate writes made through the main handle.
        """
        writing = direction == "write"
        data, nbytes = self._stream(direction, buffer, count, datatype)
        region = self._region_for(nbytes, offset_etypes)
        plan = IOPlan(direction=direction, strategy="independent", rank=region.rank,
                      bytes_requested=region.total_bytes)
        steps = [TransferStep(*entry) for entry in region.buffer_map()]
        locked = self._atomic and not region.is_empty() and (
            writing or self.fs.config.supports_locking()
        )
        if locked:
            extent = region.extent()
            mode = LockMode.EXCLUSIVE if writing else LockMode.SHARED
            plan.locks.append(LockDirective(extent.start, extent.stop, mode))
            plan.phases.append(PhasePlan(0, steps, direct=True, invalidate_before=writing))
        else:
            invalidate = not writing and (self._atomic or nonblocking)
            plan.phases.append(PhasePlan(0, steps, invalidate_before=invalidate))
        buffers = {USER_PAYLOAD: data} if writing else plan.sinks()

        def body(comm: Communicator, handle: ClientFileHandle) -> IOOutcome:
            start_time = handle.clock.now
            if locked and not writing:
                # Direct reads return the servers' bytes: flush this rank's
                # own write-behind data first (read-your-own-writes).
                handle.sync()
            outcome = run_plan(comm, handle, plan, buffers, start_time)
            if not writing:
                stream = bytes(buffers.get(USER_PAYLOAD, b""))
                outcome.bytes_returned = len(stream)
                self._scatter_into(buffer, stream, datatype, count)
            return outcome

        if nonblocking:
            label = self._next_label(f"i{direction}_at")
            return self._issue(label, direction, body, collective=False)
        return body(self.comm, self._handle)

    def Write_at(self, offset_etypes: int, buffer: Buffer, count: Optional[int] = None,
                 datatype: Optional[Datatype] = None) -> IOOutcome:  # noqa: N802
        """Independent write at an explicit etype offset within the view.

        Independent writes cannot coordinate with unknown peers, so in atomic
        mode they always use byte-range locking (the only correct option the
        paper identifies for non-collective I/O); on lock-less file systems
        atomic independent writes raise ``LockingUnsupported``.
        """
        return self._independent("write", offset_etypes, buffer, count, datatype)

    def Read_at(self, offset_etypes: int, buffer: Buffer, count: Optional[int] = None,
                datatype: Optional[Datatype] = None) -> IOOutcome:  # noqa: N802
        """Independent read at an explicit etype offset within the view.

        Independent reads cannot coordinate with unknown peers, so in atomic
        mode they take a *shared-mode* byte-range lock over the extent and
        read directly (mirroring :meth:`Write_at`'s exclusive lock); on
        lock-less file systems they fall back to invalidate-then-cached-read,
        which observes everything peers have flushed.
        """
        return self._independent("read", offset_etypes, buffer, count, datatype)

    def Iwrite_at(self, offset_etypes: int, buffer: Buffer, count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> Request:  # noqa: N802
        """Nonblocking independent write (``MPI_File_iwrite_at``): the
        locking rules of :meth:`Write_at` on the detached progress timeline."""
        return self._independent("write", offset_etypes, buffer, count, datatype, nonblocking=True)

    def Iread_at(self, offset_etypes: int, buffer: Buffer, count: Optional[int] = None,
                 datatype: Optional[Datatype] = None) -> Request:  # noqa: N802
        """Nonblocking independent read (``MPI_File_iread_at``); ``buffer`` is
        filled at completion."""
        return self._independent("read", offset_etypes, buffer, count, datatype, nonblocking=True)

    def Write(self, buffer: Buffer, count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> IOOutcome:  # noqa: N802
        """Independent write at the individual file pointer."""
        outcome = self.Write_at(self._position, buffer, count, datatype)
        self._position += outcome.bytes_requested // self._view.etype_size
        return outcome

    def Read(self, buffer: Buffer, count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> IOOutcome:  # noqa: N802
        """Independent read at the individual file pointer."""
        outcome = self.Read_at(self._position, buffer, count, datatype)
        self._position += outcome.bytes_requested // self._view.etype_size
        return outcome

    # -- pointer and sync ----------------------------------------------------------------------

    def Seek(self, offset_etypes: int) -> None:  # noqa: N802 - MPI spelling
        """Position the individual file pointer (in etypes)."""
        if offset_etypes < 0:
            raise ValueError("file pointer cannot be negative")
        self._position = offset_etypes

    def Tell(self) -> int:  # noqa: N802 - MPI spelling
        """Current individual file pointer (in etypes)."""
        return self._position

    def Sync(self) -> None:  # noqa: N802 - MPI spelling
        """Collective flush of write-behind data (``MPI_File_sync``).

        As in MPI, all outstanding requests on the file must be completed
        first — ``Sync`` over an in-flight request could not promise the
        visibility the call exists to provide, so it raises instead of
        silently flushing a partial state.
        """
        if self._outstanding:
            raise RuntimeError(
                f"Sync of {self.filename!r} with {len(self._outstanding)} "
                "outstanding I/O request(s): complete them with Wait/Test "
                "first (MPI requires it)"
            )
        self._handle.sync()
        self._async_handle.sync()
        self.comm.barrier()

    def Get_size(self) -> int:  # noqa: N802 - MPI spelling
        """Current file size in bytes."""
        return self._handle.size

    # -- internals ---------------------------------------------------------------------------------

    def _scatter_into(
        self, buffer: Buffer, stream: bytes, datatype: Optional[Datatype], count: Optional[int]
    ) -> None:
        """Fill a read's ``buffer`` (checked by :meth:`_stream`) from ``stream``."""
        if datatype is not None:
            unpack(stream, datatype, buffer, count if count is not None else 1)
        elif isinstance(buffer, np.ndarray):
            flat = buffer.reshape(-1).view(np.uint8)
            flat[: len(stream)] = np.frombuffer(stream, dtype=np.uint8)
        else:
            buffer[: len(stream)] = stream

    def _check_writable(self) -> None:
        if self._closed:
            raise ValueError("file is closed")
        if self.amode & MODE_RDONLY and not (self.amode & (MODE_WRONLY | MODE_RDWR)):
            raise PermissionError("file was opened read-only")

    def _check_readable(self) -> None:
        if self._closed:
            raise ValueError("file is closed")
        if self.amode & MODE_WRONLY and not (self.amode & (MODE_RDONLY | MODE_RDWR)):
            raise PermissionError("file was opened write-only")
