"""Test-only oracle: the MPI layer's two request families as they were before
they became one :class:`repro.mpi.status.Request`, kept verbatim.

``repro.mpi.status.Request`` now serves point-to-point and file I/O alike, a
receive is a request matched when its message is deposited (a send is a
sequence point), and ``Waitall`` / ``Testall`` / ``Waitany`` complete one
kind of request.  This module keeps what that replaced: the point-to-point
``Request`` (completed lazily by its own ``test`` / ``wait``), the file
``IORequest``, the family dispatch of ``Waitall`` / ``Testall`` /
``Waitany``, the message-only ``_Mailbox``, the ``send`` / ``isend`` /
``recv`` / ``irecv`` bodies (:class:`ReferenceCommunicator`, over a group
whose mailboxes :func:`reference_comm` swaps for the old ones) and the
``MPIFile`` methods that built and retired ``IORequest`` s
(:class:`ReferenceMPIFile`: ``_issue``, ``_retire_request``, ``_collective``,
``_split_end``).  ``tests/test_mpi_requests_differential.py`` requires both
layers to agree on generated programs.  Everything else is inherited, not
copied.

One edit, and only one: ``send`` passes a sequence point before it
deposits, as the new body does.  That is what puts deposits in virtual-time
order, and it is a scheduling change of its own: a rank ahead in virtual
time now yields at its send to the ranks behind it, so they may issue file
I/O first.  Progress tasks are then spawned in another order, and ties in
virtual time between them break the other way (a tie is broken by task id).
With the edit both layers run every rank in the same order, and what is
compared is the request merge alone.

Never imported by ``src/``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.engine import Task, TaskCancelled, current_task, sequence_point
from repro.core.strategies import IOOutcome
from repro.datatypes.datatype import Datatype
from repro.fs.client import ClientFileHandle
from repro.io.file import Buffer, MPIFile
from repro.mpi.comm import Communicator, _matches
from repro.mpi.errors import CollectiveAbortedError, TagError
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status


class Request:
    """Handle for a non-blocking operation (``MPI_Request``).

    Sends complete eagerly.  A receive request completes lazily and
    cooperatively: :meth:`test` probes the mailbox without blocking, and
    :meth:`wait` performs the receive on the calling rank's own task —
    parking it on the event scheduler until the message arrives — so no
    helper thread ever exists behind a request.
    """

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._status = Status()
        self._error: Optional[BaseException] = None
        #: Non-blocking completion probe (returns True when it completed us).
        self._poll: Optional[Callable[[], bool]] = None
        #: Blocking completion (runs on the caller's task).
        self._finish: Optional[Callable[[], None]] = None

    def _bind(self, poll: Callable[[], bool], finish: Callable[[], None]) -> None:
        self._poll = poll
        self._finish = finish

    def _complete(self, value: Any = None, status: Optional[Status] = None) -> None:
        self._value = value
        if status is not None:
            self._status = status
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def test(self) -> bool:
        """True when the operation has completed (probes without blocking)."""
        if not self._done and self._poll is not None:
            self._poll()
        return self._done

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Complete the operation; return the received object.

        ``timeout`` is accepted for API compatibility; a receive that can
        never complete is detected as a deadlock by the scheduler instead of
        by a wall-clock timer.
        """
        if not self._done:
            if self._finish is None:
                raise RuntimeError("request is pending but has no completion path")
            self._finish()
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def status(self) -> Status:
        """The completion status (valid after :meth:`wait`)."""
        return self._status


class IORequest:
    """Handle for a nonblocking or split-collective file operation."""

    def __init__(
        self,
        label: str,
        kind: str,
        on_retire: Optional[Callable[["IORequest"], None]] = None,
    ) -> None:
        self._label = label
        #: ``"write"`` or ``"read"`` — drives the owning file's cache
        #: bookkeeping at retirement.
        self.kind = kind
        self._on_retire = on_retire
        self._done = False
        self._retired = False
        self._outcome: Any = None
        self._error: Optional[BaseException] = None
        #: Virtual time at which the detached operation completed.
        self._end_time: Optional[float] = None
        self._waiters: List[Task] = []

    # -- introspection ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the detached operation has completed (without retiring)."""
        return self._done

    @property
    def retired(self) -> bool:
        """Whether the request was consumed by ``Wait`` / a true ``Test``."""
        return self._retired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "retired" if self._retired else ("done" if self._done else "in-flight")
        return f"IORequest({self._label!r}, {state})"

    # -- completion (progress-task side) ----------------------------------------

    def _finish(
        self,
        outcome: Any = None,
        error: Optional[BaseException] = None,
        end_time: Optional[float] = None,
    ) -> None:
        """Mark the request complete and wake every parked waiter."""
        self._outcome = outcome
        self._error = error
        self._end_time = end_time
        self._done = True
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            if task.state == Task.BLOCKED:
                task.engine.wake(task)

    # -- completion (caller side) ------------------------------------------------

    def _park_until_done(self) -> None:
        """Block the current engine task until the operation completes."""
        task = current_task()
        if task is None:
            raise RuntimeError(
                "an IORequest can only be completed from inside an engine "
                "task (run the program through run_spmd)"
            )
        while not self._done:
            self._waiters.append(task)
            try:
                task.engine.wait(f"io-request:{self._label}")
            except BaseException:
                if task in self._waiters:
                    self._waiters.remove(task)
                raise

    def _retire(self) -> None:
        if not self._retired:
            self._retired = True
            # Single use, and a bound method of the file whose chain holds
            # this request: dropped so the pair is no reference cycle.
            on_retire, self._on_retire = self._on_retire, None
            if on_retire is not None:
                on_retire(self)

    def Wait(self) -> Any:  # noqa: N802 - MPI spelling
        """Complete the operation; return its outcome (or raise its error).

        Parks the calling rank until the detached operation finishes, then
        joins the timelines: the caller's clock advances to the operation's
        completion time (no-op if the caller computed past it — that is the
        overlap).  Idempotent: waiting again returns the same outcome, or
        re-raises the same error.
        """
        if not self._done:
            self._park_until_done()
        self._retire()
        task = current_task()
        if task is not None and self._end_time is not None:
            task.clock.advance_to(self._end_time, waiting=True)
        if self._error is not None:
            raise self._error
        return self._outcome

    def Test(self) -> bool:  # noqa: N802 - MPI spelling
        """True when the operation has completed; never blocks.

        A true ``Test`` *completes* the request exactly like :meth:`Wait`
        (clock join, retirement, error raise), per MPI semantics.  A false
        one yields to any earlier-scheduled task first — so a
        compute/``Test`` polling loop actually lets the detached operation
        progress instead of starving it.
        """
        if not self._done:
            sequence_point()
            if not self._done:
                return False
        self.Wait()
        return True

    # lowercase aliases, matching the point-to-point Request duck type
    wait = Wait
    test = Test


def _wait_one(request: Any) -> Any:
    """Wait on either request family (``Wait`` for files, ``wait`` for p2p).

    Point-to-point requests carry no retirement state of their own, so the
    completion functions stamp one on (``_retired``) — the equivalent of MPI
    setting the handle to ``MPI_REQUEST_NULL`` — which is what lets
    :func:`Waitany` drain a mixed list without returning the same completed
    p2p index forever.
    """
    if isinstance(request, IORequest):
        return request.Wait()
    value = request.wait()
    request._retired = True
    return value


def _is_done(request: Any) -> bool:
    """Non-retiring completion probe for either request family."""
    if isinstance(request, IORequest):
        return request._done
    return request.test()


def _is_retired(request: Any) -> bool:
    if isinstance(request, IORequest):
        return request._retired
    return bool(getattr(request, "_retired", False))


def Waitall(requests: Sequence[Any]) -> List[Any]:  # noqa: N802 - MPI spelling
    """Complete every request; return their outcomes in order.

    ``None`` placeholders (``MPI_REQUEST_NULL`` — e.g. slots a drain loop
    already cleared) are skipped and yield ``None`` results.  Every live
    request is completed even when some fail (so no operation is left in
    flight), then the first error in request order is raised —
    ``MPI_Waitall`` with ``MPI_ERRORS_RETURN`` folded into one exception.
    """
    results: List[Any] = []
    first_error: Optional[BaseException] = None
    for request in requests:
        if request is None:
            results.append(None)
            continue
        try:
            results.append(_wait_one(request))
        except Exception as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


def Testall(requests: Sequence[Any]) -> bool:  # noqa: N802 - MPI spelling
    """True iff every request has completed; completes them all if so.

    Like ``MPI_Testall``: a false result completes nothing (no request is
    retired), a true result is equivalent to :func:`Waitall` having
    returned.  ``None`` placeholders count as completed.
    """
    sequence_point()
    if not all(_is_done(r) for r in requests if r is not None):
        return False
    Waitall(requests)
    return True


def Waitany(requests: Sequence[Any]) -> Optional[int]:  # noqa: N802 - MPI spelling
    """Block until some request completes; retire it and return its index.

    Deterministic selection: among the requests found complete when the
    caller runs, the lowest index wins — and because the scheduler wakes the
    caller at each completion in virtual-time order, repeated ``Waitany``
    calls retire requests in their (deterministic) completion order.
    Already-retired requests and ``None`` placeholders are skipped, so the
    usual drain loop — call, use the index, repeat — terminates; returns
    ``None`` when nothing is left to wait for (``MPI_UNDEFINED``).

    Blocking is driven by the file requests in the list (their progress
    tasks wake the caller); when only point-to-point requests remain
    pending, the lowest-indexed one is waited directly.
    """
    task = current_task()
    while True:
        pending = [
            (i, r)
            for i, r in enumerate(requests)
            if r is not None and not _is_retired(r)
        ]
        if not pending:
            return None
        for i, r in pending:
            if _is_done(r):
                _wait_one(r)
                return i
        io_pending = [r for _, r in pending if isinstance(r, IORequest)]
        if io_pending and task is not None:
            for r in io_pending:
                r._waiters.append(task)
            try:
                task.engine.wait("io-waitany")
            finally:
                for r in io_pending:
                    if task in r._waiters:
                        r._waiters.remove(task)
        else:
            # Only point-to-point requests pending: their completion is not
            # announced to third parties, so wait the lowest-indexed one.
            i, r = pending[0]
            _wait_one(r)
            return i


class _Mailbox:
    """Unbounded per-rank message queue with tag/source matching.

    Only the owning rank ever receives, so at most one task can be parked on
    a mailbox at a time.
    """

    __slots__ = ("_messages", "_waiter")

    def __init__(self) -> None:
        self._messages: deque = deque()
        self._waiter: Optional[Tuple[Task, int, int]] = None

    def _find(self, source: int, tag: int) -> Optional[Tuple[int, int, Any]]:
        for i, (src, t, payload) in enumerate(self._messages):
            if _matches(src, t, source, tag):
                del self._messages[i]
                return (src, t, payload)
        return None

    def put(self, source: int, tag: int, payload: Any) -> None:
        self._messages.append((source, tag, payload))
        if self._waiter is not None:
            task, want_source, want_tag = self._waiter
            if _matches(source, tag, want_source, want_tag) and task.state == Task.BLOCKED:
                self._waiter = None
                task.engine.wake(task)

    def get(self, task: Task, source: int, tag: int) -> Tuple[int, int, Any]:
        """Remove and return the first message matching ``source``/``tag``,
        parking ``task`` until one arrives."""
        while True:
            msg = self._find(source, tag)
            if msg is not None:
                return msg
            self._waiter = (task, source, tag)
            try:
                task.engine.wait(f"recv(source={source}, tag={tag})")
            except BaseException:
                if self._waiter is not None and self._waiter[0] is task:
                    self._waiter = None
                raise


class ReferenceCommunicator(Communicator):
    """A ``Communicator`` with the lazily completed point-to-point bodies."""

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager send of a Python object to ``dest``."""
        slot = self._peer_slot(dest)
        if tag < 0:
            raise TagError(f"invalid send tag {tag}")
        sent_at = self.clock.advance(self._group.cost_model.cost(obj))
        sequence_point()  # the one edit: see the module docstring
        self._group.mailboxes[slot].put(self._rank, tag, (sent_at, obj))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (completes immediately — sends are eager)."""
        req = Request()
        try:
            self.send(obj, dest, tag)
        except Exception as exc:  # pragma: no cover - defensive
            req._fail(exc)
        else:
            req._complete(None, Status(source=self._rank, tag=tag))
        return req

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive; returns the received object.

        A receive that can never be matched is detected (and reported per
        rank) by the scheduler's deadlock detection.
        """
        if source != ANY_SOURCE:
            self._peer_slot(source)
        self._check_tag(tag)
        task = self._require_task()
        src, t, (sent_at, payload) = self._inbox.get(task, source, tag)
        self.clock.advance_to(sent_at, waiting=True)
        if status is not None:
            status.source = src
            status.tag = t
            status.count = getattr(payload, "nbytes", 0) or 0
        return payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; completes lazily on ``test``/``wait``."""
        req = Request()
        mailbox = self._inbox

        def poll() -> bool:
            msg = mailbox._find(source, tag)
            if msg is None:
                return False
            src, t, (sent_at, payload) = msg
            self.clock.advance_to(sent_at, waiting=True)
            req._complete(
                payload,
                Status(source=src, tag=t, count=getattr(payload, "nbytes", 0) or 0),
            )
            return True

        def finish() -> None:
            try:
                status = Status()
                value = self.recv(source, tag, status=status)
            except Exception as exc:
                req._fail(exc)
            else:
                req._complete(value, status)

        req._bind(poll, finish)
        return req


def reference_comm(comm: Communicator) -> ReferenceCommunicator:
    """``comm``'s rank on the old point-to-point layer: the first rank to
    call it gives the group the old mailboxes, before any message moves."""
    group = comm._group
    if not isinstance(group.mailboxes[0], _Mailbox):
        group.mailboxes = [_Mailbox() for _ in range(group.size)]
    return ReferenceCommunicator(group, comm.rank)


class ReferenceMPIFile(MPIFile):
    """``MPIFile`` whose requests are ``IORequest`` s."""

    def _issue(
        self,
        label: str,
        kind: str,
        body: Callable[[Communicator, ClientFileHandle], object],
        collective: bool = True,
    ) -> IORequest:
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
        request = IORequest(label=label, kind=kind, on_retire=self._retire_request)
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
                request._finish(error=error, end_time=handle.clock.now)
            else:
                request._finish(outcome=outcome, end_time=handle.clock.now)

        task.engine.spawn(
            progress,
            name=f"{self.filename}:{label}@{rank}",
            clock=handle.clock,
            detached=True,
        )
        return request

    def _retire_request(self, request: IORequest) -> None:
        """Bookkeeping when a request is consumed by Wait / a true Test."""
        if request in self._outstanding:
            self._outstanding.remove(request)
        if self._chain_tail is request:
            self._chain_tail = None  # complete: nothing left to chain behind
        if self._split_active is request:
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
        if request.kind == "write":
            # The operation wrote through the progress handle; pages this
            # handle cached before it are stale now.  (Dirty pages are
            # flushed first — invalidate is sync-then-invalidate.)
            self._handle.invalidate()

    def _collective(
        self,
        direction: str,
        buffer: Buffer,
        count: Optional[int],
        datatype: Optional[Datatype],
        split: bool,
    ) -> IORequest:
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
            self._split_active = request
        return request

    def _split_end(self, kind: str) -> IOOutcome:
        request = self._split_active
        if request is None or request.kind != kind:
            raise RuntimeError(f"no split collective {kind} is active on this file")
        return request.Wait()
