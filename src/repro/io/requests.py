"""Request objects for nonblocking and split-collective file I/O.

An :class:`IORequest` is the handle returned by the nonblocking MPI-IO calls
(``MPI_File_iwrite_all`` and friends — :meth:`repro.io.file.MPIFile.Iwrite_all`
etc.) and by the split-collective ``..._begin`` calls.  The operation itself
runs on a *detached progress task* of the ambient discrete-event engine, on a
virtual clock independent of the issuing rank's, so the rank's own timeline
(computation, independent I/O) overlaps the collective's shuffle and commit
phases.  The two timelines join at :meth:`IORequest.Wait`:

* the caller parks on the scheduler until the progress task completes;
* the caller's clock advances to ``max(caller time, completion time)`` —
  overlap realised is exactly the computation that fit under the I/O.

Request lifecycle::

    issue (I*/begin) ──▶ in flight ──▶ complete ──▶ retired (Wait/Test-true)

A request completes on its own — the engine drives the progress task whether
or not anybody waits — but it is only *retired* (its outcome consumed, its
error raised, its file's bookkeeping released) through :meth:`Wait` or a
successful :meth:`Test`.  Closing a file with unretired requests is an error.
Waiting an already-retired request is a no-op returning the same outcome
(the MPI ``MPI_REQUEST_NULL`` behaviour); a failed request re-raises its
error on every Wait.

Failure semantics: when one rank's detached collective raises, the request
machinery aborts the progress communicator, so every peer's in-flight
request fails with :class:`~repro.mpi.errors.CollectiveAbortedError` — and
the originating rank's error is wrapped in the same type (with the original
as ``__cause__``), so :func:`Waitall` surfaces ``CollectiveAbortedError`` on
*all* ranks.

:func:`Waitall`, :func:`Testall` and :func:`Waitany` accept a mixed list of
:class:`IORequest` and point-to-point :class:`repro.mpi.status.Request`
objects, unifying the two request families the way ``MPI_Waitall`` does.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..core.engine import Task, current_task, sequence_point

__all__ = ["IORequest", "Waitall", "Testall", "Waitany"]


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


# ---------------------------------------------------------------------------
# Module-level completion over mixed request families
# ---------------------------------------------------------------------------


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
