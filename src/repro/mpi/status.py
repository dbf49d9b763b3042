"""Status, the one request object, and completion over lists of requests.

A :class:`Request` (``MPI_Request``) is the handle of every nonblocking
operation: a point-to-point ``isend`` / ``irecv``
(:class:`repro.mpi.comm.Communicator`) and a nonblocking or split-collective
file operation (:class:`repro.io.file.MPIFile`).  Its lifecycle::

    issue ──▶ in flight ──▶ complete (_finish) ──▶ retired (Wait / Test-true)

A request completes on its own: a receive when its message is deposited
(a send is a sequence point, so messages are deposited in virtual-time order,
and each goes to the earliest-posted matching receive), a file operation when
its detached progress task finishes.  It is *retired* — its value consumed,
its error raised, its owner's bookkeeping (``on_retire``) run — only by
:meth:`Request.Wait` or a true :meth:`Request.Test`, which also join the
timelines: the caller's clock advances to the completion time (a receive's
send instant, a file operation's end), a no-op when the caller computed past
it.  Waiting a retired request again returns the same value or re-raises the
same error (``MPI_REQUEST_NULL``).

:func:`Waitall`, :func:`Testall` and :func:`Waitany` complete lists of
requests of any origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..core.engine import Task, current_task, sequence_point

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "Request", "Waitall", "Testall", "Waitany"]

#: Wildcard source rank for :meth:`Communicator.recv`.
ANY_SOURCE = -1
#: Wildcard message tag for :meth:`Communicator.recv`.
ANY_TAG = -1


@dataclass
class Status:
    """Completion information for a receive (``MPI_Status``)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0


def _engine_task() -> Task:
    task = current_task()
    if task is None:
        raise RuntimeError(
            "a request can only be completed from inside an engine task "
            "(run the program through run_spmd)"
        )
    return task


class Request:
    """Handle for a nonblocking operation (``MPI_Request``).

    ``label`` names the operation (it is the wait reason a deadlock report
    shows); ``on_retire``, called once with the request when it is retired,
    is its owner's bookkeeping.
    """

    def __init__(self, label: str, on_retire: Optional[Callable[["Request"], None]] = None) -> None:
        self._label = label
        self._on_retire = on_retire
        self._done = False
        self._retired = False
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: Virtual time the operation completed at (``None``: nothing to join).
        self._end_time: Optional[float] = None
        self._waiters: List[Task] = []
        #: Completion information of a receive (valid once done).
        self.status = Status()

    @property
    def done(self) -> bool:
        """Whether the operation has completed (without retiring it)."""
        return self._done

    @property
    def retired(self) -> bool:
        """Whether the request was consumed by ``Wait`` / a true ``Test``."""
        return self._retired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "retired" if self._retired else ("done" if self._done else "in-flight")
        return f"Request({self._label!r}, {state})"

    def _finish(
        self,
        value: Any = None,
        error: Optional[BaseException] = None,
        end_time: Optional[float] = None,
    ) -> None:
        """Mark the request complete and wake every parked waiter."""
        self._value = value
        self._error = error
        self._end_time = end_time
        self._done = True
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            if task.state == Task.BLOCKED:
                task.engine.wake(task)

    def _park_until_done(self) -> None:
        """Block the current engine task until the operation completes."""
        task = _engine_task()
        while not self._done:
            self._waiters.append(task)
            try:
                task.engine.wait(self._label)
            except BaseException:
                if task in self._waiters:
                    self._waiters.remove(task)
                raise

    def Wait(self) -> Any:  # noqa: N802 - MPI spelling
        """Complete the operation; return its value (or raise its error).

        Parks the calling rank until the operation completes, retires the
        request, and advances the caller's clock to the completion time.
        Idempotent: waiting again returns the same value, or re-raises the
        same error.
        """
        if not self._done:
            self._park_until_done()
        if not self._retired:
            self._retired = True
            # Single use, and typically a bound method of the owner that
            # holds this request: dropped so the pair is no reference cycle.
            on_retire, self._on_retire = self._on_retire, None
            if on_retire is not None:
                on_retire(self)
        task = current_task()
        if task is not None and self._end_time is not None:
            task.clock.advance_to(self._end_time, waiting=True)
        if self._error is not None:
            raise self._error
        return self._value

    def Test(self) -> bool:  # noqa: N802 - MPI spelling
        """True when the operation has completed; never blocks.

        A true ``Test`` *completes* the request exactly like :meth:`Wait`
        (retirement, clock join, error raise), per MPI semantics.  A false
        one yields to any earlier-scheduled task first — so a compute /
        ``Test`` polling loop lets the operation progress instead of
        starving it.
        """
        if not self._done:
            sequence_point()
            if not self._done:
                return False
        self.Wait()
        return True

    wait = Wait
    test = Test


def Waitall(requests: Sequence[Optional[Request]]) -> List[Any]:  # noqa: N802 - MPI spelling
    """Complete every request; return their values in order.

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
            results.append(request.Wait())
        except Exception as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
            results.append(None)
    if first_error is not None:
        raise first_error
    return results


def Testall(requests: Sequence[Optional[Request]]) -> bool:  # noqa: N802 - MPI spelling
    """True iff every request has completed; completes them all if so.

    Like ``MPI_Testall``: a false result completes nothing (no request is
    retired), a true result is equivalent to :func:`Waitall` having
    returned.  ``None`` placeholders count as completed.
    """
    sequence_point()
    if not all(r.done for r in requests if r is not None):
        return False
    Waitall(requests)
    return True


def Waitany(requests: Sequence[Optional[Request]]) -> Optional[int]:  # noqa: N802 - MPI spelling
    """Block until some request completes; retire it and return its index.

    Among the requests found complete when the caller runs, the lowest index
    wins; otherwise the caller parks on every pending request and is woken
    by the first to complete.  Requests complete in virtual-time order, so
    repeated ``Waitany`` calls retire them in that order.  Retired requests
    and ``None`` placeholders are skipped, so the usual drain loop — call,
    use the index, repeat — terminates; returns ``None`` when nothing is
    left to wait for (``MPI_UNDEFINED``).
    """
    while True:
        pending = [(i, r) for i, r in enumerate(requests) if r is not None and not r.retired]
        if not pending:
            return None
        for i, r in pending:
            if r.done:
                r.Wait()
                return i
        task = _engine_task()
        for _, r in pending:
            r._waiters.append(task)
        try:
            task.engine.wait("Waitany(" + ", ".join(r._label for _, r in pending) + ")")
        finally:
            for _, r in pending:
                if task in r._waiters:
                    r._waiters.remove(task)
