"""Test-only oracle: ``MPIFile``'s collective request bodies as they were
before the four of them became one, kept verbatim.

``repro.io.file.MPIFile`` runs ``Iwrite_all`` / ``Iread_all`` /
``Write_all_begin`` / ``Read_all_begin`` through one ``_collective`` body
and both split ``_end`` calls through one ``_split_end``.
:class:`ReferenceMPIFile` overrides those six entry points with the bodies
they replaced, together with what those bodies called and what changed with
them: ``_require_no_split``, ``_issue`` (whose ``flush_main`` parameter the
split begins passed) and ``_scatter_into`` (which checked a read buffer only
when the read delivered into it).  ``tests/test_io_collective_differential.py``
requires both to leave the same bytes, provenance, clocks, lock history,
cache statistics, buffers and outcomes on generated programs.  Everything
else — open, views, ``Write_all`` / ``Read_all`` (``...(...).Wait()`` of the
overridden forms), the independent calls — is inherited, not copied.  The
bodies build and retire the file requests of their time, so the base class
is ``tests/reference_requests.py``'s ``MPIFile`` with ``IORequest`` s.

Never imported by ``src/``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.engine import TaskCancelled, current_task
from repro.core.strategies import IOOutcome
from repro.datatypes.datatype import Datatype
from repro.datatypes.pack import unpack
from repro.fs.client import ClientFileHandle
from repro.io.file import Buffer, _as_bytes
from repro.mpi.comm import Communicator
from repro.mpi.errors import CollectiveAbortedError

from reference_requests import IORequest, ReferenceMPIFile as RequestsReferenceMPIFile


class ReferenceMPIFile(RequestsReferenceMPIFile):
    """``MPIFile`` with the four hand-written collective request bodies."""

    def _issue(
        self,
        label: str,
        kind: str,
        body: Callable[[Communicator, ClientFileHandle], object],
        collective: bool = True,
        flush_main: bool = True,
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
        # (Split-collective begins flushed already, before their exchange
        # rendezvous — the earlier of the two points is the binding one.)
        if flush_main:
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

    # -- nonblocking collective data access ---------------------------------------------

    def Iwrite_all(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IORequest:
        """Nonblocking collective write (``MPI_File_iwrite_all``).

        Captures the data stream and advances the individual file pointer at
        issue time, then runs the full staged pipeline — exchange, conflict
        analysis, commit — on a detached progress task.  Returns the
        :class:`~repro.io.requests.IORequest` whose ``Wait`` yields the
        :class:`~repro.core.strategies.IOOutcome`.
        """
        self._check_writable()
        data = _as_bytes(buffer, datatype, count)
        region = self._region_for(len(data), self._position)
        strategy = self._collective_strategy()
        request = self._issue(
            self._next_label("iwrite_all"),
            "write",
            lambda comm, handle: strategy.execute_write(comm, handle, region, data),
        )
        self._position += len(data) // self._view.etype_size
        return request

    def Iread_all(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IORequest:
        """Nonblocking collective read (``MPI_File_iread_all``).

        ``buffer`` is filled when the operation completes and must not be
        read (or reused) before ``Wait``.  ``Wait`` returns the
        :class:`~repro.core.strategies.IOOutcome`.
        """
        self._check_readable()
        nbytes = self._data_stream_size(buffer, datatype, count)
        region = self._region_for(nbytes, self._position)
        strategy = self._collective_strategy()

        def body(comm: Communicator, handle: ClientFileHandle):
            data, outcome = strategy.execute_read(comm, handle, region)
            self._scatter_into(buffer, data, datatype, count)
            return outcome

        request = self._issue(self._next_label("iread_all"), "read", body)
        self._position += nbytes // self._view.etype_size
        return request

    # -- split-collective data access ----------------------------------------------------

    def _require_no_split(self) -> None:
        if self._split_active is not None:
            raise RuntimeError(
                "a split collective is already active on this file; call the "
                "matching _end first (MPI allows one split collective per file)"
            )

    def Write_all_begin(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IORequest:
        """Begin a split collective write (``MPI_File_write_all_begin``).

        The negotiation — view exchange, conflict analysis and, for
        two-phase, the data shuffle — is pinned *here*, on the calling rank's
        own timeline; the commit (the file I/O) runs detached until
        :meth:`Write_all_end`.  Computation between ``begin`` and ``end``
        therefore overlaps exactly the commit phase.
        """
        self._require_no_split()
        self._check_writable()
        data = _as_bytes(buffer, datatype, count)
        region = self._region_for(len(data), self._position)
        strategy = self._collective_strategy()
        self._handle.sync()  # flush before the exchange rendezvous
        prepared = strategy.prepare(self.comm, region, self.comm.clock.now, data)
        request = self._issue(
            self._next_label("write_all_begin"),
            "write",
            lambda comm, handle: strategy.commit(comm, handle, prepared)[1],
            flush_main=False,  # flushed above, before the exchange rendezvous
        )
        self._position += len(data) // self._view.etype_size
        self._split_active = request
        return request

    def Write_all_end(self) -> IOOutcome:  # noqa: N802 - MPI spelling
        """Finish the active split collective write; returns its outcome."""
        request = self._split_active
        if request is None or request.kind != "write":
            raise RuntimeError("no split collective write is active on this file")
        return request.Wait()

    def Read_all_begin(  # noqa: N802 - MPI spelling
        self,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IORequest:
        """Begin a split collective read (``MPI_File_read_all_begin``).

        The exchange and read scheduling happen here; the fetch (and, for
        two-phase, the scatter) run detached until :meth:`Read_all_end`.
        ``buffer`` is filled by completion and must not be read before
        ``end``.
        """
        self._require_no_split()
        self._check_readable()
        nbytes = self._data_stream_size(buffer, datatype, count)
        region = self._region_for(nbytes, self._position)
        strategy = self._collective_strategy()
        self._handle.sync()  # flush before the exchange rendezvous
        prepared = strategy.prepare(self.comm, region, self.comm.clock.now)

        def body(comm: Communicator, handle: ClientFileHandle):
            handle.sync()  # the progress handle's own write-behind pages
            data, outcome = strategy.commit(comm, handle, prepared)
            self._scatter_into(buffer, data, datatype, count)
            return outcome

        request = self._issue(
            self._next_label("read_all_begin"), "read", body, flush_main=False
        )
        self._position += nbytes // self._view.etype_size
        self._split_active = request
        return request

    def Read_all_end(self) -> IOOutcome:  # noqa: N802 - MPI spelling
        """Finish the active split collective read; returns its outcome."""
        request = self._split_active
        if request is None or request.kind != "read":
            raise RuntimeError("no split collective read is active on this file")
        return request.Wait()

    # -- internals ---------------------------------------------------------------------------------

    def _scatter_into(
        self, buffer: Buffer, stream: bytes, datatype: Optional[Datatype], count: Optional[int]
    ) -> None:
        if datatype is not None:
            if isinstance(buffer, (bytes,)):
                raise TypeError("cannot read into an immutable bytes object")
            unpack(stream, datatype, buffer, count if count is not None else 1)
            return
        if isinstance(buffer, np.ndarray):
            flat = buffer.reshape(-1).view(np.uint8)
            src = np.frombuffer(stream, dtype=np.uint8)
            flat[: len(src)] = src
            return
        if isinstance(buffer, bytearray):
            buffer[: len(stream)] = stream
            return
        raise TypeError(f"cannot read into buffer of type {type(buffer).__name__}")
