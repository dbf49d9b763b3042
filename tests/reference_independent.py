"""Test-only oracle: ``MPIFile``'s independent data path as it was before an
independent call became a one-rank plan run by ``PlanRunner``, kept verbatim.

``repro.io.file.MPIFile`` runs ``Write_at`` / ``Read_at`` / ``Iwrite_at`` /
``Iread_at`` / ``Write`` / ``Read`` as a one-rank ``IOPlan`` through the same
``PlanRunner`` as every collective.  :class:`ReferenceMPIFile` overrides those
six entry points with the bodies they replaced, together with the three
helpers they called (``_independent_write``, ``_independent_read``,
``_write_region``), so ``tests/test_io_independent_differential.py`` can
require both paths to leave the same bytes, provenance, clocks and lock
history on generated programs.  Everything else — open, views, the request
machinery, ``_scatter_into`` — is inherited, not copied: it did not change
for the buffers the programs draw (bytearrays; the buffer-type check has
since moved from ``_scatter_into`` to issue time).

One edit, and only one: ``_independent_write`` drops the rank's cached pages
(``handle.invalidate()``, sync-then-invalidate) right after taking the
extent lock.  Without it a locked write leaves this rank's own cache
incoherent — a dirty page written earlier lands on top of it at the next
flush, a clean one keeps serving the old bytes to cached reads.  The new path
fixes the same bug with ``invalidate_before`` on the locked write phase.

The old return types stay: ``Write_at`` / ``Write`` return the byte count,
``Iwrite_at``'s ``Wait`` too.

Never imported by ``src/``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.regions import FileRegionSet
from repro.core.strategies import IOOutcome
from repro.datatypes.datatype import Datatype
from repro.fs.client import ClientFileHandle
from repro.fs.lockmanager import LockMode
from repro.io.file import Buffer, MPIFile, _as_bytes
from repro.mpi.comm import Communicator
from repro.mpi.status import Request


class ReferenceMPIFile(MPIFile):
    """``MPIFile`` with the hand-written independent data path."""

    def _independent_write(
        self, handle: ClientFileHandle, region: FileRegionSet, data: bytes, atomic: bool
    ) -> int:
        """One rank's uncoordinated write of ``region`` through ``handle``."""
        if atomic and not region.is_empty():
            extent = region.extent()
            lock = handle.lock(extent.start, extent.stop)
            try:
                handle.invalidate()  # the one edit: see the module docstring
                return self._write_region(handle, region, data, direct=True)
            finally:
                handle.unlock(lock)
        return self._write_region(handle, region, data, direct=False)

    def _independent_read(
        self,
        handle: ClientFileHandle,
        region: FileRegionSet,
        atomic: bool,
        fresh: bool = False,
    ) -> Tuple[bytes, IOOutcome]:
        """One rank's uncoordinated read of ``region`` through ``handle``.

        ``fresh=True`` forces a cache invalidation before a non-atomic cached
        read.  The nonblocking path needs it: the progress handle's cache may
        hold pages that predate writes made through the rank's *main* handle,
        and a same-process read after a completed write must see them.
        """
        outcome = IOOutcome(
            strategy="independent",
            rank=self.comm.rank,
            bytes_requested=region.total_bytes,
            start_time=handle.clock.now,
        )
        use_lock = atomic and not region.is_empty() and self.fs.config.supports_locking()
        stream = bytearray()
        if use_lock:
            # Direct reads return the servers' bytes: this client's own
            # write-behind data must be flushed first (read-your-own-writes).
            handle.sync()
            extent = region.extent()
            waited0 = handle.clock.waited
            lock = handle.lock(extent.start, extent.stop, mode=LockMode.SHARED)
            outcome.locks_acquired = 1
            outcome.lock_wait_seconds = handle.clock.waited - waited0
            try:
                for _, file_off, length in region.buffer_map():
                    stream.extend(handle.read(file_off, length, direct=True))
            finally:
                handle.unlock(lock)
        else:
            if atomic or fresh:
                handle.invalidate()
                outcome.invalidations = 1
            for _, file_off, length in region.buffer_map():
                stream.extend(handle.read(file_off, length))
        outcome.bytes_moved = len(stream)
        outcome.bytes_returned = len(stream)
        outcome.segments_moved = region.num_segments
        outcome.end_time = handle.clock.now
        return bytes(stream), outcome

    def Write_at(  # noqa: N802 - MPI spelling
        self,
        offset_etypes: int,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> int:
        """Independent write at an explicit etype offset within the view.

        Independent writes cannot coordinate with unknown peers, so in atomic
        mode they always use byte-range locking (the only correct option the
        paper identifies for non-collective I/O); on lock-less file systems
        atomic independent writes raise ``LockingUnsupported``.
        """
        self._check_writable()
        data = _as_bytes(buffer, datatype, count)
        region = self._region_for(len(data), offset_etypes)
        return self._independent_write(self._handle, region, data, self._atomic)

    write_at = Write_at

    def Read_at(  # noqa: N802 - MPI spelling
        self,
        offset_etypes: int,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> IOOutcome:
        """Independent read at an explicit etype offset within the view.

        Independent reads cannot coordinate with unknown peers, so in atomic
        mode they take a *shared-mode* byte-range lock over the extent and
        read directly (mirroring :meth:`Write_at`'s exclusive lock); on
        lock-less file systems they fall back to invalidate-then-cached-read,
        which observes everything peers have flushed.
        """
        self._check_readable()
        nbytes = self._data_stream_size(buffer, datatype, count)
        region = self._region_for(nbytes, offset_etypes)
        stream, outcome = self._independent_read(self._handle, region, self._atomic)
        self._scatter_into(buffer, stream, datatype, count)
        return outcome

    read_at = Read_at

    def Iwrite_at(  # noqa: N802 - MPI spelling
        self,
        offset_etypes: int,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        """Nonblocking independent write (``MPI_File_iwrite_at``).

        Same locking rules as :meth:`Write_at`, executed on the detached
        progress timeline; ``Wait`` returns the byte count written.
        """
        self._check_writable()
        data = _as_bytes(buffer, datatype, count)
        region = self._region_for(len(data), offset_etypes)
        atomic = self._atomic
        return self._issue(
            self._next_label("iwrite_at"),
            "write",
            lambda comm, handle: self._independent_write(handle, region, data, atomic),
            collective=False,
        )

    def Iread_at(  # noqa: N802 - MPI spelling
        self,
        offset_etypes: int,
        buffer: Buffer,
        count: Optional[int] = None,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        """Nonblocking independent read (``MPI_File_iread_at``).

        ``buffer`` is filled at completion; ``Wait`` returns the
        :class:`~repro.core.strategies.IOOutcome`.
        """
        self._check_readable()
        nbytes = self._data_stream_size(buffer, datatype, count)
        region = self._region_for(nbytes, offset_etypes)
        atomic = self._atomic

        def body(comm: Communicator, handle: ClientFileHandle):
            stream, outcome = self._independent_read(handle, region, atomic, fresh=True)
            self._scatter_into(buffer, stream, datatype, count)
            return outcome

        return self._issue(self._next_label("iread_at"), "read", body, collective=False)

    def Write(self, buffer: Buffer, count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> int:  # noqa: N802
        """Independent write at the individual file pointer."""
        data_len = self._data_stream_size(buffer, datatype, count)
        written = self.Write_at(self._position, buffer, count, datatype)
        self._position += data_len // self._view.etype_size
        return written

    def Read(self, buffer: Buffer, count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> IOOutcome:  # noqa: N802
        """Independent read at the individual file pointer."""
        data_len = self._data_stream_size(buffer, datatype, count)
        outcome = self.Read_at(self._position, buffer, count, datatype)
        self._position += data_len // self._view.etype_size
        return outcome

    # -- internals ---------------------------------------------------------------------------------

    @staticmethod
    def _write_region(
        handle: ClientFileHandle, region: FileRegionSet, data: bytes, direct: bool
    ) -> int:
        written = 0
        for buf_off, file_off, length in region.buffer_map():
            written += handle.write(file_off, data[buf_off : buf_off + length], direct=direct)
        return written
