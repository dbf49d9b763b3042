"""Per-process file system client.

:class:`FSClient` is the compute-node side of the file system: it owns the
process's injection-link resource, its virtual clock, and one
:class:`ClientCache` per open file.  :class:`ClientFileHandle` is what the
MPI-IO layer (:mod:`repro.io.file`) actually calls: contiguous ``read`` /
``write`` (cached or direct), byte-range ``lock`` / ``unlock``, ``sync`` and
``invalidate``.

Every operation charges virtual time:

* data transfers reserve the client link and the I/O servers holding the
  touched stripes — concurrent clients therefore share server bandwidth;
* lock acquisitions advance the clock to the grant time computed by the lock
  manager, which is where lock serialisation becomes visible;
* cached writes cost only a memory copy until the flush pushes them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.engine import Steps, drive, sequence_point
from ..mpi.clock import VirtualClock
from .cache import ClientCache
from .costmodel import CostModel, Resource
from .errors import InvalidRequest
from .filesystem import FileObject, ParallelFileSystem
from .lockmanager import GrantedLock, LockMode

__all__ = ["FSClient", "ClientFileHandle"]

#: Virtual-time bandwidth of a local memory copy (bytes/s) — the cost of a
#: write that lands in the write-behind cache instead of going to a server.
_MEMCPY_BANDWIDTH = 2e9


class FSClient:
    """One compute process's connection to the parallel file system."""

    def __init__(
        self,
        fs: ParallelFileSystem,
        client_id: int,
        clock: Optional[VirtualClock] = None,
        provenance_base: int = 0,
    ) -> None:
        self.fs = fs
        self.client_id = client_id
        self.clock = clock if clock is not None else VirtualClock()
        #: Offset added to explicit per-write provenance overrides.  The
        #: atomicity strategies attribute aggregated writes to *communicator
        #: ranks*; when several independent SPMD jobs share one file system
        #: (the multi-tenant scheduler), each job sets its clients'
        #: ``provenance_base`` to the job's global rank offset so recorded
        #: provenance stays globally unique and cross-job atomicity remains
        #: verifiable.  A single-world run keeps the default of 0, leaving
        #: provenance byte-identical to the direct engine path.
        self.provenance_base = provenance_base
        self.link = Resource(f"client-link-{client_id}", fs.config.client_link_cost)
        self._handles: Dict[str, "ClientFileHandle"] = {}

    def open(self, name: str, create: bool = True) -> "ClientFileHandle":
        """Open (optionally creating) a file; handles are cached per name."""
        if name in self._handles:
            return self._handles[name]
        fobj = self.fs.create(name) if create else self.fs.lookup(name)
        fobj.open_count += 1
        handle = ClientFileHandle(self, fobj)
        self._handles[name] = handle
        return handle

    def _forget(self, name: str) -> None:
        self._handles.pop(name, None)


class ClientFileHandle:
    """An open file as seen by one client process."""

    def __init__(self, client: FSClient, fobj: FileObject) -> None:
        self.client = client
        self.file = fobj
        cfg = client.fs.config
        self._caching = cfg.client_caching
        self.cache = ClientCache(
            fetch=self._timed_fetch,
            store=self._timed_store,
            policy=cfg.cache_policy,
        )
        self._held_locks: List[GrantedLock] = []
        self._closed = False

    # -- internals ------------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The owning client's virtual clock."""
        return self.client.clock

    def _charge_transfer(self, offset: int, nbytes: int) -> None:
        """Charge the client link and the touched servers for a transfer:
        one sequence point, then the link and every touched server are
        occupied from the same instant."""
        if nbytes <= 0:
            return
        client = self.client
        clock = client.clock
        sequence_point()
        start = clock.now
        completion = client.link.occupy(start, nbytes)
        servers = client.fs.servers.servers
        # The layout is read on every request: a ``striping_unit`` hint
        # replaces the shared file's layout while other handles are open.
        for server_idx, server_bytes in self.file.layout.bytes_per_server(offset, nbytes):
            end = servers[server_idx].resource.occupy(start, server_bytes)
            if end > completion:
                completion = end
        clock.advance_to(completion)

    def _timed_store(self, offset: int, data: bytes, writer: Optional[int] = None) -> None:
        """Server write including virtual-time charging (used by the cache
        write-back path and by direct writes)."""
        self._charge_transfer(offset, len(data))
        if writer is None:
            writer = self.client.client_id
        else:
            writer += self.client.provenance_base
        self.file.store.write(offset, data, writer)

    def _timed_fetch(self, offset: int, nbytes: int) -> bytes:
        """Server read including virtual-time charging."""
        self._charge_transfer(offset, nbytes)
        return self.file.store.read(offset, nbytes)

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidRequest(f"file {self.file.name!r} handle is closed")

    # -- data path -----------------------------------------------------------------------

    def write(
        self,
        offset: int,
        data: bytes,
        direct: bool = False,
        writer: Optional[int] = None,
    ) -> int:
        """Write ``data`` at ``offset`` — a :meth:`write_batch` of one.

        ``direct=True`` bypasses the client cache and goes straight to the
        servers — the behaviour of writes performed under a byte-range lock
        ("all read/write requests to it will directly go to the file server",
        Section 3 of the paper).

        ``writer`` overrides the provenance recorded by the byte store: a
        two-phase aggregator writes *on behalf of* the rank whose data won
        the merge.  Provenance overrides always go straight to the servers
        (the cache write-back path carries no per-byte attribution).
        """
        return drive(self.write_batch_steps(((offset, data, writer),), direct))

    def write_batch(self, writes: Iterable[Tuple], direct: bool = False) -> int:
        """Apply a plan's batched writes: ``(offset, data)`` or
        ``(offset, data, writer)`` items, in order.

        This is the write-side execution entry point of the staged pipeline
        (:func:`repro.core.pipeline.run_plan`): one call per phase, with
        the phase's cache policy applied uniformly.  Returns total bytes
        written.
        """
        return drive(self.write_batch_steps(writes, direct))

    def write_batch_steps(self, writes: Iterable[Tuple], direct: bool) -> Steps:
        """:meth:`write_batch` in step form (:func:`repro.core.engine.drive`):
        a ``yield`` before every server write, the cache's included."""
        total = 0
        for item in writes:
            offset, data = item[0], item[1]
            writer = item[2] if len(item) > 2 else None
            self._check_open()
            if offset < 0:
                raise InvalidRequest("offset must be non-negative")
            if type(data) is not bytes:
                data = bytes(data)
            if not data:
                continue
            if direct or not self._caching or writer is not None:
                yield
                self._timed_store(offset, data, writer=writer)
            else:
                # Write-behind: pay only a memory copy now; servers are charged
                # when the dirty pages are flushed.
                self.clock.advance(len(data) / _MEMCPY_BANDWIDTH)
                yield from self.cache.write_steps(offset, data)
            total += len(data)
        return total

    def read(self, offset: int, nbytes: int, direct: bool = False) -> bytes:
        """Read ``nbytes`` at ``offset`` (through the cache unless ``direct``)
        — a :meth:`read_batch` of one."""
        return drive(self.read_batch_steps(((offset, nbytes),), direct))[0]

    def read_batch(
        self, reads: Iterable[Tuple[int, int]], direct: bool = False
    ) -> List[bytes]:
        """Apply a plan's batched reads: ``(offset, nbytes)`` items, in order.

        The read-side execution entry point of the staged pipeline
        (:func:`repro.core.pipeline.run_plan`), mirroring
        :meth:`write_batch`: one call per phase, the phase's cache policy
        applied uniformly.  Returns one bytes object per request.
        """
        return drive(self.read_batch_steps(reads, direct))

    def read_batch_steps(self, reads: Iterable[Tuple[int, int]], direct: bool) -> Steps:
        """:meth:`read_batch` in step form: a ``yield`` before every server
        read, the cache's page fills included."""
        fetched = []
        for offset, nbytes in reads:
            self._check_open()
            if offset < 0 or nbytes < 0:
                raise InvalidRequest("offset and nbytes must be non-negative")
            if nbytes == 0:
                fetched.append(b"")
            elif direct or not self._caching:
                yield
                fetched.append(self._timed_fetch(offset, nbytes))
            else:
                fetched.append((yield from self.cache.read_steps(offset, nbytes)))
        return fetched

    def sync(self) -> int:
        """Flush write-behind data to the servers (``fsync`` /
        ``MPI_File_sync`` client half); returns flushed page count."""
        self._check_open()
        return self.cache.flush()

    def invalidate(self) -> None:
        """Drop cached pages so subsequent reads fetch fresh server data."""
        self._check_open()
        self.cache.invalidate()

    # -- locking -----------------------------------------------------------------------

    def lock(self, start: int, stop: int, mode: str = LockMode.EXCLUSIVE) -> GrantedLock:
        """Acquire a byte-range lock, blocking until granted.

        The clock is advanced to the virtual grant time, so waiting behind
        another process's lock costs virtual time.
        """
        self._check_open()
        manager = self.file.require_lock_manager()
        lock, grant_time = manager.acquire(
            owner=self.client.client_id,
            start=start,
            stop=stop,
            mode=mode,
            now=self.clock.now,
        )
        self.clock.advance_to(grant_time, waiting=True)
        self._held_locks.append(lock)
        return lock

    def unlock(self, lock: GrantedLock) -> None:
        """Release a lock at the current virtual time."""
        self._check_open()
        manager = self.file.require_lock_manager()
        manager.release(lock, now=self.clock.now)
        if lock in self._held_locks:
            self._held_locks.remove(lock)

    def unlock_all(self) -> int:
        """Release every lock this handle still holds."""
        self._check_open()
        if not self._held_locks:
            return 0
        manager = self.file.require_lock_manager()
        count = 0
        for lock in list(self._held_locks):
            manager.release(lock, now=self.clock.now)
            count += 1
        self._held_locks.clear()
        return count

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current size of the file in bytes."""
        return self.file.size

    def close(self) -> None:
        """Flush, drop locks and tokens, and close the handle."""
        if self._closed:
            return
        self.cache.close()
        if self._held_locks and self.file.lock_manager is not None:
            self.unlock_all()
        lm = self.file.lock_manager
        if lm is not None:
            lm.relinquish_tokens(self.client.client_id)
        self.file.open_count -= 1
        self._closed = True
        self.client._forget(self.file.name)
