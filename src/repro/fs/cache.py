"""Client-side file cache with read-ahead and write-behind.

Section 3 of the paper discusses how client-server file systems (NFS/ENFS in
particular) complicate overlapping I/O: read-ahead pulls more data into a
client's cache than its file view logically overlaps, and write-behind delays
the moment written data becomes visible to other clients.  The process-
handshaking strategies therefore require an explicit ``sync`` (flush) after
writes and a cache invalidation before reads of overlapped regions.

:class:`ClientCache` models exactly that behaviour:

* reads fill whole cache pages and optionally *read ahead* extra pages;
* writes are buffered (*write-behind*) until :meth:`flush` — or write through
  when the policy disables write-behind;
* :meth:`invalidate` drops clean pages so subsequent reads fetch fresh data;
* dirty pages remember exactly which byte *runs* were written so a flush
  never writes back stale surrounding bytes (which would itself violate
  atomicity).

A page is its bytes plus two short sorted lists of disjoint, coalesced
``(start, stop)`` runs — the dirty bytes and the valid bytes.  The segments
the strategies push through here are a row of an array each, a hundred-odd
bytes in a 4 KiB page, so every operation costs per run touched, never per
byte of page: a write is one slice copy and a run insert, a flush walks the
dirty runs as they are, a fill copies only the gaps between valid runs.

The cache talks to the rest of the file system through two callables
(``fetch`` and ``store``) so it can be unit-tested in isolation.

Every server call is an event on shared virtual-time resources, so the data
path is written in *step form* (:func:`repro.core.engine.drive`): the
``*_steps`` generators ``yield`` immediately before each ``store`` /
``fetch`` call, and the public methods drive them.  Inside an engine the
whole batch then costs its rank one park, not one thread switch per call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from ..core.engine import Steps, drive
from ..core.intervals import py_union

__all__ = ["CachePolicy", "CacheStats", "ClientCache"]

FetchFn = Callable[[int, int], bytes]          # (offset, nbytes) -> data
StoreFn = Callable[[int, bytes], None]         # (offset, data) -> None


@dataclass(frozen=True)
class CachePolicy:
    """Tunable cache behaviour.

    Parameters
    ----------
    page_size:
        Cache page size in bytes.
    max_pages:
        Capacity; least-recently-used clean/dirty pages are evicted (dirty
        pages are written back first).
    read_ahead_pages:
        How many extra pages to prefetch past the end of a read.
    write_behind:
        Buffer writes in the cache until :meth:`ClientCache.flush` (True) or
        write through immediately (False).
    """

    page_size: int = 4096
    max_pages: int = 1024
    read_ahead_pages: int = 2
    write_behind: bool = True

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.max_pages <= 0:
            raise ValueError("max_pages must be positive")
        if self.read_ahead_pages < 0:
            raise ValueError("read_ahead_pages must be non-negative")

    def toggled_read_ahead(self, enabled: bool) -> int:
        """The page count a read-ahead toggle sets on a file system
        configured with this policy: none when off; when on, this policy's
        count, or the default where that is 0."""
        if not enabled:
            return 0
        return self.read_ahead_pages or CachePolicy.read_ahead_pages


@dataclass
class CacheStats:
    """Counters for cache behaviour (used by tests and benchmark reports)."""

    hits: int = 0
    misses: int = 0
    read_ahead_pages: int = 0
    write_backs: int = 0
    invalidations: int = 0
    evictions: int = 0


Run = Tuple[int, int]                          # [start, stop) within a page


def _add_run(runs: List[Run], lo: int, hi: int) -> None:
    """Insert ``[lo, hi)`` into sorted, disjoint, coalesced ``runs`` in place,
    merging every run it overlaps or touches."""
    if not runs or lo > runs[-1][1]:
        runs.append((lo, hi))
    else:
        runs[:] = py_union(runs, ((lo, hi),))


class _Page:
    """One cache page: data plus its dirty and valid byte runs.

    ``dirty`` holds the runs written by this client and not yet flushed;
    ``valid`` holds the runs whose content is known (fetched from the server
    or written locally).  A page created by a write-allocate has only its
    dirty bytes valid, so a later read fills the remaining bytes from the
    server instead of returning zeros.  Bytes outside ``valid`` are zero.
    """

    __slots__ = ("data", "dirty", "valid")

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)
        self.dirty: List[Run] = []
        self.valid: List[Run] = []


class ClientCache:
    """Per-client page cache in front of the file system servers."""

    def __init__(self, fetch: FetchFn, store: StoreFn, policy: Optional[CachePolicy] = None) -> None:
        self._fetch = fetch
        self._store = store
        self.policy = policy or CachePolicy()
        self._pages: "OrderedDict[int, _Page]" = OrderedDict()
        self.stats = CacheStats()

    def close(self) -> None:
        """Flush, then drop the server callbacks: they are bound methods of
        the handle that owns this cache, a reference cycle while kept."""
        self.flush()
        self._fetch = self._store = None

    # The public methods: each drives the step form of the same name.

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read through the cache (filling pages and reading ahead)."""
        return drive(self.read_steps(offset, nbytes))

    def write(self, offset: int, data: bytes) -> None:
        """Write through or behind, per the cache policy."""
        return drive(self.write_steps(offset, data))

    def flush(self) -> int:
        """Write back every dirty page; returns the number of dirty pages
        flushed (see :meth:`flush_steps`)."""
        return drive(self.flush_steps())

    def invalidate(self) -> None:
        """Drop all clean pages (dirty pages are flushed first)."""
        return drive(self.invalidate_steps())

    # -- helpers ------------------------------------------------------------------

    def _page_range(self, offset: int, nbytes: int) -> range:
        ps = self.policy.page_size
        first = offset // ps
        last = (offset + nbytes - 1) // ps if nbytes > 0 else first - 1
        return range(first, last + 1)

    def _touch(self, page_no: int) -> None:
        self._pages.move_to_end(page_no)

    def _evict_if_needed(self) -> Steps:
        while len(self._pages) > self.policy.max_pages:
            victim_no, victim = next(iter(self._pages.items()))
            if victim.dirty:
                yield from self._write_back(victim_no, victim)
            del self._pages[victim_no]
            self.stats.evictions += 1

    def _write_back(self, page_no: int, page: _Page) -> Steps:
        """Write the dirty byte runs of a page to the server."""
        base = page_no * self.policy.page_size
        for start, stop in page.dirty:
            yield
            self._store(base + start, bytes(page.data[start:stop]))
            self.stats.write_backs += 1
        page.dirty = []

    def _fill_from_server(self, page_no: int, page: _Page) -> Steps:
        """Fetch the page from the server and fill its not-yet-valid bytes
        (locally written bytes are never overwritten)."""
        ps = self.policy.page_size
        yield
        fresh = self._fetch(page_no * ps, ps)
        # The gaps between valid runs, clipped to what the server returned: a
        # short answer (end of file) leaves the rest of the page zero.
        pos = 0
        for lo, hi in page.valid + [(ps, ps)]:
            stop = min(lo, len(fresh))
            if pos < stop:
                page.data[pos:stop] = fresh[pos:stop]
            pos = hi
        page.valid = [(0, ps)]

    def _load_page(self, page_no: int) -> Steps:
        """A read miss: the page is absent or not wholly valid."""
        ps = self.policy.page_size
        self.stats.misses += 1
        page = self._pages.get(page_no)
        if page is not None:
            # Write-allocated page being read: fill the holes from the server.
            self._touch(page_no)
            yield from self._fill_from_server(page_no, page)
            return page
        page = _Page(ps)
        yield from self._fill_from_server(page_no, page)
        self._pages[page_no] = page
        # Read ahead subsequent pages that are not yet cached.
        for ahead in range(1, self.policy.read_ahead_pages + 1):
            nxt = page_no + ahead
            if nxt in self._pages:
                continue
            ahead_page = _Page(ps)
            yield from self._fill_from_server(nxt, ahead_page)
            self._pages[nxt] = ahead_page
            self.stats.read_ahead_pages += 1
        if len(self._pages) > self.policy.max_pages:
            yield from self._evict_if_needed()
        return page

    # -- the data path, in step form ---------------------------------------------------

    def read_steps(self, offset: int, nbytes: int) -> Steps:
        """:meth:`read`: a ``yield`` before every page fetch."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if nbytes == 0:
            return b""
        ps = self.policy.page_size
        whole = [(0, ps)]
        parts = []
        for page_no in self._page_range(offset, nbytes):
            page = self._pages.get(page_no)
            if page is not None and page.valid == whole:
                self._touch(page_no)
                self.stats.hits += 1
            else:
                page = yield from self._load_page(page_no)
            base = page_no * ps
            lo = max(offset, base)
            hi = min(offset + nbytes, base + ps)
            parts.append(page.data[lo - base : hi - base])
        return b"".join(parts)

    def write_steps(self, offset: int, data: bytes) -> Steps:
        """:meth:`write`: a ``yield`` before the write-through store and
        before every write-back an eviction forces."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if not data:
            return
        if not self.policy.write_behind:
            yield
            self._store(offset, data)
            # Keep any cached copies coherent with what was just stored.
            self._update_cached(offset, data, mark_dirty=False)
            return
        self._update_cached(offset, data, mark_dirty=True, create_missing=True)
        if len(self._pages) > self.policy.max_pages:
            yield from self._evict_if_needed()

    def _update_cached(
        self, offset: int, data: bytes, mark_dirty: bool, create_missing: bool = False
    ) -> None:
        ps = self.policy.page_size
        for page_no in self._page_range(offset, len(data)):
            page = self._pages.get(page_no)
            if page is None:
                if not create_missing:
                    continue
                # Write-allocate without fetching: only the dirty bytes are
                # meaningful and only they will ever be written back.
                page = _Page(ps)
                self._pages[page_no] = page
            else:
                self._touch(page_no)
            base = page_no * ps
            lo = max(offset, base)
            hi = min(offset + len(data), base + ps)
            page.data[lo - base : hi - base] = data[lo - offset : hi - offset]
            _add_run(page.valid, lo - base, hi - base)
            if mark_dirty:
                _add_run(page.dirty, lo - base, hi - base)

    def flush_steps(self) -> Steps:
        """Write back every dirty page; returns the number of dirty pages flushed.

        This is the client-side half of the ``MPI_File_sync`` the paper's
        handshaking strategies must issue after their writes.  Dirty byte
        runs that are contiguous in the file — even across page boundaries —
        are gathered into a single server write, which is exactly the request
        coalescing a write-behind policy exists to provide.
        """
        dirty_pages = sorted(
            page_no for page_no, page in self._pages.items() if page.dirty
        )
        for start, parts in self._dirty_extents(dirty_pages):
            yield
            self._store(start, b"".join(parts))
            self.stats.write_backs += 1
        return len(dirty_pages)

    def _dirty_extents(self, dirty_pages: List[int]) -> Iterator[Tuple[int, List[bytearray]]]:
        """``(file offset, parts)`` of every maximal dirty extent of the given
        pages in file order, each page marked clean as its runs are taken."""
        ps = self.policy.page_size
        run_start = run_end = -1
        run_data: List[bytearray] = []
        for page_no in dirty_pages:
            page = self._pages[page_no]
            base = page_no * ps
            for i, j in page.dirty:
                if base + i != run_end:
                    if run_data:
                        yield run_start, run_data
                    run_start = base + i
                    run_data = []
                run_data.append(page.data[i:j])
                run_end = base + j
            page.dirty = []
        if run_data:
            yield run_start, run_data

    def invalidate_steps(self) -> Steps:
        """Drop all clean pages (dirty pages are flushed first).

        The other half of the handshaking protocol: before reading a region
        another process may have just written, the stale cached copy must go.
        """
        yield from self.flush_steps()
        self.stats.invalidations += 1
        self._pages.clear()

    @property
    def cached_pages(self) -> int:
        """Number of pages currently resident."""
        return len(self._pages)

    def dirty_bytes(self) -> int:
        """Total bytes currently dirty in the cache."""
        return sum(j - i for p in self._pages.values() for i, j in p.dirty)
