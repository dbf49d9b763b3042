"""Test-only oracle: the mask-based client cache ``src/`` used before pages
kept run lists, kept verbatim.

``repro.fs.cache`` stores a page's dirty and valid bytes as short sorted lists
of ``(start, stop)`` runs.  The ``_Page`` and ``ClientCache`` below are the
implementation it replaced — three ``page_size`` numpy arrays per page, masks
turned back into runs by ``_dirty_runs`` on every flush — moved here unchanged
so ``tests/test_fs_cache_differential.py`` can require the new cache to issue
the same ``store`` / ``fetch`` calls, return the same bytes and count the same
``CacheStats`` on generated operation sequences.  ``CachePolicy`` and
``CacheStats`` are imported, not copied: they did not change.

Never imported by ``src/``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.fs.cache import CachePolicy, CacheStats

FetchFn = Callable[[int, int], bytes]          # (offset, nbytes) -> data
StoreFn = Callable[[int, bytes], None]         # (offset, data) -> None


class _Page:
    """One cache page: data plus dirty- and valid-byte masks.

    ``dirty`` marks bytes written by this client and not yet flushed;
    ``valid`` marks bytes whose content is known (fetched from the server or
    written locally).  A page created by a write-allocate has only its dirty
    bytes valid, so a later read fills the remaining bytes from the server
    instead of returning zeros.
    """

    __slots__ = ("data", "dirty", "valid")

    def __init__(self, size: int) -> None:
        self.data = np.zeros(size, dtype=np.uint8)
        self.dirty = np.zeros(size, dtype=bool)
        self.valid = np.zeros(size, dtype=bool)

    @property
    def is_dirty(self) -> bool:
        return bool(self.dirty.any())

    @property
    def fully_valid(self) -> bool:
        return bool(self.valid.all())


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

    # -- helpers ------------------------------------------------------------------

    def _page_range(self, offset: int, nbytes: int) -> range:
        ps = self.policy.page_size
        first = offset // ps
        last = (offset + nbytes - 1) // ps if nbytes > 0 else first - 1
        return range(first, last + 1)

    def _touch(self, page_no: int) -> None:
        self._pages.move_to_end(page_no)

    def _evict_if_needed(self) -> None:
        while len(self._pages) > self.policy.max_pages:
            victim_no, victim = next(iter(self._pages.items()))
            if victim.is_dirty:
                self._write_back(victim_no, victim)
            del self._pages[victim_no]
            self.stats.evictions += 1

    @staticmethod
    def _dirty_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
        """Maximal ``[start, stop)`` runs of True values in a boolean mask."""
        if not mask.any():
            return []
        padded = np.empty(mask.shape[0] + 2, dtype=np.int8)
        padded[0] = padded[-1] = 0
        padded[1:-1] = mask
        edges = np.flatnonzero(np.diff(padded))
        return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]

    def _write_back(self, page_no: int, page: _Page) -> None:
        """Write the dirty byte runs of a page to the server."""
        base = page_no * self.policy.page_size
        for start, stop in self._dirty_runs(page.dirty):
            self._store(base + start, page.data[start:stop].tobytes())
            self.stats.write_backs += 1
        page.dirty[:] = False

    def _fill_from_server(self, page_no: int, page: _Page) -> None:
        """Fetch the page from the server and fill its not-yet-valid bytes
        (locally written bytes are never overwritten)."""
        ps = self.policy.page_size
        data = self._fetch(page_no * ps, ps)
        fresh = np.zeros(ps, dtype=np.uint8)
        fresh[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        missing = ~page.valid
        page.data[missing] = fresh[missing]
        page.valid[:] = True

    def _load_page(self, page_no: int) -> _Page:
        ps = self.policy.page_size
        page = self._pages.get(page_no)
        if page is not None:
            self._touch(page_no)
            if page.fully_valid:
                self.stats.hits += 1
            else:
                # Write-allocated page being read: fill the holes from the server.
                self.stats.misses += 1
                self._fill_from_server(page_no, page)
            return page
        self.stats.misses += 1
        page = _Page(ps)
        self._fill_from_server(page_no, page)
        self._pages[page_no] = page
        # Read ahead subsequent pages that are not yet cached.
        for ahead in range(1, self.policy.read_ahead_pages + 1):
            nxt = page_no + ahead
            if nxt in self._pages:
                continue
            ahead_page = _Page(ps)
            self._fill_from_server(nxt, ahead_page)
            self._pages[nxt] = ahead_page
            self.stats.read_ahead_pages += 1
        self._evict_if_needed()
        return page

    # -- public API ------------------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read through the cache (filling pages and reading ahead)."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if nbytes == 0:
            return b""
        ps = self.policy.page_size
        out = np.zeros(nbytes, dtype=np.uint8)
        for page_no in self._page_range(offset, nbytes):
            page = self._load_page(page_no)
            base = page_no * ps
            lo = max(offset, base)
            hi = min(offset + nbytes, base + ps)
            out[lo - offset : hi - offset] = page.data[lo - base : hi - base]
        return out.tobytes()

    def write(self, offset: int, data: bytes) -> None:
        """Write through or behind, per the cache policy."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if not data:
            return
        if not self.policy.write_behind:
            self._store(offset, data)
            # Keep any cached copies coherent with what was just stored.
            self._update_cached(offset, data, mark_dirty=False)
            return
        self._update_cached(offset, data, mark_dirty=True, create_missing=True)
        self._evict_if_needed()

    def _update_cached(
        self, offset: int, data: bytes, mark_dirty: bool, create_missing: bool = False
    ) -> None:
        ps = self.policy.page_size
        buf = np.frombuffer(data, dtype=np.uint8)
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
            page.data[lo - base : hi - base] = buf[lo - offset : hi - offset]
            page.valid[lo - base : hi - base] = True
            if mark_dirty:
                page.dirty[lo - base : hi - base] = True

    def flush(self) -> int:
        """Write back every dirty page; returns the number of dirty pages flushed.

        This is the client-side half of the ``MPI_File_sync`` the paper's
        handshaking strategies must issue after their writes.  Dirty byte
        runs that are contiguous in the file — even across page boundaries —
        are gathered into a single server write, which is exactly the request
        coalescing a write-behind policy exists to provide.
        """
        ps = self.policy.page_size
        dirty_pages = sorted(
            (page_no, page) for page_no, page in self._pages.items() if page.is_dirty
        )
        flushed = len(dirty_pages)
        run_start: Optional[int] = None
        run_data: List[bytes] = []
        run_end = -1

        def emit() -> None:
            if run_start is not None and run_data:
                self._store(run_start, b"".join(run_data))
                self.stats.write_backs += 1

        for page_no, page in dirty_pages:
            base = page_no * ps
            for i, j in self._dirty_runs(page.dirty):
                abs_start = base + i
                if run_start is not None and abs_start == run_end:
                    run_data.append(page.data[i:j].tobytes())
                else:
                    emit()
                    run_start = abs_start
                    run_data = [page.data[i:j].tobytes()]
                run_end = base + j
            page.dirty[:] = False
        emit()
        return flushed

    def invalidate(self) -> None:
        """Drop all clean pages (dirty pages are flushed first).

        The other half of the handshaking protocol: before reading a region
        another process may have just written, the stale cached copy must go.
        """
        self.flush()
        self.stats.invalidations += 1
        self._pages.clear()

    @property
    def cached_pages(self) -> int:
        """Number of pages currently resident."""
        return len(self._pages)

    def dirty_bytes(self) -> int:
        """Total bytes currently dirty in the cache."""
        return int(sum(p.dirty.sum() for p in self._pages.values()))
