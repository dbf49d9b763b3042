"""Test-only oracle: the ``ByteStore`` ``src/`` used before writes copied
through a memoryview and reads sliced ``tobytes()``, kept verbatim.

``repro.fs.storage.ByteStore`` copies bytes-like data into its data array
through a memoryview and pads a read past end of file with zero bytes.  The
class below is the implementation it replaced — every payload turned into a
``uint8`` array with ``np.frombuffer`` and stored with numpy slice
assignments, every read built in a fresh zeroed array — moved here unchanged
so ``tests/test_fs_storage_differential.py`` can require the new store to
agree on size, bytes and provenance after every step of generated
``write`` / ``read`` / ``truncate`` sequences.  ``NO_WRITER`` is imported, not
copied: it did not change.

Never imported by ``src/``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fs.storage import NO_WRITER


class ByteStore:
    """Growable byte storage with writer provenance.

    Parameters
    ----------
    initial_capacity:
        Bytes to pre-allocate; the store grows geometrically as needed.
    """

    def __init__(self, initial_capacity: int = 4096) -> None:
        if initial_capacity < 0:
            raise ValueError("initial_capacity must be non-negative")
        cap = max(16, int(initial_capacity))
        self._data = np.zeros(cap, dtype=np.uint8)
        self._writer = np.full(cap, NO_WRITER, dtype=np.int32)
        self._size = 0

    # -- internal -------------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        cap = self._data.shape[0]
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        data = np.zeros(new_cap, dtype=np.uint8)
        writer = np.full(new_cap, NO_WRITER, dtype=np.int32)
        data[: self._size] = self._data[: self._size]
        writer[: self._size] = self._writer[: self._size]
        self._data = data
        self._writer = writer

    # -- API -------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current file size in bytes (highest byte ever written + 1)."""
        return self._size

    def write(self, offset: int, data: bytes | bytearray | memoryview | np.ndarray,
              writer: int = NO_WRITER) -> int:
        """Atomically store ``data`` at ``offset``; returns bytes written.

        ``writer`` tags the provenance of every byte written by this call.
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if isinstance(data, np.ndarray):
            buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        else:
            buf = np.frombuffer(data if type(data) is bytes else bytes(data), dtype=np.uint8)
        n = buf.shape[0]
        if n == 0:
            return 0
        end = offset + n
        if end > self._size:
            self._ensure_capacity(end)
            self._size = end
        self._data[offset:end] = buf
        self._writer[offset:end] = writer
        return n

    def read(self, offset: int, nbytes: int) -> bytes:
        """Atomically read ``nbytes`` starting at ``offset``.

        Bytes beyond the current end of file read as zero, matching the
        behaviour of a sparse file.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if nbytes == 0:
            return b""
        out = np.zeros(nbytes, dtype=np.uint8)
        end = min(offset + nbytes, self._size)
        if end > offset:
            out[: end - offset] = self._data[offset:end]
        return out.tobytes()

    def writers(self, offset: int, nbytes: int) -> np.ndarray:
        """Provenance of each byte in ``[offset, offset + nbytes)``."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        out = np.full(nbytes, NO_WRITER, dtype=np.int32)
        end = min(offset + nbytes, self._size)
        if end > offset:
            out[: end - offset] = self._writer[offset:end]
        return out

    def writer_runs(self, offset: int, nbytes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run-length provenance of ``[offset, offset + nbytes)``.

        Returns ``(starts, stops, writers)``: the maximal runs of bytes last
        stored by one writer, as absolute file offsets in ascending order.
        Never-written bytes (and everything past end of file) belong to no
        run.  One pass over the range, no per-byte copy.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        w = self._writer[offset:max(offset, min(offset + nbytes, self._size))]
        heads = np.flatnonzero(w[1:] != w[:-1]) + 1
        # (`[:len(w)]`: an empty range has no run, not one empty run.)
        starts = np.concatenate(([0], heads))[: len(w)]
        stops = np.concatenate((heads, [len(w)]))[: len(w)]
        writers = w[starts].astype(np.int64)
        written = writers != NO_WRITER
        return starts[written] + offset, stops[written] + offset, writers[written]

    def distinct_writers(self, offset: int, nbytes: int) -> Tuple[int, ...]:
        """The set of writers that produced the bytes of the given range,
        excluding never-written bytes."""
        return tuple(np.unique(self.writer_runs(offset, nbytes)[2]).tolist())

    def truncate(self, size: int = 0) -> None:
        """Shrink (or extend with zeros) the file to ``size`` bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self._ensure_capacity(size)
        if size < self._size:
            self._data[size:self._size] = 0
            self._writer[size:self._size] = NO_WRITER
        self._size = size

    def snapshot(self) -> bytes:
        """The full file contents as bytes."""
        return self._data[: self._size].tobytes()
