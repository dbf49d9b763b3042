"""MPI file views.

A file view (MPI 2.0, ``MPI_File_set_view``) makes a subset of the file
"visible" to a process: starting at a byte ``displacement``, the ``filetype``
tiles the file indefinitely and only the bytes inside the filetype's segments
belong to the process's view; they form a contiguous *data stream* that reads
and writes consume in order.  The ``etype`` is the elementary unit in which
offsets and counts are expressed.

:class:`FileView` wraps the three components and answers the question the
MPI-IO layer and the atomicity strategies need answered: *which absolute file
byte ranges does a request of N etypes starting at file-pointer position S
touch?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..datatypes.constructors import as_datatype
from ..datatypes.datatype import Datatype, DatatypeError
from ..datatypes.flatten import segments_for_bytes
from ..datatypes.typemap import BYTE, BasicType

__all__ = ["FileView"]


@dataclass(frozen=True)
class FileView:
    """One process's view of a file: ``(displacement, etype, filetype)``."""

    displacement: int
    etype: Datatype
    filetype: Datatype

    def __post_init__(self) -> None:
        if self.displacement < 0:
            raise DatatypeError("file view displacement must be non-negative")
        if self.etype.size <= 0:
            raise DatatypeError("etype must have a positive size")
        if self.filetype.size == 0:
            raise DatatypeError("filetype must contain at least one data byte")
        if self.filetype.size % self.etype.size != 0:
            raise DatatypeError(
                "filetype size must be a multiple of the etype size "
                f"({self.filetype.size} vs {self.etype.size})"
            )

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def default() -> "FileView":
        """The default view: the whole file as a stream of bytes."""
        byte_dt = as_datatype(BYTE)
        return FileView(displacement=0, etype=byte_dt, filetype=byte_dt)

    @staticmethod
    def create(displacement: int, etype, filetype) -> "FileView":
        """Build a view, committing datatypes given as constructors' output."""
        et = as_datatype(etype) if isinstance(etype, (BasicType, Datatype)) else etype
        ft = as_datatype(filetype) if isinstance(filetype, (BasicType, Datatype)) else filetype
        if not et.committed:
            et = et.commit()
        if not ft.committed:
            ft = ft.commit()
        return FileView(displacement=displacement, etype=et, filetype=ft)

    # -- queries -------------------------------------------------------------------

    @property
    def etype_size(self) -> int:
        """Bytes per elementary type."""
        return self.etype.size

    def segments_for(
        self, nbytes: int, stream_position: int = 0
    ) -> List[Tuple[int, int]]:
        """Absolute file segments touched by a request of ``nbytes`` data
        bytes starting at data-stream byte ``stream_position``.

        The returned ``(offset, length)`` pairs are in data-stream order and
        are what the atomicity strategies consume as the flattened view.
        """
        if nbytes < 0 or stream_position < 0:
            raise ValueError("nbytes and stream_position must be non-negative")
        return segments_for_bytes(
            self.filetype, nbytes, offset=self.displacement, skip_bytes=stream_position
        )

    def segments_for_etypes(
        self, count: int, etype_position: int = 0
    ) -> List[Tuple[int, int]]:
        """Like :meth:`segments_for` but counted in etypes (MPI-style)."""
        return self.segments_for(
            count * self.etype_size, etype_position * self.etype_size
        )
