"""The :class:`Datatype` object — MPI derived datatypes as byte segments.

A :class:`Datatype` describes a (possibly non-contiguous) layout of bytes
relative to an origin address/offset.  It records:

* ``segments`` — the typemap, as an *ordered* tuple of ``(displacement,
  length)`` byte runs.  Order is significant: it is the data-stream order in
  which bytes are consumed from / produced into a contiguous buffer when the
  datatype is used for I/O or packing.
* ``size`` — the number of bytes of actual data (sum of segment lengths).
* ``lb`` / ``extent`` — the lower bound and extent, which control how
  successive elements of the type are laid out when a count > 1 is used.
  By default ``lb`` is the smallest displacement (0 for all of the paper's
  types) and ``extent`` spans to one past the largest displacement; the
  ``create_resized`` constructor can override both, mirroring
  ``MPI_Type_create_resized``.

Datatypes must be committed (:meth:`commit`) before being used in I/O calls,
mirroring ``MPI_Type_commit``; the constructors in
:mod:`repro.datatypes.constructors` return uncommitted types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .typemap import BasicType

__all__ = ["Datatype", "DatatypeError", "from_basic"]


class DatatypeError(Exception):
    """Raised on invalid datatype construction or use."""


def _merge_adjacent(segments: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Coalesce segments that are adjacent *in typemap order*.

    Only neighbouring entries whose byte ranges abut are merged; the overall
    order is preserved so the data-stream semantics do not change.
    """
    merged: List[Tuple[int, int]] = []
    for disp, length in segments:
        if length == 0:
            continue
        if merged and merged[-1][0] + merged[-1][1] == disp:
            merged[-1] = (merged[-1][0], merged[-1][1] + length)
        else:
            merged.append((disp, length))
    return tuple(merged)


@dataclass(frozen=True)
class Datatype:
    """An MPI (derived) datatype expressed as ordered byte segments."""

    segments: Tuple[Tuple[int, int], ...]
    lb: int
    extent: int
    name: str = "derived"
    committed: bool = field(default=False, compare=False)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def build(
        segments: Sequence[Tuple[int, int]],
        lb: Optional[int] = None,
        extent: Optional[int] = None,
        name: str = "derived",
    ) -> "Datatype":
        """Create a datatype from raw ``(displacement, length)`` segments.

        ``lb``/``extent`` default to the natural bounds of the segments.
        """
        segs = _merge_adjacent((int(d), int(length)) for d, length in segments)
        for disp, length in segs:
            if length < 0:
                raise DatatypeError(f"negative segment length in {name}: {length}")
        if segs:
            natural_lb = min(d for d, _ in segs)
            natural_ub = max(d + ln for d, ln in segs)
        else:
            natural_lb, natural_ub = 0, 0
        final_lb = natural_lb if lb is None else int(lb)
        final_extent = (natural_ub - final_lb) if extent is None else int(extent)
        if final_extent < 0:
            raise DatatypeError(f"negative extent in {name}: {final_extent}")
        return Datatype(segments=segs, lb=final_lb, extent=final_extent, name=name)

    def commit(self) -> "Datatype":
        """Return a committed copy of the datatype (``MPI_Type_commit``)."""
        return Datatype(
            segments=self.segments,
            lb=self.lb,
            extent=self.extent,
            name=self.name,
            committed=True,
        )

    # -- properties ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of data bytes the type describes (``MPI_Type_size``)."""
        return sum(length for _, length in self.segments)

    @property
    def num_segments(self) -> int:
        """Number of contiguous byte runs in the typemap."""
        return len(self.segments)

    def is_contiguous(self) -> bool:
        """True when the type is one contiguous run with no holes and the
        extent equals the size (so repetition produces contiguous data)."""
        if not self.segments:
            return True
        return (
            len(self.segments) == 1
            and self.segments[0][0] == self.lb
            and self.extent == self.size
        )

    def require_committed(self) -> None:
        """Raise :class:`DatatypeError` unless the type has been committed."""
        if not self.committed:
            raise DatatypeError(
                f"datatype {self.name!r} used before MPI_Type_commit()"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Datatype({self.name!r}, size={self.size}, extent={self.extent}, "
            f"segments={len(self.segments)})"
        )


def from_basic(basic: BasicType) -> Datatype:
    """Wrap a predefined basic type as a (committed) :class:`Datatype`."""
    dt = Datatype.build([(0, basic.size)], name=basic.name)
    return dt.commit()
