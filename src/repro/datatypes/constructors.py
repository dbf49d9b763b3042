"""MPI derived-datatype constructors.

These mirror the MPI-2 type constructors the paper's workloads rely on —
most importantly ``MPI_Type_create_subarray`` which Figure 4 of the paper
uses to describe the column-wise partitioned file view — plus the rest of
the standard family so arbitrary non-contiguous file views can be expressed:

========================  =======================================
MPI call                  function here
========================  =======================================
MPI_Type_contiguous       :func:`contiguous`
MPI_Type_vector           :func:`vector`
MPI_Type_create_hvector   :func:`hvector`
MPI_Type_indexed          :func:`indexed`
MPI_Type_create_hindexed  :func:`hindexed`
MPI_Type_create_indexed_block :func:`indexed_block`
MPI_Type_create_struct    :func:`struct`
MPI_Type_create_subarray  :func:`subarray`
MPI_Type_create_darray    (not needed by the paper; see subarray)
MPI_Type_create_resized   :func:`resized`
========================  =======================================

Every constructor accepts either a :class:`~repro.datatypes.typemap.BasicType`
or an existing :class:`~repro.datatypes.datatype.Datatype` as the old type and
returns an *uncommitted* :class:`Datatype`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from .datatype import Datatype, DatatypeError, from_basic
from .typemap import BasicType

__all__ = [
    "ORDER_C",
    "ORDER_FORTRAN",
    "as_datatype",
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "struct",
    "subarray",
    "resized",
]

ORDER_C = "C"
ORDER_FORTRAN = "F"

TypeLike = Union[BasicType, Datatype]


def as_datatype(oldtype: TypeLike) -> Datatype:
    """Coerce a basic type or datatype into a :class:`Datatype`."""
    if isinstance(oldtype, BasicType):
        return from_basic(oldtype)
    if isinstance(oldtype, Datatype):
        return oldtype
    raise DatatypeError(f"not a datatype: {oldtype!r}")


def _replicate(
    segments: Sequence[Tuple[int, int]], count: int, stride_bytes: int, base: int = 0
) -> List[Tuple[int, int]]:
    """``count`` copies of ``segments``, ``stride_bytes`` apart, the first at
    ``base``: the typemap of every block constructor.

    Copies of a single run whose length equals the stride abut, so they are
    built as the one run :func:`~repro.datatypes.datatype._merge_adjacent`
    would make of them: a row of *k* dense elements costs O(1), not O(k).
    Any other type is copied segment by segment, in typemap order.
    """
    if count > 0 and len(segments) == 1 and segments[0][1] == stride_bytes:
        disp, length = segments[0]
        return [(base + disp, count * length)]
    return [
        (base + i * stride_bytes + disp, length)
        for i in range(count)
        for disp, length in segments
    ]


def contiguous(count: int, oldtype: TypeLike) -> Datatype:
    """``MPI_Type_contiguous``: ``count`` copies of ``oldtype`` back to back
    (one ``extent`` apart), built by :func:`_replicate` — so ``count`` dense
    elements are one run from the start."""
    if count < 0:
        raise DatatypeError("count must be non-negative")
    old = as_datatype(oldtype)
    segments = _replicate(old.segments, count, old.extent)
    return Datatype.build(
        segments,
        lb=old.lb if count else 0,
        extent=old.extent * count,
        name=f"contig({count}x{old.name})",
    )


def vector(count: int, blocklength: int, stride: int, oldtype: TypeLike) -> Datatype:
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    block starts ``stride`` *elements* apart."""
    if count < 0 or blocklength < 0:
        raise DatatypeError("count and blocklength must be non-negative")
    old = as_datatype(oldtype)
    return hvector(count, blocklength, stride * old.extent, old)


def hvector(count: int, blocklength: int, stride_bytes: int, oldtype: TypeLike) -> Datatype:
    """``MPI_Type_create_hvector``: like :func:`vector` with a byte stride."""
    if count < 0 or blocklength < 0:
        raise DatatypeError("count and blocklength must be non-negative")
    old = as_datatype(oldtype)
    block = contiguous(blocklength, old)
    segments = _replicate(block.segments, count, stride_bytes)
    # MPI extent of a vector spans from the first to the last byte touched.
    return Datatype.build(segments, name=f"hvector({count},{blocklength},{stride_bytes})")


def indexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: TypeLike
) -> Datatype:
    """``MPI_Type_indexed``: blocks of varying length at element displacements."""
    old = as_datatype(oldtype)
    byte_disps = [d * old.extent for d in displacements]
    return hindexed(blocklengths, byte_disps, old)


def hindexed(
    blocklengths: Sequence[int], displacements: Sequence[int], oldtype: TypeLike
) -> Datatype:
    """``MPI_Type_create_hindexed``: like :func:`indexed` with byte displacements."""
    if len(blocklengths) != len(displacements):
        raise DatatypeError("blocklengths and displacements must have equal length")
    old = as_datatype(oldtype)
    segments: List[Tuple[int, int]] = []
    for blocklen, disp in zip(blocklengths, displacements):
        if blocklen < 0:
            raise DatatypeError("block lengths must be non-negative")
        segments += _replicate(old.segments, blocklen, old.extent, disp)
    return Datatype.build(segments, name=f"hindexed({len(blocklengths)} blocks)")


def indexed_block(
    blocklength: int, displacements: Sequence[int], oldtype: TypeLike
) -> Datatype:
    """``MPI_Type_create_indexed_block``: equal-length blocks at element displacements."""
    return indexed([blocklength] * len(displacements), displacements, oldtype)


def struct(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    types: Sequence[TypeLike],
) -> Datatype:
    """``MPI_Type_create_struct``: heterogeneous blocks at byte displacements."""
    if not (len(blocklengths) == len(displacements) == len(types)):
        raise DatatypeError("struct arguments must have equal lengths")
    segments: List[Tuple[int, int]] = []
    for blocklen, disp, typ in zip(blocklengths, displacements, types):
        old = as_datatype(typ)
        if blocklen < 0:
            raise DatatypeError("count must be non-negative")
        segments += _replicate(old.segments, blocklen, old.extent, disp)
    return Datatype.build(segments, name=f"struct({len(types)} members)")


def subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    oldtype: TypeLike,
    order: str = ORDER_C,
) -> Datatype:
    """``MPI_Type_create_subarray``: an n-dimensional sub-block of a larger array.

    This is the constructor the paper's Figure 4 uses to build the
    column-wise partitioned file view: ``sizes`` is the global array shape,
    ``subsizes`` the local block shape and ``starts`` the block origin, all
    in elements of ``oldtype``.  The resulting type's extent equals the whole
    global array so it can be used directly as an MPI-IO filetype.

    ``order`` selects row-major (:data:`ORDER_C`, default) or column-major
    (:data:`ORDER_FORTRAN`) linearisation.
    """
    ndims = len(sizes)
    if not (len(subsizes) == len(starts) == ndims):
        raise DatatypeError("sizes, subsizes and starts must have the same length")
    if ndims == 0:
        raise DatatypeError("subarray needs at least one dimension")
    for dim, (size, subsize, start) in enumerate(zip(sizes, subsizes, starts)):
        if size <= 0:
            raise DatatypeError(f"sizes[{dim}] must be positive")
        if subsize < 0 or start < 0 or start + subsize > size:
            raise DatatypeError(
                f"invalid subarray in dimension {dim}: "
                f"size={size}, subsize={subsize}, start={start}"
            )
    old = as_datatype(oldtype)
    elem = old.extent

    if order == ORDER_C:
        dims = list(range(ndims))            # most significant first
    elif order == ORDER_FORTRAN:
        dims = list(reversed(range(ndims)))  # reverse: last axis most significant
    else:
        raise DatatypeError(f"order must be 'C' or 'F', got {order!r}")

    # The sub-block is nested replication, innermost dimension first: a row
    # of that dimension's subsize elements one extent apart, the row repeated
    # along the next dimension one global row apart, and so on out.  Each
    # level is one `_replicate`, so a row of dense elements (or rows spanning
    # their whole dimension) stays one run, and an empty dimension empties
    # the type.
    segments: Sequence[Tuple[int, int]] = old.segments
    stride = elem  # bytes between neighbours along `dim` in the global array
    for dim in reversed(dims):
        segments = _replicate(segments, subsizes[dim], stride, starts[dim] * stride)
        stride *= sizes[dim]

    name = f"subarray(sizes={list(sizes)}, subsizes={list(subsizes)}, starts={list(starts)})"
    # Extent covers the full global array (``stride`` is now its size in
    # bytes) so repetition/filetype tiling works.
    return Datatype.build(segments, lb=0, extent=stride, name=name)


def resized(oldtype: TypeLike, lb: int, extent: int) -> Datatype:
    """``MPI_Type_create_resized``: override the lower bound and extent."""
    old = as_datatype(oldtype)
    return Datatype.build(old.segments, lb=lb, extent=extent, name=f"resized({old.name})")
