"""Block constructors ≡ a naive per-element replicate + merge oracle.

Every block constructor of :mod:`repro.datatypes.constructors` builds its
typemap with ``_replicate``, which builds copies of a single run as long as
their stride as the one run they abut into.  The oracle below does what the
constructors did before: one ``(displacement, length)`` entry per element
copy, then :func:`~repro.datatypes.datatype._merge_adjacent` over the whole
list, and MPI's bounds.  Hypothesis draws ``contiguous``, ``hvector``,
``hindexed``, ``struct`` and ``subarray`` (C and Fortran order) over shapes
and over basic, dense-derived, holed and ``resized`` old types (negative lower
bounds, extents shorter or longer than the data, empty types), and each
result must equal the oracle on ``segments``, ``lb``, ``extent`` and
``size``.
"""

from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.datatypes import (
    CHAR,
    DOUBLE,
    INT,
    SHORT,
    contiguous,
    hindexed,
    hvector,
    resized,
    struct,
    subarray,
)
from repro.datatypes.constructors import ORDER_C, ORDER_FORTRAN, as_datatype
from repro.datatypes.datatype import Datatype, _merge_adjacent

basics = st.sampled_from([CHAR, SHORT, INT, DOUBLE])


def old_types():
    """Basic, dense-derived, holed and resized old types."""
    dense = st.builds(contiguous, st.integers(0, 4), basics)
    holed = st.builds(
        lambda count, block, gap, basic: hvector(count, block, (block + gap) * basic.size, basic),
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), basics,
    )
    inner = st.one_of(basics, dense, holed)
    resizeds = st.builds(
        lambda old, lb, extent: resized(old, lb, extent),
        inner, st.integers(-4, 4), st.integers(0, 24),
    )
    # A resized type whose one run is exactly as long as its extent, but
    # displaced from its lower bound: copies still abut.
    shifted = st.builds(
        lambda basic, lb: resized(basic, lb, basic.size), basics, st.integers(-4, 4),
    )
    return st.one_of(inner, resizeds, shifted)


def naive(segments, count, stride, base=0):
    """One entry per copy of every segment, in typemap order."""
    return [
        (base + i * stride + disp, length)
        for i in range(count)
        for disp, length in segments
    ]


def natural(segments):
    """MPI's default bounds: lowest displacement to one past the highest byte."""
    segs = _merge_adjacent(segments)
    if not segs:
        return segs, 0, 0
    lb = min(d for d, _ in segs)
    return segs, lb, max(d + n for d, n in segs) - lb


def oracle_contiguous(count, old):
    segs = _merge_adjacent(naive(old.segments, count, old.extent))
    return segs, (old.lb if count else 0), old.extent * count


def oracle_hvector(count, blocklength, stride, old):
    block = _merge_adjacent(naive(old.segments, blocklength, old.extent))
    return natural(naive(block, count, stride))


def oracle_blocks(blocks):
    """``hindexed`` / ``struct``: ``(blocklength, displacement, old)`` each."""
    out = []
    for blocklength, disp, old in blocks:
        out += naive(old.segments, blocklength, old.extent, disp)
    return natural(out)


def oracle_subarray(sizes, subsizes, starts, old, order):
    """Every element of the sub-block, one by one, in linear order."""
    ndims = len(sizes)
    dims = list(range(ndims)) if order == ORDER_C else list(reversed(range(ndims)))
    strides, acc = [1] * ndims, 1
    for dim in reversed(dims):
        strides[dim] = acc
        acc *= sizes[dim]
    out = []
    for index in itertools.product(*(range(subsizes[d]) for d in dims)):
        element = sum((starts[d] + i) * strides[d] for d, i in zip(dims, index))
        out += naive(old.segments, 1, 0, element * old.extent)
    return _merge_adjacent(out), 0, acc * old.extent


def assert_equal(built: Datatype, expected):
    segments, lb, extent = expected
    assert built.segments == segments
    assert (built.lb, built.extent) == (lb, extent)
    assert built.size == sum(n for _, n in segments)


@given(st.integers(0, 12), old_types())
def test_contiguous(count, old):
    assert_equal(contiguous(count, old), oracle_contiguous(count, as_datatype(old)))


@given(st.integers(0, 5), st.integers(0, 5), st.integers(-16, 40), old_types())
def test_hvector(count, blocklength, stride, old):
    assert_equal(hvector(count, blocklength, stride, old),
                 oracle_hvector(count, blocklength, stride, as_datatype(old)))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-8, 64)), max_size=5), old_types())
def test_hindexed(blocks, old):
    old = as_datatype(old)
    assert_equal(hindexed([b for b, _ in blocks], [d for _, d in blocks], old),
                 oracle_blocks([(b, d, old) for b, d in blocks]))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-8, 64), old_types()), max_size=4))
def test_struct(blocks):
    assert_equal(
        struct([b for b, _, _ in blocks], [d for _, d, _ in blocks], [t for _, _, t in blocks]),
        oracle_blocks([(b, d, as_datatype(t)) for b, d, t in blocks]),
    )


@st.composite
def subarray_shapes(draw):
    ndims = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=ndims, max_size=ndims))
    subsizes, starts = [], []
    for size in sizes:
        subsize = draw(st.integers(0, size))
        subsizes.append(subsize)
        starts.append(draw(st.integers(0, size - subsize)))
    return sizes, subsizes, starts


@given(subarray_shapes(), old_types(), st.sampled_from([ORDER_C, ORDER_FORTRAN]))
def test_subarray(shape, old, order):
    sizes, subsizes, starts = shape
    assert_equal(subarray(sizes, subsizes, starts, old, order=order),
                 oracle_subarray(sizes, subsizes, starts, as_datatype(old), order))


def test_a_row_of_dense_elements_is_built_as_one_run(monkeypatch):
    """``contiguous(k, CHAR)`` hands ``Datatype.build`` one segment, not *k*;
    a ``subarray`` one per row, and one for rows spanning their dimension."""
    seen = []
    build = Datatype.build
    char = as_datatype(CHAR)

    def spy(segments, *args, **kwargs):
        seen.append(list(segments))
        return build(segments, *args, **kwargs)

    monkeypatch.setattr(Datatype, "build", staticmethod(spy))
    contiguous(4096, char)
    subarray([4, 4096], [2, 1024], [1, 8], char)
    subarray([4, 4096], [2, 4096], [1, 0], char)
    assert seen == [[(0, 4096)], [(4104, 1024), (8200, 1024)], [(4096, 8192)]]
