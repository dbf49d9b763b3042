"""Hypothesis strategies shared by the differential and property tests.

One definition of "a rank's view" and "a set of views over one small file",
so every generated-input proof (engine ≡ bulk, array-native verifiers ≡ the
scalar oracle, one-pass ``FileRegionSet`` ≡ the four-pass constructor) draws
from the same shapes: segments adjacent to each other, out of file order,
empty views, views nested in or equal to one another.

Test-only; never imported by ``src/``.
"""

from __future__ import annotations

from hypothesis import strategies as st


def masks(file_bytes: int):
    """Which bytes of a ``file_bytes`` file a view covers, one flag per byte
    (may be none)."""
    return st.integers(0, 2**file_bytes - 1).map(
        lambda bits: [bool(bits >> pos & 1) for pos in range(file_bytes)]
    )


@st.composite
def segment_lists(draw, file_bytes: int, mask=None):
    """One rank's view: the covered bytes of ``mask`` (drawn when not given),
    cut into segments at drawn points (so segments may be adjacent), in a
    drawn order.  Disjoint by construction; may be empty."""
    if mask is None:
        mask = draw(masks(file_bytes))
    cuts = draw(st.sets(st.integers(1, file_bytes - 1), max_size=4))
    segments, start = [], None
    for pos in range(file_bytes + 1):
        inside = pos < file_bytes and mask[pos]
        if start is not None and (not inside or pos in cuts):
            segments.append((start, pos - start))
            start = None
        if inside and start is None:
            start = pos
    return draw(st.permutations(segments))


@st.composite
def view_sets(draw, file_bytes: int, min_ranks: int = 1, max_ranks: int = 4):
    """``min_ranks``–``max_ranks`` views over one small file, as segment
    lists: irregular, all the same bytes, or each nested in the one before.
    Some may be empty."""
    nranks = draw(st.integers(min_ranks, max_ranks))
    shape = draw(st.sampled_from(["irregular", "irregular", "nested", "same"]))
    if shape == "same":
        mask = draw(masks(file_bytes))
        return [draw(segment_lists(file_bytes, mask)) for _ in range(nranks)]
    if shape == "nested":
        lo, hi, views = 0, file_bytes, []
        for _ in range(nranks):
            mask = [lo <= pos < hi for pos in range(file_bytes)]
            views.append(draw(segment_lists(file_bytes, mask)))
            lo, hi = lo + draw(st.integers(0, 4)), hi - draw(st.integers(0, 4))
        return views
    return [draw(segment_lists(file_bytes)) for _ in range(nranks)]


@st.composite
def raw_segment_lists(draw, file_bytes: int):
    """``(offset, length)`` pairs as a caller may hand them to
    ``FileRegionSet``, valid or not: a disjoint view in file order or
    shuffled, with up to three drawn extras spliced in — zero-length
    segments, segments overlapping the view, negative offsets or lengths."""
    segments = list(draw(segment_lists(file_bytes)))
    if draw(st.booleans()):
        segments.sort()
    extras = draw(
        st.lists(st.tuples(st.integers(-1, file_bytes), st.integers(-1, 6)), max_size=3)
    )
    for extra in extras:
        segments.insert(draw(st.integers(0, len(segments))), extra)
    return segments
