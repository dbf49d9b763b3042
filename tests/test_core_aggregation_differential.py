"""Sweep merge ≡ byte-painting merge on generated piece lists; merge of
merges ≡ flat merge.

``repro.core.aggregation.merge_origin_runs`` resolves an aggregator's
conflicts by sweeping piece boundaries; the merge it replaced painted every
piece into per-byte arrays in ascending priority order and lives on, verbatim,
as ``tests/reference_merge.py``.  Hypothesis draws piece lists
(``generators.piece_lists``: repeated origins, touching / nested / identical /
zero-length extents, holes of gigabytes, ``bytes`` / ``bytearray`` /
``memoryview`` data, ``int`` or numpy-integer origins and offsets, plain
tuples or ``AggregatedRun`` records, overlapping pieces of *one* origin with
different bytes — where only the paint order among an origin's own pieces
decides) and the two must return identical ``AggregatedRun`` lists under the
paper's policy, its reverse, and a constant policy (every priority ties; the
lower rank wins) — every example under all three.

The second property is the one two-level aggregation rests on: merge each
group of a partition, merge the groups' runs again, and the result is the flat
merge's — with the sweep on both tiers.  Between different origins the winner
is fixed by ``(policy(origin), -origin)`` whatever the grouping, so any
partition *of the pieces* will do when no origin overlaps itself; an origin's
own overlapping pieces are ordered by offset and position, which only their
common merge sees, so then the partition is *of the origins* — the shape the
hierarchical shuffle has, where a rank ships all its pieces to one leader.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module about a second, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_merge
from generators import piece_lists
from repro.core.aggregation import merge_origin_runs, merge_pieces
from repro.core.rank_ordering import HIGHER_RANK_WINS, LOWER_RANK_WINS

#: Every example is checked under each: the paper's rule, its reverse, and a
#: policy under which every priority ties.
POLICIES = (HIGHER_RANK_WINS, LOWER_RANK_WINS, lambda rank: 0)


def overlaps_itself(pieces) -> bool:
    """Whether two pieces of one origin share a byte."""
    ends = {}
    for origin, off, data in sorted(pieces, key=lambda piece: piece[:2]):
        if len(data) and off < ends.get(origin, 0):
            return True
        ends[origin] = max(ends.get(origin, 0), off + len(data))
    return False


@given(pieces=piece_lists())
def test_sweep_merge_equals_byte_painting_merge(pieces):
    for policy in POLICIES:
        merged = merge_origin_runs(pieces, policy)
        assert merged == reference_merge.merge_origin_runs(pieces, policy)
        assert all(type(run.data) is bytes and run.length > 0 for run in merged)
        # Disjoint, in file order, and touching runs differ in origin.
        for before, after in zip(merged, merged[1:]):
            gap = after.offset - (before.offset + before.length)
            assert gap > 0 or (gap == 0 and before.origin != after.origin)


@given(pieces=piece_lists(), data=st.data())
def test_merge_of_any_groupings_merges_equals_flat_merge(pieces, data):
    keys = [piece[0] for piece in pieces] if overlaps_itself(pieces) else range(len(pieces))
    group_of = data.draw(st.fixed_dictionaries({key: st.integers(0, 2) for key in keys}))
    order = data.draw(st.permutations(range(3)))
    for policy in POLICIES:
        tier1 = [
            merge_origin_runs(
                [piece for key, piece in zip(keys, pieces) if group_of[key] == group], policy
            )
            for group in order
        ]
        # The runs are merged again as they are: a run is a piece.
        two_level = merge_origin_runs([run for runs in tier1 for run in runs], policy)
        assert two_level == merge_origin_runs(pieces, policy)


@given(pieces=piece_lists())
def test_merge_pieces_is_merge_origin_runs_of_the_flattened_senders(pieces):
    by_sender = [
        (origin, [(off, data) for _, off, data in sent])
        for origin, sent in groupby(pieces, key=lambda piece: piece[0])
    ]
    for policy in POLICIES:
        assert merge_pieces(by_sender, policy) == merge_origin_runs(pieces, policy)


def test_negative_offsets_are_refused_as_before():
    pieces = [(0, 4, b"ab"), (1, -1, b"cd")]
    for merge in (merge_origin_runs, reference_merge.merge_origin_runs):
        with pytest.raises(ValueError, match="negative offsets not allowed"):
            merge(pieces)
