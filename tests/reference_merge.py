"""Test-only oracle: the byte-painting conflict merge ``src/`` used before
``merge_origin_runs`` became a sweep over piece boundaries, kept verbatim.

``repro.core.aggregation.merge_origin_runs`` picks the winner of every
stretch of bytes from *which pieces cover it*.  The function below is the
implementation it replaced — one ``uint8`` payload array and one ``int32``
per-byte origin array per connected covered extent, every piece painted in
ascending priority order, run boundaries recovered with ``np.diff`` over the
bytes — moved here unchanged so ``tests/test_core_aggregation_differential.py``
can require the sweep to return the same runs on generated piece lists.
``AggregatedRun``, ``IntervalSet`` and the policies are imported, not copied:
they did not change.  Origins are ranks: the ``int32`` array marks an
uncovered byte with ``-1``, so the oracle is only meaningful for origins in
``[0, 2**31)``.

Never imported by ``src/``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.aggregation import AggregatedRun
from repro.core.intervals import IntervalSet
from repro.core.rank_ordering import HIGHER_RANK_WINS, PriorityPolicy


def merge_origin_runs(
    runs: Sequence[Tuple[int, int, bytes]],
    policy: PriorityPolicy = HIGHER_RANK_WINS,
) -> List[AggregatedRun]:
    """Merge ``(origin_rank, file_offset, data)`` runs, resolving conflicts."""
    flat = [
        (int(origin), int(off), bytes(data))
        for origin, off, data in runs
        if len(data) > 0
    ]
    if not flat:
        return []
    # Merge densely only within each connected covered extent, so a sparse
    # domain (pieces straddling a large file hole) costs memory proportional
    # to the covered bytes, never to the overall offset span.
    coverage = IntervalSet.from_segments([(off, len(data)) for _, off, data in flat])
    components = coverage.intervals
    component_starts = [iv.start for iv in components]
    grouped: List[List[Tuple[int, int, bytes]]] = [[] for _ in components]
    # Ascending (priority, -rank): the last writer of a byte wins, so the
    # highest priority — and on ties the lowest rank, as in resolve_by_rank —
    # is applied last.
    for item in sorted(flat, key=lambda item: (policy(item[0]), -item[0], item[1])):
        # Each piece is contiguous, hence fully inside one covered component.
        idx = bisect_right(component_starts, item[1]) - 1
        grouped[idx].append(item)
    runs: List[AggregatedRun] = []
    for component, items in zip(components, grouped):
        lo, span = component.start, component.length
        merged = np.zeros(span, dtype=np.uint8)
        origin = np.full(span, -1, dtype=np.int32)
        for rank, off, data in items:
            a = off - lo
            b = a + len(data)
            merged[a:b] = np.frombuffer(data, dtype=np.uint8)
            origin[a:b] = rank
        change = np.flatnonzero(np.diff(origin) != 0) + 1
        starts = np.concatenate(([0], change))
        stops = np.concatenate((change, [span]))
        for s, e in zip(starts, stops):
            who = int(origin[s])
            if who < 0:
                continue
            runs.append(
                AggregatedRun(offset=lo + int(s), data=merged[s:e].tobytes(), origin=who)
            )
    return runs
