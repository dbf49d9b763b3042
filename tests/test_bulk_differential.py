"""Engine ≡ bulk on generated inputs (ROADMAP aim 3: "equivalences on
generated inputs").

``tests/test_core_bulk.py`` pins the two drivers of the aggregation
coroutines to each other on hand-picked grids.  Here Hypothesis draws the
view sets — irregular, nested, fully overlapping, ranks with empty views,
segments out of file order — and the tunables — ``P`` not divisible by
``ranks_per_node``, more aggregators asked for than there are ranks, ``auto``
resolving to the flat or the hierarchical delegate — and each example runs a
collective write and a collective read on both substrates, asserting equal
clocks, file bytes, per-byte provenance, delivered streams and *every*
outcome field.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import generators
from repro.core.autotune import AutoStrategy, classify_pattern
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.regions import FileRegionSet
from repro.core.strategies import HierarchicalTwoPhaseStrategy, TwoPhaseStrategy
from repro.fs import ParallelFileSystem
from repro.patterns.workloads import rank_pattern_bytes
from tests.conftest import fast_fs_config

FILE_BYTES = 40
MAX_RANKS = 9

#: 1–9 views over one small file; some may be empty.
view_sets = generators.view_sets(FILE_BYTES, max_ranks=MAX_RANKS)


@st.composite
def strategy_factories(draw):
    """``(name, factory)`` — a fresh, identically tuned strategy per run."""
    name = draw(st.sampled_from(["two-phase", "two-phase-hier", "auto"]))
    aggregators = draw(st.none() | st.integers(1, MAX_RANKS + 3))
    buffer_size = draw(st.none() | st.integers(1, FILE_BYTES))
    ppn = draw(st.integers(1, 4))
    hier_threshold = draw(st.sampled_from([2, 64]))
    if name == "two-phase":
        return name, lambda: TwoPhaseStrategy(aggregators, cb_buffer_size=buffer_size)
    if name == "two-phase-hier":
        return name, lambda: HierarchicalTwoPhaseStrategy(
            aggregators, cb_buffer_size=buffer_size, ranks_per_node=ppn
        )

    def auto():
        strategy = AutoStrategy()
        # Low enough that small generated jobs reach the hierarchical rules.
        strategy.engine.hier_threshold = hier_threshold
        return strategy

    return name, auto


def run_pair(engine_cls, bulk_cls, make_strategy, views, seed=None):
    """The same collective on both substrates, each on its own file system."""
    results = []
    for executor_cls in (engine_cls, bulk_cls):
        fs = ParallelFileSystem(fast_fs_config())
        args = [len(views), lambda rank, P: views[rank]]
        if seed is not None:
            seed(fs)
        else:
            args.append(rank_pattern_bytes)
        results.append(executor_cls(fs, make_strategy(), filename="gen.dat").run(*args))
    return results


@given(views=view_sets, strategy=strategy_factories())
def test_engine_and_bulk_agree(views, strategy):
    name, make_strategy = strategy
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    if name == "auto" and classify_pattern(regions).kind == "contiguous":
        # ``auto`` answers contiguous views with rank-ordering, which has no
        # coroutine schedule: the bulk driver must refuse, not approximate.
        event("auto -> rank-ordering, refused")
        fs = ParallelFileSystem(fast_fs_config())
        with pytest.raises(TypeError, match="rank-ordering"):
            BulkWriteExecutor(fs, make_strategy(), filename="gen.dat").run(
                len(views), lambda rank, P: views[rank], rank_pattern_bytes
            )
        return

    engine, bulk = run_pair(AtomicWriteExecutor, BulkWriteExecutor, make_strategy, views)
    assert [c.now for c in bulk.spmd.clocks] == [c.now for c in engine.spmd.clocks]
    assert bulk.file.store.snapshot() == engine.file.store.snapshot()
    size = engine.file.store.size
    assert (
        bulk.file.store.writers(0, size).tolist()
        == engine.file.store.writers(0, size).tolist()
    )
    assert bulk.outcomes == engine.outcomes  # dataclass equality: every field
    event(f"{name}, {int(engine.outcomes[0].phases)} phases")

    def seed(fs):
        BulkWriteExecutor(fs, TwoPhaseStrategy(), filename="gen.dat").run(
            len(views), lambda rank, P: views[rank], rank_pattern_bytes
        )

    engine, bulk = run_pair(
        CollectiveReadExecutor, BulkReadExecutor, make_strategy, views, seed=seed
    )
    assert [c.now for c in bulk.spmd.clocks] == [c.now for c in engine.spmd.clocks]
    assert bulk.data == engine.data
    assert bulk.outcomes == engine.outcomes
