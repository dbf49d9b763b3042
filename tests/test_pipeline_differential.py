"""A collective's products on its shared list ≡ the stage objects and identity
memos they replaced, on generated views.

``repro.core.pipeline`` exchanges views with ``exchange_views`` and runs
plans with ``run_plan``; each schedule asks the collective's shared region
list for the one product it reads (``regions.once``), and ``auto`` replays
that list, products included, from its plan cache.  The classes and memos
this replaced — ``ViewExchange``, ``ConflictAnalysis``, ``ConflictReport``,
``PlanRunner``, ``_SharedMemo`` and the bodies that read a report — live on,
verbatim, in ``tests/reference_pipeline.py``.  Hypothesis draws view sets
(``generators.view_sets``: irregular, nested, identical and empty views)
for each registered strategy in turn, with drawn tunables, and runs a
collective write then a collective read-back of it on the engine executors,
once with the strategy of ``src/`` and once with the oracle in front of it.
Equal on both sides: every rank's plan and buffers as committed, every
outcome field, the file bytes, the per-byte writer runs, the read streams,
and every rank's clock and wait.  A second property repeats an ``auto`` collective
write over fixed views: every step after the first hits the plan cache, on
both sides alike.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import generators
from reference_pipeline import reference
from repro.core.autotune import AutoStrategy, peek_record
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor, rank_main
from repro.core.rank_ordering import HIGHER_RANK_WINS, LOWER_RANK_WINS
from repro.core.regions import FileRegionSet
from repro.core.registry import default_registry
from repro.core.strategies import (
    HierarchicalTwoPhaseStrategy,
    RankOrderingStrategy,
    TwoPhaseStrategy,
)
from repro.fs import ParallelFileSystem
from repro.mpi import run_spmd
from repro.patterns.workloads import rank_pattern_bytes
from tests.conftest import fast_fs_config

FILE_BYTES = 40
MAX_RANKS = 6


@st.composite
def tunables(draw, cls: type) -> dict:
    """Constructor arguments for ``cls``, drawn."""
    if issubclass(cls, TwoPhaseStrategy):
        kwargs = dict(
            num_aggregators=draw(st.none() | st.integers(1, MAX_RANKS + 2)),
            cb_buffer_size=draw(st.none() | st.integers(1, FILE_BYTES)),
            policy=draw(st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS])),
        )
        if issubclass(cls, HierarchicalTwoPhaseStrategy):
            kwargs["ranks_per_node"] = draw(st.integers(1, 4))
        return kwargs
    if cls is RankOrderingStrategy:
        return dict(
            policy=draw(st.sampled_from([HIGHER_RANK_WINS, LOWER_RANK_WINS])),
            use_cache=draw(st.booleans()),
        )
    if cls is AutoStrategy:
        return dict(plan_cache=draw(st.booleans()))
    return {}


@st.composite
def setups(draw, name: str):
    """``(views, new strategy factory, oracle strategy factory)``."""
    views = draw(generators.view_sets(FILE_BYTES, max_ranks=MAX_RANKS))
    cls = default_registry._classes[name]
    kwargs = draw(tunables(cls))
    hier_threshold = draw(st.sampled_from([2, 64]))

    def factory(strategy_cls):
        def make():
            strategy = strategy_cls(**kwargs)
            if isinstance(strategy, AutoStrategy):
                # Low enough that small generated jobs reach the hierarchical rules.
                strategy.engine.hier_threshold = hier_threshold
            return strategy

        return make

    return views, factory(cls), factory(reference(cls))


def recording(strategy, committed: list):
    """``strategy``, with every rank's committed plan and buffers recorded."""
    commit = strategy.commit

    def record(comm, handle, prepared):
        committed.append((prepared.plan, dict(prepared.buffers)))
        return commit(comm, handle, prepared)

    strategy.commit = record
    return strategy


def by_rank(committed: list) -> list:
    return sorted(committed, key=lambda entry: (entry[0].rank, entry[0].direction))


def observe(make_strategy, views) -> dict:
    """A collective write, then its read-back, with one strategy instance."""
    fs = ParallelFileSystem(fast_fs_config())
    committed: list = []
    strategy = recording(make_strategy(), committed)
    nprocs = len(views)
    wrote = AtomicWriteExecutor(fs, strategy, filename="d.dat").run(
        nprocs, lambda rank, P: views[rank], rank_pattern_bytes
    )
    read = CollectiveReadExecutor(fs, strategy, filename="d.dat").run(
        nprocs, lambda rank, P: views[rank]
    )
    store = wrote.file.store
    record = peek_record(fs, "d.dat")
    return dict(
        committed=by_rank(committed),
        outcomes=(wrote.outcomes, read.outcomes),
        clocks=[(c.now, c.waited) for c in wrote.spmd.clocks + read.spmd.clocks],
        bytes=store.snapshot(),
        writer_runs=[part.tolist() for part in store.writer_runs(0, store.size)],
        streams=read.data,
        plan_cache=None if record is None else (record.hits, record.misses),
    )


@pytest.mark.parametrize("name", default_registry.names())
@given(data=st.data())
def test_pipeline_matches_the_stage_objects(name, data):
    views, make_new, make_old = data.draw(setups(name))
    new, old = observe(make_new, views), observe(make_old, views)
    assert new["committed"] == old["committed"]
    assert new["outcomes"] == old["outcomes"]  # dataclass equality: every field
    assert new["clocks"] == old["clocks"]
    assert new["bytes"] == old["bytes"]
    assert new["writer_runs"] == old["writer_runs"]
    assert new["streams"] == old["streams"]
    assert new["plan_cache"] == old["plan_cache"]
    event(f"{len(views)} ranks")


def repeated(make_strategy, views, steps: int) -> dict:
    """``steps`` collective writes of fresh data through fixed views."""
    fs = ParallelFileSystem(fast_fs_config())
    committed: list = []
    strategy = recording(make_strategy(), committed)
    strategy.bind_context(fs, "r.dat")
    fobj = fs.create("r.dat")
    regions = [FileRegionSet(rank, segs) for rank, segs in enumerate(views)]
    nprocs = len(views)

    def write_steps(comm, handle, region):
        return [
            strategy.execute_write(
                comm, handle, region, rank_pattern_bytes(comm.rank + step * nprocs, region.total_bytes)
            )
            for step in range(steps)
        ]

    spmd = run_spmd(rank_main(fs, "r.dat", regions, write_steps), nprocs)
    record = peek_record(fs, "r.dat")
    return dict(
        committed=[plan for plan, _ in committed],
        outcomes=spmd.returns,
        clocks=[(c.now, c.waited) for c in spmd.clocks],
        bytes=fobj.store.snapshot(),
        writer_runs=[part.tolist() for part in fobj.store.writer_runs(0, fobj.store.size)],
        plan_cache=(record.hits, record.misses),
    )


@given(
    views=generators.view_sets(FILE_BYTES, max_ranks=MAX_RANKS),
    steps=st.integers(2, 4),
)
def test_auto_repeated_collective_replays_its_plan(views, steps):
    new = repeated(AutoStrategy, views, steps)
    old = repeated(reference(AutoStrategy), views, steps)
    assert new["plan_cache"] == old["plan_cache"] == (steps - 1, 1)
    for key in ("committed", "outcomes", "clocks", "bytes", "writer_runs"):
        assert new[key] == old[key], key
    event("aggregation" if "cb_nodes" in new["committed"][0].extra else "rank-ordering")
