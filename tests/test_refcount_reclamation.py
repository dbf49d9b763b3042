"""A finished run is freed by reference counting, not by the cyclic collector.

Every run builds a file system, byte stores, client caches, tasks and
outcomes.  If those form reference cycles they are cyclic garbage the moment
the run ends, and *when* they are reclaimed — hence the process's peak RSS —
depends on how much unrelated allocation happens to advance the generational
collector.  With the collector switched off, these tests require that
dropping a run's result frees the engine, the file system and its byte
stores on the spot, and that a collection afterwards finds none of the heavy
objects unreachable.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bench.machines import IBM_SP
from repro.core.engine import Engine
from repro.core.executor import AtomicWriteExecutor, CollectiveReadExecutor
from repro.core.registry import default_registry
from repro.fs.filesystem import ParallelFileSystem
from repro.jobs import JobSpec, MultiTenantScheduler
from repro.pipelines import CoupledPipeline, PipelineSpec, StageSpec

HEAVY = {"Engine", "Task", "ParallelFileSystem", "ByteStore", "ClientFileHandle", "ClientCache"}


class _Tracker:
    """What a test's run created: weak references to its engines, and (on
    request) the ids of its heavy objects."""

    def __init__(self) -> None:
        self.engines: list = []
        self.before = set(heavy_objects())

    def created(self) -> set:
        return set(heavy_objects()) - self.before


@pytest.fixture
def engines(monkeypatch):
    """Tracks every engine built during the test; the collector is off."""
    gc.collect()
    gc.disable()
    tracker = _Tracker()
    init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracker.engines.append(weakref.ref(self))

    monkeypatch.setattr(Engine, "__init__", recording_init)
    try:
        yield tracker
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def heavy_objects() -> dict:
    """``id -> type name`` of every live heavy object the collector tracks."""
    return {id(obj): type(obj).__name__ for obj in gc.get_objects() if type(obj).__name__ in HEAVY}


def unreachable_among(ids: set) -> set:
    """Type names of the objects in ``ids`` that only a collection can free.
    (Scoped by identity: a straggler task of an *earlier*, timed-out test may
    die at any moment and leave its own engine as garbage.)"""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    names = {type(obj).__name__ for obj in gc.garbage if id(obj) in ids}
    gc.set_debug(0)
    gc.garbage.clear()
    return names


def make_fs() -> ParallelFileSystem:
    return ParallelFileSystem(IBM_SP.make_fs_config())


def assert_freed(engines, fs_ref, store_refs, mine: set) -> None:
    """``mine``: ids of the heavy objects the run created (taken while its
    result was still alive)."""
    assert engines.engines and all(ref() is None for ref in engines.engines)
    assert fs_ref() is None
    assert store_refs and all(ref() is None for ref in store_refs)
    assert mine and unreachable_among(mine) == set()


def stores_of(fs: ParallelFileSystem) -> list:
    return [weakref.ref(fs.lookup(name).store) for name in fs.list_files()]


@pytest.mark.parametrize("strategy", ["two-phase", "locking", "rank-ordering"])
def test_an_executor_point_is_freed_without_the_collector(engines, strategy):
    P = 16
    views = [[(rank * 96 + row * 4096, 128) for row in range(8)] for rank in range(P)]
    fs = make_fs()
    written = AtomicWriteExecutor(fs, default_registry.create(strategy), "/f").run(
        P, lambda rank, _P: views[rank], lambda rank, n: bytes([rank + 1]) * n
    )
    read = CollectiveReadExecutor(fs, default_registry.create(strategy), "/f").run(
        P, lambda rank, _P: views[rank]
    )
    assert written.total_bytes_written and read.total_bytes_read
    fs_ref, store_refs, mine = weakref.ref(fs), stores_of(fs), engines.created()
    del fs, written, read
    assert_freed(engines, fs_ref, store_refs, mine)


def test_a_scheduler_run_is_freed_without_the_collector(engines):
    specs = [
        JobSpec(f"job{j}", nprocs=4, M=8, N=256, filename="/shared", strategy="two-phase")
        for j in range(4)
    ]
    result = MultiTenantScheduler(make_fs(), timeout=60.0).run(specs)
    assert result.verify_write_atomicity("/shared").ok
    fs_ref, store_refs, mine = weakref.ref(result.fs), stores_of(result.fs), engines.created()
    del result
    assert_freed(engines, fs_ref, store_refs, mine)


@pytest.mark.parametrize("coordination", ["barrier", "overlapped"])
def test_a_pipeline_run_is_freed_without_the_collector(engines, coordination):
    spec = PipelineSpec(
        stages=(
            StageSpec("producer", 4, compute_seconds=0.002),
            StageSpec("consumer", 4, compute_seconds=0.002),
        ),
        M=16,
        N=256,
        steps=3,
        strategy="two-phase",
        coordination=coordination,
        overlap_depth=2,
    )
    fs = make_fs()
    result = CoupledPipeline(spec, timeout=60.0).run(fs)
    assert result.verify().ok
    fs_ref, store_refs, mine = weakref.ref(fs), stores_of(fs), engines.created()
    del fs, result
    assert_freed(engines, fs_ref, store_refs, mine)
