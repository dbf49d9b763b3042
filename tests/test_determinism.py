"""Determinism regression: the event-driven runtime is bit-for-bit
reproducible.

Two runs of the same column-wise concurrent overlapping write must produce
byte-identical file contents (data *and* per-byte writer provenance) and
identical virtual-time makespans, for every registered strategy.  The old
thread-per-rank runtime interleaved ranks at the mercy of the OS scheduler;
the cooperative engine resumes ranks in ``(virtual time, rank)`` order, so
any nondeterminism here is a regression in the scheduler or in a shared
service (lock manager, resource queue, collective rendezvous).
"""

from __future__ import annotations

import pytest

from repro.bench.machines import machine_by_name
from repro.core.executor import AtomicWriteExecutor
from repro.core.registry import default_registry
from repro.fs.filesystem import ParallelFileSystem
from repro.mpi.cost import CommCostModel
from repro.patterns.partition import column_wise_views
from repro.patterns.workloads import rank_fill_bytes

M, N, P, R = 32, 4096, 8, 4


def _run_once(strategy_name: str):
    machine = machine_by_name("IBM SP")
    fs = ParallelFileSystem(machine.make_fs_config())
    executor = AtomicWriteExecutor(
        fs,
        default_registry.create(strategy_name),
        filename="determinism.dat",
        comm_cost=CommCostModel(latency=30e-6, byte_cost=1e-8),
    )
    views = column_wise_views(M, N, P, R)
    result = executor.run(
        P, view_factory=lambda rank, _p: views[rank], data_factory=rank_fill_bytes
    )
    store = result.file.store
    return (
        store.snapshot(),
        store.writers(0, store.size).tobytes(),
        result.makespan,
        [o.bytes_moved for o in result.outcomes],
        [c.waited for c in result.spmd.clocks],
    )


@pytest.mark.parametrize("strategy", sorted(default_registry.names()))
def test_two_runs_are_bit_identical(strategy):
    first = _run_once(strategy)
    second = _run_once(strategy)
    assert first[0] == second[0], "file contents differ between runs"
    assert first[1] == second[1], "per-byte writer provenance differs between runs"
    assert first[2] == second[2], "virtual-time makespan differs between runs"
    assert first[3] == second[3], "per-rank byte accounting differs between runs"
    assert first[4] == second[4], "per-rank wait accounting differs between runs"


def test_locking_strategy_deterministic_on_distributed_locks():
    """The GPFS-style token manager must also grant deterministically."""
    machine = machine_by_name("IBM SP")  # GPFS personality: token-based locks
    runs = set()
    for _ in range(2):
        fs = ParallelFileSystem(machine.make_fs_config())
        executor = AtomicWriteExecutor(
            fs, default_registry.create("locking"), filename="locks.dat"
        )
        views = column_wise_views(M, N, P, R)
        result = executor.run(P, view_factory=lambda rank, _p: views[rank])
        runs.add((result.file.store.snapshot(), result.makespan))
    assert len(runs) == 1
