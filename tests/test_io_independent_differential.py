"""One-rank plans ≡ the hand-written independent path, on generated programs.

``MPIFile``'s six independent entry points (``Write_at`` / ``Read_at`` /
``Iwrite_at`` / ``Iread_at`` / ``Write`` / ``Read``) build a one-rank
``IOPlan`` and run it through ``PlanRunner``; the code they replaced lives on,
verbatim but for one marked coherence fix, as ``tests/reference_independent.py``.
Hypothesis draws a program for 1–3 ranks (``generators.independent_programs``:
epochs of a collective ``Set_atomicity``, then per-rank blocking and
nonblocking calls and seeks over overlapping, empty and page-straddling
ranges, some through a strided view, then an optional ``Sync``) and runs it
once per implementation, on a file system whose locking is central
(``CENTRAL``), token-based (``DISTRIBUTED``), or absent (``NONE``, ENFS — an
atomic write raises ``LockingUnsupported`` there, the program goes on).

Both runs must leave the same file bytes and per-byte provenance
(``writer_runs``), every rank at the same virtual time with the same wait
time, the same lock-manager counters and released-lock history, the same
cache statistics on every handle, and, call by call, the same raised error
types, the same filled read buffers and the same outcome.  What differs is
by design: a write now returns the ``IOOutcome`` (the oracle returns its
``bytes_moved``), a write's outcome now reports its lock and lock wait, and
every outcome now reports cache hits and misses — none of which the oracle
accounted.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given

from generators import independent_programs
from reference_independent import ReferenceMPIFile
from repro.core.strategies import IOOutcome
from repro.datatypes import CHAR, vector
from repro.fs import ParallelFileSystem
from repro.fs.filesystem import LockProtocol
from repro.io import MPIFile
from repro.mpi import SPMDExecutionError, run_spmd
from tests.conftest import fast_fs_config

#: Outcome fields the plan path accounts and the oracle never did.
NEWLY_ACCOUNTED = {"cache_hits", "cache_misses"}

#: Lock-manager counters, whichever personality the file system has.
LOCK_COUNTERS = (
    "wait_count",
    "shared_grant_count",
    "exclusive_grant_count",
    "local_grant_count",
    "token_acquisition_count",
    "revocation_count",
)


def payload(rank: int, serial: int, length: int) -> bytes:
    """Bytes that differ between ranks, calls and positions."""
    return bytes((rank * 61 + serial * 17 + i) % 251 for i in range(length))


def run(file_class, program, lock_protocol: str):
    """Run ``program`` with ``file_class``; everything the comparison reads."""
    fs = ParallelFileSystem(fast_fs_config(lock_protocol))

    def fn(comm):
        f = file_class.Open(comm, "ind.dat", fs)
        view = program["views"][comm.rank]
        if view is not None:
            disp, blocklength, stride = view
            f.Set_view(disp, CHAR, vector(2, blocklength, stride, CHAR))
        log, serial = [], 0

        def record(entry, call, buffer):
            try:
                log.append((entry, call(), bytes(buffer)))
            except Exception as exc:  # noqa: BLE001 - compared by type
                log.append((entry, "raised", type(exc).__name__))

        for atomic, ops, sync in program["epochs"]:
            f.Set_atomicity(atomic)
            pending = []
            for call in ops[comm.rank]:
                serial += 1
                name = call[0]
                if name == "Seek":
                    f.Seek(call[1])
                    continue
                args, length, wait_now = (
                    ([], call[1], True) if len(call) == 2 else ([call[1]], call[2], call[3])
                )
                writing = "write" in name.lower()
                buffer = payload(comm.rank, serial, length) if writing else bytearray(length)
                entry = (serial, name, atomic, length)
                if not name.startswith("I"):
                    record(entry, lambda: getattr(f, name)(*args, buffer), buffer)
                    continue
                request = getattr(f, name)(*args, buffer)
                if wait_now:
                    record(entry, request.Wait, buffer)
                else:
                    pending.append((entry, request, buffer))
            for entry, request, buffer in pending:
                record(entry, request.Wait, buffer)
            if sync:
                f.Sync()
        f.Close()
        return log, f._handle.cache.stats, f._async_handle.cache.stats

    nranks = len(program["views"])
    try:
        result = run_spmd(fn, nranks)
    except SPMDExecutionError as exc:
        return {"failures": {r: type(e).__name__ for r, e in exc.failures.items()}}
    fobj = fs.lookup("ind.dat")
    store, lm = fobj.store, fobj.lock_manager
    return {
        "returns": result.returns,
        "bytes": store.read(0, store.size),
        "writer_runs": [a.tolist() for a in store.writer_runs(0, store.size)],
        "clocks": [(c.now, c.waited) for c in result.clocks],
        "locks": None if lm is None else (
            {name: getattr(lm, name) for name in LOCK_COUNTERS if hasattr(lm, name)},
            [(g.owner, g.interval, g.mode, g.granted_at, g.released_at) for g in lm._history],
        ),
    }


def assert_same_call(mine, oracle) -> None:
    """One logged call: same error, same buffer, same outcome — up to the
    return type of a write and what only the plan path accounts."""
    (entry, got, buffer), (oracle_entry, expected, oracle_buffer) = mine, oracle
    assert entry == oracle_entry
    if expected == "raised" or got == "raised":
        assert (got, buffer) == (expected, oracle_buffer)
        return
    assert buffer == oracle_buffer
    assert isinstance(got, IOOutcome)
    _, name, atomic, length = entry
    if isinstance(expected, int):  # a write: the oracle returned the byte count
        assert got.bytes_moved == expected
        assert got.bytes_requested == length and got.strategy == "independent"
        assert got.locks_acquired == (1 if atomic and length else 0)
        assert (got.lock_wait_seconds > 0) == bool(got.locks_acquired)
        return
    mine_fields, oracle_fields = dataclasses.asdict(got), dataclasses.asdict(expected)
    for key in NEWLY_ACCOUNTED:
        del mine_fields[key], oracle_fields[key]
    assert mine_fields == oracle_fields


@pytest.mark.parametrize(
    "lock_protocol", [LockProtocol.CENTRAL, LockProtocol.DISTRIBUTED, LockProtocol.NONE]
)
@given(program=independent_programs())
def test_plan_path_equals_hand_written_path(lock_protocol, program):
    mine = run(MPIFile, program, lock_protocol)
    oracle = run(ReferenceMPIFile, program, lock_protocol)
    assert mine.keys() == oracle.keys()
    if "failures" in oracle:
        assert mine == oracle
        return
    for key in ("bytes", "writer_runs", "clocks", "locks"):
        assert mine[key] == oracle[key], key
    for (log, main_stats, async_stats), (oracle_log, oracle_main, oracle_async) in zip(
        mine["returns"], oracle["returns"]
    ):
        assert (main_stats, async_stats) == (oracle_main, oracle_async)
        assert len(log) == len(oracle_log)
        for entry, oracle_entry in zip(log, oracle_log):
            assert_same_call(entry, oracle_entry)
