"""One collective request body ≡ the four hand-written ones, on generated
programs.

``MPIFile``'s ``Iwrite_all`` / ``Iread_all`` / ``Write_all_begin`` /
``Read_all_begin`` are one ``_collective`` body, its two split ``_end``
calls one ``_split_end``, and ``_issue`` no longer takes ``flush_main``; the
code they replaced lives on, verbatim, as ``tests/reference_collective.py``.
Hypothesis draws a program for 1–3 ranks (``generators.collective_programs``:
a strategy hint, epochs of a collective ``Set_atomicity``, then blocking,
nonblocking and split collective writes and reads of per-rank lengths, some
through a strided view or a strided memory datatype, some with a buffer too
short for its count, between independent writes that leave write-behind
pages on the main or the progress handle; some waited on — or ended — at
once and some at the end of the program, so a second ``begin`` meets an active
split and an ``_end`` names the wrong direction) and runs it once per
implementation, on a file system whose locking is central (``CENTRAL``),
token-based (``DISTRIBUTED``) or absent (``NONE``, ENFS).

Both runs must leave the same file bytes and per-byte provenance
(``writer_runs``), every rank's main and progress clocks at the same virtual
time with the same wait time, the same lock-manager counters and
released-lock history, the same cache statistics on every handle, and, call
by call, the same raised error types, the same filled read buffers and the
same outcome.  The one difference by design — a read into a buffer it cannot
fill now raises ``TypeError`` at issue — is not drawn here; its test is in
``tests/test_io_requests.py``.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given

from generators import collective_programs
from reference_collective import ReferenceMPIFile
from repro.datatypes import CHAR, vector
from repro.fs import ParallelFileSystem
from repro.fs.filesystem import LockProtocol
from repro.io import Info, MPIFile
from repro.mpi import SPMDExecutionError, run_spmd
from test_io_independent_differential import LOCK_COUNTERS, payload
from tests.conftest import fast_fs_config

#: The strided memory datatype of a typed call: 4 bytes of data per
#: 5-byte element, so a buffer of ``5 * count`` bytes holds ``count``.
ELEMENT = vector(2, 2, 3, CHAR)


def run(file_class, program, lock_protocol: str):
    """Run ``program`` with ``file_class``; everything the comparison reads."""
    fs = ParallelFileSystem(fast_fs_config(lock_protocol))
    strategy = program["strategy"]
    info = Info({"atomicity_strategy": strategy}) if strategy else None

    def fn(comm):
        f = file_class.Open(comm, "coll.dat", fs, info=info)
        view = program["views"][comm.rank]
        if view is not None:
            disp, blocklength, stride = view
            f.Set_view(disp, CHAR, vector(2, blocklength, stride, CHAR))
        log, pending, serial = [], [], 0

        def record(entry, call, buffer=None):
            try:
                log.append((entry, call(), None if buffer is None else bytes(buffer)))
            except Exception as exc:  # noqa: BLE001 - compared by type
                log.append((entry, "raised", type(exc).__name__))

        for atomic, calls in program["epochs"]:
            f.Set_atomicity(atomic)
            for call in calls:
                serial += 1
                name = call[0]
                entry = (serial, name, atomic)
                if name.endswith("_end"):
                    record(entry, getattr(f, name))
                    continue
                if name == "Write_at":
                    data = payload(comm.rank, serial, call[2][comm.rank])
                    record(entry, lambda: f.Write_at(call[1], data))
                    continue
                if name == "Iwrite_at":
                    data = payload(comm.rank, serial, call[2][comm.rank])
                    pending.append((entry, f.Iwrite_at(call[1], data).Wait, None))
                    continue
                _, sizes, typed, short, wait_now = call
                size = sizes[comm.rank]
                length = 5 * size - short if typed else size
                writing = "write" in name.lower()
                buffer = payload(comm.rank, serial, length) if writing else bytearray(length)
                args = (buffer, size, ELEMENT) if typed else (buffer,)
                if name in ("Write_all", "Read_all"):
                    record(entry, lambda: getattr(f, name)(*args), buffer)
                    continue
                try:
                    request = getattr(f, name)(*args)
                except Exception as exc:  # noqa: BLE001 - compared by type
                    log.append((entry, "raised", type(exc).__name__))
                    continue
                end = getattr(f, name.replace("_begin", "_end")) if "_begin" in name else request.Wait
                if wait_now:
                    record(entry, end, buffer)
                else:
                    pending.append((entry, end, buffer))
        for entry, end, buffer in pending:
            record(entry, end, buffer)
        f.Close()
        progress = f._async_comm.clock
        return log, f._handle.cache.stats, f._async_handle.cache.stats, (progress.now, progress.waited)

    try:
        result = run_spmd(fn, len(program["views"]))
    except SPMDExecutionError as exc:
        return {"failures": {r: type(e).__name__ for r, e in exc.failures.items()}}
    fobj = fs.lookup("coll.dat")
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


def read_after_progress_write(read: str):
    """An atomic ``read`` (``Iread_all`` or ``Read_all_begin``) that meets
    write-behind pages a non-atomic ``Iwrite_at`` left on the progress handle:
    it must flush them before its direct, locked fetch.  Rare in the drawn
    programs, so pinned as explicit examples."""
    return {
        "views": [None, None],
        "strategy": None,
        "epochs": [
            (False, [("Iwrite_at", 0, [100, 100])]),
            (True, [(read, [100, 100], False, False, True)]),
        ],
    }


@pytest.mark.parametrize(
    "lock_protocol", [LockProtocol.CENTRAL, LockProtocol.DISTRIBUTED, LockProtocol.NONE]
)
@given(program=collective_programs())
@example(program=read_after_progress_write("Iread_all"))
@example(program=read_after_progress_write("Read_all_begin"))
def test_one_body_equals_four_hand_written_bodies(lock_protocol, program):
    mine = run(MPIFile, program, lock_protocol)
    oracle = run(ReferenceMPIFile, program, lock_protocol)
    assert mine.keys() == oracle.keys()
    if "failures" in oracle:
        assert mine == oracle
        return
    for key in ("bytes", "writer_runs", "clocks", "locks"):
        assert mine[key] == oracle[key], key
    for (log, *handles), (oracle_log, *oracle_handles) in zip(mine["returns"], oracle["returns"]):
        assert handles == oracle_handles
        assert log == oracle_log
