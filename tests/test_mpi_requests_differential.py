"""One request class and one receive body ≡ the two request families they
replaced, on generated programs.

``repro.mpi.status.Request`` serves point-to-point and file I/O alike; a
receive is a request completed when its message is deposited (a send is a
sequence point; the message goes to the earliest-posted matching receive);
``Waitall`` / ``Testall`` / ``Waitany`` complete one kind of request.  The
layer this replaced — the lazily completed point-to-point ``Request``, the
file ``IORequest``, the family dispatch and the message-only mailbox — lives
on, verbatim, as ``tests/reference_requests.py``.  Hypothesis draws a
program for 2–4 ranks (``generators.request_programs``: compute, barriers,
messages by ``send`` / ``isend`` and ``recv`` / ``irecv``, ``Iwrite_all`` /
``Iread_all`` / ``Iwrite_at`` on a non-atomic and an atomic file of a file
system without locks, ``wait`` / ``test`` and ``Waitall`` / ``Testall`` /
``Waitany`` over mixed lists with ``None`` placeholders) and runs it on each
layer.

Both runs must give, call by call, the same values, receive statuses,
probe results and raised error types; the same retired flags, taken before
the final drain; the same filled read buffers, file bytes, and every main
and progress clock at the same virtual time with the same wait time.  The
parent's point-to-point request has no retired flag of its own: there a
request consumed by ``wait`` or a true ``test`` counts as retired, one
drained by the list functions carries the flag they stamped on it.

The generator leaves out only the programs whose result on the parent
depended on the two behaviours this layer fixes:

* two pending receives that can match one message (the parent gave the
  message to whichever receive completed first, not to the one posted
  first): every message has its own tag and no receive names ``ANY_TAG``;
* a probe — ``test``, ``Testall``, ``Waitany`` — of a receive whose message
  may not be sent yet in virtual time (the parent's answer, and its
  ``Waitany`` choice, followed the order ranks happened to run in): a probe
  names a receive only if a barrier lies between its message and the probe.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

from hypothesis import example, given

import reference_requests as parent
from generators import request_programs
from repro.fs import ParallelFileSystem
from repro.fs.filesystem import LockProtocol
from repro.io import MPIFile
from repro.mpi import ANY_SOURCE, CommCostModel, Status, Testall, Waitall, Waitany, run_spmd
from tests.conftest import fast_fs_config

#: ``(file class, communicator wrapper, Waitall, Testall, Waitany)``.
LAYER = (MPIFile, lambda comm: comm, Waitall, Testall, Waitany)
PARENT = (parent.ReferenceMPIFile, parent.reference_comm, parent.Waitall, parent.Testall,
          parent.Waitany)


class Entry:
    """One request a rank holds, with what the program knows of it."""

    def __init__(self, request, message_round=None) -> None:
        self.request = request
        #: The round of a receive's message (``None``: not a receive).
        self.message_round = message_round
        #: Consumed by ``wait`` or a true ``test``.
        self.direct = False

    def retired(self) -> bool:
        flag = getattr(self.request, "retired", None)
        if flag is None:  # the parent's point-to-point request
            return self.direct or getattr(self.request, "_retired", False)
        return flag


def run(layer, program):
    """Run ``program`` on ``layer``; everything the comparison reads."""
    file_class, wrap, waitall, testall, waitany = layer
    fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
    rounds = program["rounds"]

    def fn(world):
        comm = wrap(world)
        rank = comm.rank
        files = [file_class.Open(comm, f"{name}.dat", fs) for name in ("plain", "atomic")]
        files[1].Set_atomicity(True)
        log, pool, made, buffers = [], [], [], []
        last_barrier = -1

        def record(k, call):
            try:
                result = call()
            except Exception as exc:  # noqa: BLE001 - compared by type
                log.append((k, "raised", type(exc).__name__))
                return None
            log.append((k, result))
            return result

        def pick(entries, mask, nones):
            chosen = [e for i, e in enumerate(entries) if mask >> i & 1]
            requests = [e.request for e in chosen]
            for position in nones:
                requests.insert(position % (len(requests) + 1), None)
            return chosen, requests

        def probe_safe():
            return [e for e in pool if e.message_round is None or e.message_round < last_barrier]

        def wait(entry):
            value = entry.request.wait()
            if entry.message_round is None:
                return value
            status = entry.request.status
            return value, (status.source, status.tag, status.count)

        for k, op in enumerate(rounds):
            kind = op[0]
            consumed = []
            if kind == "compute":
                comm.clock.advance(op[1][rank])
            elif kind == "barrier":
                comm.barrier()
                last_barrier = k
            elif kind == "message":
                _, src, dst, send, recv, any_source = op
                if rank == src:
                    if send == "send":
                        comm.send(("msg", k), dst, tag=k)
                    else:
                        made.append(Entry(comm.isend(("msg", k), dst, tag=k)))
                        pool.append(made[-1])
                if rank == dst:
                    source = ANY_SOURCE if any_source else src
                    if recv == "recv":
                        status = Status()
                        record(k, lambda: (comm.recv(source, k, status),
                                           (status.source, status.tag, status.count)))
                    else:
                        made.append(Entry(comm.irecv(source, k), message_round=k))
                        pool.append(made[-1])
            elif kind == "io":
                _, which, name, sizes = op
                f = files[which]
                size = sizes[rank]
                if name == "Iread_all":
                    buffers.append(bytearray(size))
                    request = f.Iread_all(buffers[-1])
                elif name == "Iwrite_all":
                    request = f.Iwrite_all(bytes([65 + rank]) * size)
                else:
                    request = f.Iwrite_at(64 * rank, bytes([97 + rank]) * size)
                made.append(Entry(request))
                pool.append(made[-1])
            elif kind in ("wait", "test"):
                entries = pool if kind == "wait" else probe_safe()
                if entries:
                    entry = entries[op[1] % len(entries)]
                    if kind == "wait":
                        record(k, lambda: wait(entry))
                    elif record(k, entry.request.test) is False:
                        continue
                    entry.direct = True
                    consumed = [entry]
            else:
                chosen, requests = pick(pool if kind == "Waitall" else probe_safe(), *op[1:])
                function = {"Waitall": waitall, "Testall": testall, "Waitany": waitany}[kind]
                result = record(k, lambda: function(requests))
                if kind == "Waitany":
                    consumed = [e for e in chosen if e.request is requests[result]] if result is not None else []
                elif result is not False:
                    consumed = chosen
            pool[:] = [e for e in pool if e not in consumed and not getattr(e.request, "retired", False)]

        retired = [e.retired() for e in made]
        record("drain", lambda: waitall([e.request for e in pool]))
        for f in files:
            f.Close()
        progress = [(f._async_comm.clock.now, f._async_comm.clock.waited) for f in files]
        return log, retired, [bytes(b) for b in buffers], progress

    result = run_spmd(fn, program["nranks"], comm_cost=CommCostModel(latency=program["latency"]))
    stores = [fs.lookup(f"{name}.dat").store for name in ("plain", "atomic")]
    return {
        "returns": result.returns,
        "clocks": [(c.now, c.waited) for c in result.clocks],
        "bytes": [store.read(0, store.size) for store in stores],
    }


def mixed_waitany():
    """Waitany over a file write, an ``isend`` and a received message, after
    a barrier; then a failing atomic ``Iwrite_at`` drained by ``Waitall``."""
    return {
        "nranks": 2,
        "latency": 1e-6,
        "rounds": [
            ("message", 0, 1, "isend", "irecv", True),
            ("io", 0, "Iwrite_all", [8, 8]),
            ("compute", [2e-5, 0.0]),
            ("barrier",),
            ("Waitany", 7, [0]),
            ("Waitany", 7, []),
            ("io", 1, "Iwrite_at", [4, 4]),
            ("Testall", 255, [1]),
        ],
    }


@given(program=request_programs())
@example(program=mixed_waitany())
def test_one_request_equals_two_request_families(program):
    mine = run(LAYER, program)
    oracle = run(PARENT, program)
    assert mine == oracle
