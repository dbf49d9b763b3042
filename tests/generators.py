"""Hypothesis strategies shared by the differential and property tests.

One definition of "a rank's view" and "a set of views over one small file",
so every generated-input proof (engine ≡ bulk, array-native verifiers ≡ the
scalar oracle, one-pass ``FileRegionSet`` ≡ the four-pass constructor, sweep
merge ≡ the byte-painting merge) draws from the same shapes: segments adjacent
to each other, out of file order, empty views, views nested in or equal to one
another.

Test-only; never imported by ``src/``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.aggregation import AggregatedRun


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


@st.composite
def engine_programs(draw, min_tasks: int = 2, max_tasks: int = 6):
    """A small SPMD program over the engine's primitives, for driven ≡
    yielded: ``program[round][task]`` is the task's batches in that round,
    each ``(lock, advances)`` — ``advances`` the clock advance of each event
    in the batch (whole numbers from 0, so tasks tie and the task-id
    tie-break decides), ``lock`` ``None`` or a ``(start, stop)`` byte range
    held around the batch (lock-manager acquisitions park and wake).  Rounds
    are separated by an all-task rendezvous (a ``wait`` / ``wake`` pair per
    task).  Every task takes part in every round, so no program deadlocks."""
    ntasks = draw(st.integers(min_tasks, max_tasks))
    lock = st.one_of(
        st.none(),
        st.tuples(st.integers(0, 4), st.integers(1, 4)).map(lambda r: (r[0], r[0] + r[1])),
    )
    batch = st.tuples(lock, st.lists(st.integers(0, 3).map(float), max_size=5))
    rounds = draw(st.integers(1, 3))
    return [
        [draw(st.lists(batch, max_size=3)) for _ in range(ntasks)] for _ in range(rounds)
    ]


@st.composite
def cache_programs(draw, operations, min_tasks: int = 2, max_tasks: int = 4):
    """Per-task lists of ``operations`` draws (client-cache calls) for 2–4
    engine tasks; a drawn flag per task says whether it closes its cache at
    the end."""
    ntasks = draw(st.integers(min_tasks, max_tasks))
    return [
        (draw(st.lists(operations, max_size=10)), draw(st.booleans())) for _ in range(ntasks)
    ]


@st.composite
def independent_programs(draw, file_bytes: int = 700, max_ranks: int = 3):
    """An SPMD program of independent MPI-IO calls on one shared file, for
    1–``max_ranks`` ranks: ``{"views": [...], "epochs": [...]}``.

    ``views[rank]`` is ``None`` (the default byte view) or ``(disp,
    blocklength, stride)`` — a two-block strided ``vector`` filetype, so a
    call's region may have several segments and its extent lock covers gaps.
    Each epoch is ``(atomic, ops, sync)``: a collective ``Set_atomicity
    (atomic)``, then ``ops[rank]`` — the calls that rank issues — then a
    collective ``Sync`` when ``sync`` is set.  A call is ``("Write_at" |
    "Iwrite_at" | "Read_at" | "Iread_at", offset, length, wait_now)``,
    ``("Write" | "Read", length)`` or ``("Seek", offset)``; ``wait_now`` says
    whether a nonblocking call is waited on at once or at the end of the
    epoch.  Ranges overlap between calls and ranks, may be empty, and
    straddle the test file system's 256-byte cache pages."""
    nranks = draw(st.integers(1, max_ranks))
    offsets = st.integers(0, file_bytes - 1)
    lengths = st.one_of(st.just(0), st.integers(1, 300))
    call = st.one_of(
        st.tuples(
            st.sampled_from(["Write_at", "Iwrite_at", "Read_at", "Iread_at"]),
            offsets,
            lengths,
            st.booleans(),
        ),
        st.tuples(st.sampled_from(["Write", "Read"]), lengths),
        st.tuples(st.just("Seek"), offsets),
    )
    view = st.one_of(
        st.none(),
        st.tuples(st.integers(0, 300), st.integers(1, 64), st.integers(65, 200)),
    )
    views = [draw(view) for _ in range(nranks)]
    epochs = [
        (draw(st.booleans()), [draw(st.lists(call, max_size=5)) for _ in range(nranks)],
         draw(st.booleans()))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return {"views": views, "epochs": epochs}


@st.composite
def collective_programs(draw, max_ranks: int = 3):
    """An SPMD program of collective MPI-IO calls on one shared file, for
    1–``max_ranks`` ranks: ``{"views": [...], "strategy": ..., "epochs": [...]}``.

    ``views`` are as in :func:`independent_programs`; ``strategy`` is an
    ``atomicity_strategy`` hint or ``None`` (the file system's default).  Each
    epoch is ``(atomic, calls)``: a collective ``Set_atomicity(atomic)``, then
    the calls every rank issues in the same order.  A call is one of

    * ``("Write_all" | "Read_all" | "Iwrite_all" | "Iread_all" |
      "Write_all_begin" | "Read_all_begin", sizes, typed, short, wait_now)``:
      ``sizes[rank]`` is a byte length, or with ``typed`` an element count of
      a strided memory datatype; ``short`` makes every rank's buffer one byte
      too short for its count, at least one (a wrong-length stream: a write
      fails at issue, a read when it delivers); ``wait_now`` says whether a
      nonblocking call is waited on — a split one ended — at once or at the
      end of the program, so a second ``begin`` may meet an active split;
    * ``("Write_at" | "Iwrite_at", offset, sizes)``: an independent write
      that leaves write-behind pages for a later collective to flush, on the
      rank's main handle or, waited on only at the end of the program, on
      its progress handle;
    * ``("Write_all_end" | "Read_all_end",)``, which may name the wrong
      direction or no active split."""
    nranks = draw(st.integers(1, max_ranks))
    view = st.one_of(
        st.none(),
        st.tuples(st.integers(0, 300), st.integers(1, 64), st.integers(65, 200)),
    )
    views = [draw(view) for _ in range(nranks)]
    strategy = draw(st.sampled_from(
        [None, "locking", "graph-coloring", "rank-ordering", "two-phase", "two-phase-hier", "auto"]
    ))

    @st.composite
    def data_call(draw):
        typed = draw(st.booleans())
        short = typed and draw(st.integers(0, 7)) == 0
        if typed:
            size = st.integers(1 if short else 0, 40)
        else:
            size = st.one_of(st.just(0), st.integers(1, 300))
        sizes = [draw(size) for _ in range(nranks)]
        name = draw(st.sampled_from([
            "Write_all", "Read_all", "Iwrite_all", "Iread_all", "Write_all_begin", "Read_all_begin",
        ]))
        return (name, sizes, typed, short, draw(st.booleans()))

    independent_write = st.tuples(
        st.sampled_from(["Write_at", "Iwrite_at"]),
        st.integers(0, 600),
        st.lists(st.integers(0, 300), min_size=nranks, max_size=nranks),
    )
    call = st.one_of(
        data_call(), data_call(), data_call(), independent_write,
        st.tuples(st.sampled_from(["Write_all_end", "Read_all_end"])),
    )
    epochs = [
        (draw(st.booleans()), draw(st.lists(call, max_size=4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return {"views": views, "strategy": strategy, "epochs": epochs}


@st.composite
def piece_lists(draw, max_pieces: int = 10):
    """``(origin, file_offset, data)`` pieces as an aggregator's merge takes
    them, 0–``max_pieces`` of them: extents irregular (touching, overlapping,
    zero-length), each nested in the one before, or all identical, laid on one
    to three bases far apart (a sparse domain: holes of gigabytes); origins
    drawn from a small range, so they repeat and **two overlapping pieces of
    one origin** occur (the case only the order among an origin's own pieces
    decides), or from a wide one, so they mostly do not; independent random
    bytes per piece, held as ``bytes``, ``bytearray`` or ``memoryview``;
    origins and offsets as ``int`` or numpy integers; each piece a plain tuple
    or an ``AggregatedRun`` (a merge's output, merged again as it is)."""
    shape = draw(st.sampled_from(["irregular", "irregular", "nested", "same"]))
    origins = st.integers(0, draw(st.sampled_from([2, 5, 64])))
    bases = st.sampled_from(
        draw(st.lists(st.sampled_from([0, 40, 10**9, 10**12]), min_size=1, max_size=3))
    )
    holders = st.sampled_from([bytes, bytearray, memoryview])
    integers = st.sampled_from([int, int, np.int64, np.uint64])
    records = st.sampled_from([tuple, AggregatedRun._make])
    lo, hi = draw(st.integers(0, 8)), draw(st.integers(8, 24))
    pieces = []
    for _ in range(draw(st.integers(0, max_pieces))):
        if shape == "irregular":
            lo = draw(st.integers(0, 24))
            hi = lo + draw(st.integers(0, 12))
        elif shape == "nested":
            lo = lo + draw(st.integers(0, 3))
            hi = max(lo, hi - draw(st.integers(0, 3)))
        data = draw(st.binary(min_size=hi - lo, max_size=hi - lo))
        piece = (
            draw(integers)(draw(origins)),
            draw(integers)(draw(bases) + lo),
            draw(holders)(data),
        )
        pieces.append(draw(records)(piece))
    return pieces


@st.composite
def lock_programs(draw, max_tasks: int = 4):
    """A program for one lock manager: ``{"protocol", "latencies", "tasks",
    "off_engine"}``.

    ``protocol`` is ``"central"`` or ``"tokens"``, ``latencies`` its drawn
    constructor arguments.  ``tasks`` holds 1–``max_tasks`` engine tasks as
    ``(owner, start_clock, ops, release_at_end)``; a task's owner is its
    index or, now and then, owner 0 again (a process's own locks never
    conflict).  An op
    first advances the task's clock by its ``dt``: ``("acquire", dt,
    (start, stop), mode)``, ``("release", dt, pick)`` (one of the task's
    granted locks, perhaps one released already), ``("release_all", dt)``
    or ``("relinquish", dt)``.  ``off_engine`` ops run afterwards outside
    any engine, where a conflict cannot wait: ``("acquire", owner, now,
    (start, stop), mode)``, ``("release", now, pick)``, ``("release_all",
    owner, now)``, ``("relinquish", owner)`` and ``("reset",)``.

    Ranges are irregular, all identical, or drawn from a nested family, over
    a 16-byte file; they may be empty and, now and then, invalid (negative
    start, stop before start), as may the mode.  Tasks that keep their locks
    to the end leave the others parked: the engine's deadlock cancellation
    is part of the program."""
    protocol = draw(st.sampled_from(["central", "tokens"]))
    latency = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.0))
    names = (
        ["request_latency"] if protocol == "central"
        else ["acquire_latency", "revoke_latency", "local_latency"]
    )
    latencies = {name: draw(latency) for name in names}
    shape = draw(st.sampled_from(["irregular", "irregular", "nested", "same", "same"]))
    if shape == "same":
        start = draw(st.integers(0, 12))
        ranges = st.just((start, start + draw(st.integers(0, 4))))
    elif shape == "nested":
        ranges = st.sampled_from([(0, 16), (2, 14), (4, 12), (6, 10), (8, 8)])
    else:
        ranges = st.tuples(st.integers(0, 10), st.integers(0, 6)).map(
            lambda r: (r[0], r[0] + r[1])
        )
    invalid = st.sampled_from([(-1, 4), (5, 3)])
    ranges = st.sampled_from([ranges] * 5 + [invalid]).flatmap(lambda pick: pick)
    modes = st.sampled_from(["shared"] * 4 + ["exclusive"] * 5 + ["upgrade"])
    dt = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
    kinds = st.sampled_from(["acquire"] * 4 + ["release"] * 2 + ["release_all", "relinquish"])

    def op(kind):
        if kind == "acquire":
            return st.tuples(st.just(kind), dt, ranges, modes)
        if kind == "release":
            return st.tuples(st.just(kind), dt, st.integers(0, 7))
        return st.tuples(st.just(kind), dt)

    tasks = [
        (draw(st.sampled_from([index, index, index, 0])), draw(st.sampled_from([0.0, 0.0, 1.0, 3.0])),
         draw(st.lists(kinds.flatmap(op), min_size=1, max_size=6)), draw(st.booleans()))
        for index in range(draw(st.sampled_from([1] + [2, 3, 4, 4][: max_tasks - 1])))
    ]
    owners = st.integers(0, 3)
    now = st.sampled_from([0.0, 1.0, 5.0, 20.0])
    off_op = st.one_of(
        st.tuples(st.just("acquire"), owners, now, ranges, modes),
        st.tuples(st.just("acquire"), owners, now, ranges, modes),
        st.tuples(st.just("release"), now, st.integers(0, 15)),
        st.tuples(st.just("release_all"), owners, now),
        st.tuples(st.just("relinquish"), owners),
        st.tuples(st.just("reset")),
    )
    return {
        "protocol": protocol,
        "latencies": latencies,
        "tasks": tasks,
        "off_engine": draw(st.lists(off_op, max_size=6)),
    }


@st.composite
def request_programs(draw, min_ranks: int = 2, max_ranks: int = 4, max_rounds: int = 16):
    """An SPMD program of point-to-point and file requests for
    ``min_ranks``–``max_ranks`` ranks: ``{"nranks", "latency", "rounds"}``.

    ``latency`` is the communicator's per-message cost.  Every rank runs the
    rounds in order, doing its own part of each:

    * ``("compute", seconds)``: rank *r* advances its clock ``seconds[r]``;
    * ``("barrier",)``;
    * ``("message", src, dst, send, recv, any_source)``: ``src`` sends one
      message to ``dst`` by ``"send"`` or ``"isend"`` and ``dst`` receives it
      by ``"recv"`` or ``"irecv"``, naming ``src`` or ``ANY_SOURCE``.  The tag
      is the round's index, so one receive matches each message and no
      message can match two pending receives;
    * ``("io", file, name, sizes)``: every rank issues ``name``
      (``Iwrite_all`` / ``Iread_all`` / ``Iwrite_at``) of ``sizes[r]`` bytes
      on file 0 (non-atomic) or file 1 (atomic, without locks: an
      ``Iwrite_at`` there fails at ``Wait``);
    * ``("wait" | "test", pick)``: every rank waits on — tests — one of its
      pending requests;
    * ``("Waitall" | "Testall" | "Waitany", mask, nones)``: every rank
      completes the pending requests bit ``mask`` selects, with ``None``
      placeholders inserted at the positions ``nones`` names.

    A probe — ``test``, ``Testall``, ``Waitany`` — names a receive only if a
    barrier lies between its message and the probe; see
    ``tests/test_mpi_requests_differential.py``."""
    nranks = draw(st.integers(min_ranks, max_ranks))
    ranks = st.integers(0, nranks - 1)
    seconds = st.sampled_from([0.0, 0.0, 1e-6, 4e-6, 2e-5])
    compute = st.tuples(st.just("compute"), st.lists(seconds, min_size=nranks, max_size=nranks))
    message = st.tuples(
        st.just("message"), ranks, ranks, st.sampled_from(["send", "isend"]),
        st.sampled_from(["recv", "irecv", "irecv"]), st.booleans(),
    )
    io = st.tuples(
        st.just("io"), st.integers(0, 1),
        st.sampled_from(["Iwrite_all", "Iwrite_all", "Iread_all", "Iwrite_at"]),
        st.lists(st.integers(0, 48), min_size=nranks, max_size=nranks),
    )
    single = st.tuples(st.sampled_from(["wait", "test"]), st.integers(0, 7))
    listed = st.tuples(
        st.sampled_from(["Waitall", "Testall", "Waitany", "Waitany"]),
        st.one_of(st.just(255), st.integers(0, 255)), st.lists(st.integers(0, 7), max_size=2),
    )
    round_ = st.one_of(
        compute, st.just(("barrier",)), st.just(("barrier",)), message, message, message,
        io, io, single, listed, listed,
    )
    return {
        "nranks": nranks,
        "latency": draw(st.sampled_from([0.0, 1e-6])),
        "rounds": draw(st.lists(round_, max_size=max_rounds)),
    }
