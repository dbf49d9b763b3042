"""Post-hoc verification of MPI and POSIX atomicity.

After a concurrent overlapping write the library can *prove* whether the MPI
atomic-mode guarantee held, thanks to the per-byte writer provenance kept by
:class:`repro.fs.storage.ByteStore`:

* **MPI atomicity** (Section 2.2): for every region where two processes'
  file views overlap, all bytes of that overlapped region must have been
  produced by a single process, and one sequential order of the writers must
  explain every region's winner.  :func:`check_mpi_atomicity` reports any
  region whose bytes mix writers — the "interleaved" outcome of Figure 2's
  non-atomic mode.

* **POSIX per-call atomicity** (Section 2.1): each individual contiguous
  write call must appear entirely or not at all.  The substrate enforces this
  by construction; :func:`check_posix_call_atomicity` verifies it anyway
  (a sanity check on the substrate itself and in the failure-injection
  tests).

* **Coverage**: every byte some process intended to write was written, and
  was written by one of the processes whose view covers it
  (:func:`check_coverage`).

* **Read atomicity**: every collective read must observe, within each
  elementary overlap segment, a value that some *single* committed write
  produced — never a mixture of two writers' data, and never a mixture of a
  writer's data and the pre-write state (:func:`check_read_atomicity`).  A
  violation is a *torn read*: the reader saw a file state that no sequential
  ordering of the write calls could have produced.  Readers record what they
  observed as :class:`ReadObservation` records (the data stream a collective
  read returned, plus the view it was read through).

Every checker is array-native, built on two primitives:

* :func:`repro.core.overlap.coverage_runs` cuts the file at every view
  boundary into elementary runs and lists each run's covering ranks (a CSR):
  ``O(E log E + R log R)`` for ``E`` view intervals, ``R`` (run, rank) entries;
* :meth:`repro.fs.storage.ByteStore.writer_runs` is the run-length form of
  the provenance: one locked pass over the hull of the ranges in question.

The runs of one are clipped against the runs of the other
(:func:`repro.core.intervals.clip_many`); the distinct (run, writer) pairs are
one ``np.unique`` over packed keys and every per-run verdict a membership test
or ``bincount`` over them.  The read check compares bytes: each (view, stream)
pair is laid out in file order, the observed ranges are cut at the run
boundaries, the baseline candidate is one ``reduceat`` over a mismatch mask
and the writer candidates are gather-compared :data:`_BLOCK` bytes at a time
(compared bytes × cover depth in all; index arrays under 2 MiB whatever the
file size).  The views are read in one pass that makes no numpy call per
view; beyond it, Python loops run only over *offending* runs, to word their
:class:`Violation`.  The scalar
implementations this replaced are the test-only oracle
``tests/reference_verify.py``; ``tests/test_verify_differential.py`` pins
every report equal to the oracle's — ``ok``, the violations in order and
word for word, both counters — on generated views, stores and seeded tears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from ..core.intervals import Interval, _ranges, clip_many
from ..core.overlap import _flatten, coverage_runs
from ..core.regions import FileRegionSet
from ..fs.storage import ByteStore

__all__ = [
    "Violation",
    "AtomicityReport",
    "ReadObservation",
    "StreamTrace",
    "check_mpi_atomicity",
    "check_posix_call_atomicity",
    "check_coverage",
    "check_read_atomicity",
    "check_stream_atomicity",
    "rekey_regions",
]


@dataclass(frozen=True)
class Violation:
    """One detected violation."""

    kind: str
    interval: Interval
    detail: str


@dataclass
class AtomicityReport:
    """Result of a verification pass."""

    ok: bool
    violations: List[Violation] = field(default_factory=list)
    overlap_regions_checked: int = 0
    overlapped_bytes: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def flag(self, kind: str, interval: Interval, detail: str) -> None:
        """Record one violation; the report is no longer ``ok``."""
        self.ok = False
        self.violations.append(Violation(kind, interval, detail))

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.ok:
            return (
                f"atomic: OK ({self.overlap_regions_checked} overlap regions, "
                f"{self.overlapped_bytes} overlapped bytes)"
            )
        return (
            f"atomic: VIOLATED in {len(self.violations)} region(s); first: "
            f"{self.violations[0].detail}"
        )


def _id_span(*ids: np.ndarray) -> Tuple[int, int]:
    """``(base, span)`` with every rank / writer id in ``[base, base + span)``:
    ``group * span + (id - base)`` is then one sortable int64 key per
    ``(group, id)`` pair, and ``divmod(key, span)`` unpacks it."""
    base = min(int(a.min(initial=0)) for a in ids)
    return base, max(int(a.max(initial=0)) for a in ids) - base + 1


def _run_writers(
    store: ByteStore, starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(query, writer, nbytes)`` for every provenance run inside each query
    range ``[starts[i], stops[i])``, from one pass over the ranges' hull."""
    lo = int(starts.min())
    w_starts, w_stops, writers = store.writer_runs(lo, int(stops.max()) - lo)
    query, run, a, b = clip_many(starts, stops, w_starts, w_stops)
    return query, writers[run], b - a


def _has_cycle(edges: set, nodes: set) -> bool:
    """Cycle detection (Kahn's algorithm) on a small precedence digraph."""
    succ: dict = {n: set() for n in nodes}
    indeg: dict = {n: 0 for n in nodes}
    for a, b in edges:
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    queue = [n for n in nodes if indeg[n] == 0]
    visited = 0
    while queue:
        n = queue.pop()
        visited += 1
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return visited != len(nodes)


def check_mpi_atomicity(store: ByteStore, regions: Sequence[FileRegionSet]) -> AtomicityReport:
    """Verify the MPI atomic-mode guarantee for a completed concurrent write.

    MPI atomic mode requires the outcome of concurrent overlapping writes to
    be *as if* the requests executed in some sequential order.  The checker
    verifies exactly that:

    1. split the file into elementary runs with a constant covering-rank set;
    2. within any run covered by two or more ranks, all bytes must carry one
       writer, and that writer must be one of the covering ranks;
    3. across runs, "writer *w* beat rank *x* here" induces the ordering
       constraint *x before w*; the constraints of all runs together must be
       satisfiable by a single total order (no cycles).  Alternating
       ownership of the rows of one overlapped region — Figure 2's
       "interleaved" outcome — produces a cycle and is reported.
    """
    report = AtomicityReport(ok=True)
    bounds, depth, ptr, ranks = coverage_runs(regions)
    over = np.flatnonzero(depth >= 2)
    if not len(over):
        return report
    report.overlap_regions_checked = len(over)
    report.overlapped_bytes = int((bounds[over + 1] - bounds[over]).sum())
    entry_run = np.repeat(np.arange(len(depth)), depth)
    contested = depth[entry_run] >= 2
    # The distinct (run, writer) pairs, split into covering and foreign ones
    # (ranks and writers as ids relative to `base`, packed with the run).
    query, writer, _ = _run_writers(store, bounds[over], bounds[over + 1])
    base, span = _id_span(ranks, writer)
    cov_run, cov_id = entry_run[contested], ranks[contested] - base
    pairs = np.unique(over[query] * span + (writer - base))
    own = np.isin(pairs, cov_run * span + cov_id)
    pair_run, pair_id = np.divmod(pairs, span)
    pair_writer = pair_id + base
    n_own = np.bincount(pair_run[own], minlength=len(depth))
    n_foreign = np.bincount(pair_run[~own], minlength=len(depth))
    for run in np.flatnonzero((n_foreign > 0) | (n_own > 1)).tolist():
        interval = Interval(int(bounds[run]), int(bounds[run + 1]))
        covering = ranks[ptr[run]:ptr[run + 1]].tolist()
        mine = slice(*np.searchsorted(pair_run, (run, run + 1)))
        for w in pair_writer[mine][~own[mine]].tolist():
            report.flag(
                "foreign-writer",
                interval,
                f"bytes [{interval.start},{interval.stop}) overlapped by ranks "
                f"{covering} were written by rank {w} whose view does not "
                f"cover them",
            )
        if n_own[run] > 1:
            report.flag(
                "interleaved",
                interval,
                f"bytes [{interval.start},{interval.stop}) overlapped by ranks "
                f"{covering} contain data from writers "
                f"{pair_writer[mine][own[mine]].tolist()}",
            )
    # A run with exactly one covering writer orders every other covering rank
    # before that winner.
    won = own & (n_own[pair_run] == 1)
    winner = np.zeros(len(depth), dtype=np.int64)
    winner[pair_run[won]] = pair_id[won]
    beaten = (n_own[cov_run] == 1) & (cov_id != winner[cov_run])
    edges = np.unique(cov_id[beaten] * span + winner[cov_run[beaten]])
    order_edges = set(zip(*(ids.tolist() for ids in np.divmod(edges, span))))
    if _has_cycle(order_edges, set(np.unique(cov_id).tolist())):
        report.flag(
            "interleaved",
            Interval(0, 0),
            "no sequential ordering of the write requests explains the file "
            "contents: different parts of the overlapped regions were won by "
            "conflicting writers (interleaving across an overlapped region)",
        )
    return report


def check_posix_call_atomicity(
    store: ByteStore, written_calls: Sequence[Tuple[int, int, int]]
) -> AtomicityReport:
    """Verify that no *individual* write call was torn.

    ``written_calls`` is a sequence of ``(writer, offset, length)`` records of
    calls whose target range was written by no other process; each such range
    must carry a single provenance equal to the writer.  (Ranges also written
    by others are covered by :func:`check_mpi_atomicity` instead.)
    """
    report = AtomicityReport(ok=True)
    calls = np.array(written_calls, dtype=np.int64).reshape(-1, 3)
    if not len(calls):
        return report
    writer, offset, length = calls.T
    query, seen, _ = _run_writers(store, offset, offset + length)
    mine = seen == writer[query]
    torn = np.bincount(query[~mine], minlength=len(calls)) > 0
    torn |= np.bincount(query[mine], minlength=len(calls)) == 0
    for i in np.flatnonzero(torn).tolist():
        report.flag(
            "torn-call",
            Interval(int(offset[i]), int(offset[i] + length[i])),
            f"write call by {writer[i]} at [{offset[i]},{offset[i] + length[i]}) "
            f"shows provenance {np.unique(seen[query == i]).tolist()}",
        )
    return report


@dataclass(frozen=True)
class ReadObservation:
    """What one rank's collective read returned.

    ``data`` is the contiguous data stream the read delivered, in the view's
    data-stream order (``region.total_bytes`` bytes).
    """

    rank: int
    region: FileRegionSet
    data: bytes


#: Bytes gather-compared at once by the read check: bounds its index arrays
#: (three int64 arrays of this length, 1.5 MiB) whatever the size of the file.
_BLOCK = 1 << 16


def _mismatches(
    a: np.ndarray, a_pos: np.ndarray, b: np.ndarray, b_pos: np.ndarray, lens: np.ndarray
) -> np.ndarray:
    """Per range ``i``, how many of ``a[a_pos[i] + k] != b[b_pos[i] + k]`` for
    ``k < lens[i]`` (at least one range, every ``lens[i]`` positive) — walked
    in windows of :data:`_BLOCK` compared bytes; a range may straddle windows."""
    ends = np.cumsum(lens)
    begs = ends - lens
    bad = np.zeros(len(lens), dtype=np.int64)
    for t0 in range(0, int(ends[-1]), _BLOCK):
        first = int(np.searchsorted(ends, t0, side="right"))
        last = int(np.searchsorted(begs, t0 + _BLOCK, side="left"))
        lo = np.maximum(begs[first:last], t0)
        n = np.minimum(ends[first:last], t0 + _BLOCK) - lo
        skip = lo - begs[first:last]
        differ = a[_ranges(a_pos[first:last] + skip, n)] != b[_ranges(b_pos[first:last] + skip, n)]
        bad[first:last] += np.add.reduceat(differ, np.cumsum(n) - n, dtype=np.int64)
    return bad


def _stack(
    regions: Sequence[FileRegionSet], streams: Sequence[bytes]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lay (view, stream) pairs out for comparison by *file* offset.

    Returns ``(buf, starts, stops, view)``: ``buf`` concatenates every
    stream's bytes re-ordered into ascending file order, so the coverage
    pieces ``[starts[j], stops[j])`` of all views (view by view, ``view[j]``
    says which) tile it: piece ``j`` sits at ``cumsum(stops - starts)[j - 1]``.
    One pass reads every view's segments; one gather puts views whose offsets
    descend in file order, and a view's touching segments coalesce.
    """
    counts = np.fromiter((len(r.segments) for r in regions), dtype=np.int64, count=len(regions))
    segments = chain.from_iterable(r.segments for r in regions)
    offs, lengths = np.fromiter(segments, dtype=(np.int64, 2), count=int(counts.sum())).T
    view = np.repeat(np.arange(len(regions)), counts)
    buf = np.frombuffer(b"".join(streams), dtype=np.uint8)
    if (offs[1:] < offs[:-1])[view[1:] == view[:-1]].any():  # not in file order: permute
        order = np.lexsort((offs, view))
        buf = buf[_ranges((np.cumsum(lengths) - lengths)[order], lengths[order])]
        offs, lengths = offs[order], lengths[order]
    stops = offs + lengths
    first = np.ones(len(offs), dtype=bool)
    first[1:] = (view[1:] != view[:-1]) | (offs[1:] != stops[:-1])
    return buf, offs[first], stops[np.roll(first, -1)], view[first]


def check_read_atomicity(
    observations: Sequence[ReadObservation],
    write_regions: Sequence[FileRegionSet],
    writer_data: Sequence[bytes],
    baseline: Optional[bytes] = None,
    committed: Optional[Collection[int]] = None,
) -> AtomicityReport:
    """Verify that no collective read was *torn* by concurrent writes.

    MPI atomic mode requires every read to be serialisable against the
    concurrent write requests: within each elementary file segment with a
    constant set of covering writers, the bytes a reader observed must be
    exactly what a *single* committed state provides — one covering writer's
    data for that segment, or the pre-write ``baseline`` (zeros for a fresh
    file).  A mixture of two writers — or of a writer and the baseline —
    within one segment means the reader saw a state no sequential ordering
    of the write calls could produce (a torn read); an observation outside
    every writer's view that differs from the baseline means the reader was
    served stale or corrupt data (e.g. by an unflushed peer cache).

    Parameters
    ----------
    observations:
        One record per collective read performed.
    write_regions:
        The concurrent writers' (untrimmed) file views.
    writer_data:
        ``writer_data[i]`` is the contiguous stream ``write_regions[i]``
        wrote, in view order.
    baseline:
        Snapshot of the file before the writes (defaults to all-zero bytes,
        the state of a freshly created file).
    committed:
        Ranks whose write *requests were completed* — ``Wait`` (or a true
        ``Test``) returned — before the reads began.  A nonblocking write is
        only readable-after via ``Wait``: while it is in flight a reader may
        legitimately observe the pre-write state, but once waited-on its
        data must be visible, so for any segment covered by a committed
        writer the baseline stops being an admissible observation (a reader
        returning it was served stale data).  Default: no write is known
        committed, i.e. every write is treated as potentially in flight.

    Raises :class:`ValueError`, naming the rank, when an observation's
    ``data`` or a writer's stream is not its view's ``total_bytes`` long.
    """
    for rank, region, stream, what in chain(
        ((o.rank, o.region, o.data, "observed") for o in observations),
        ((r.rank, r, data, "wrote") for r, data in zip(write_regions, writer_data)),
    ):
        if len(stream) != region.total_bytes:
            raise ValueError(
                f"rank {rank} {what} {len(stream)} bytes through a view of "
                f"{region.total_bytes} bytes"
            )
    report = AtomicityReport(ok=True)
    obs, o_starts, o_stops, o_view = _stack(
        [o.region for o in observations], [o.data for o in observations]
    )
    if not len(o_starts):
        return report
    # Runs and gaps: the writers' elementary runs, extended to tile [0, top).
    bounds, depth, ptr, ranks = coverage_runs(write_regions)
    top = max(int(o_stops.max()), int(bounds[-1]) if len(bounds) else 0)
    edges = np.concatenate(([0], bounds, [top]))
    t_depth = np.concatenate(([0], depth, [0]))[:len(edges) - 1]
    t_ptr = np.concatenate(([0], ptr, ptr[-1:]))[:len(edges)]
    # Cut every observed piece at every boundary; the cuts tile `obs` in order.
    piece, tile, lo, hi = clip_many(o_starts, o_stops, edges[:-1], edges[1:])
    n = hi - lo
    pos = np.cumsum(n) - n
    cut_depth = t_depth[tile]
    report.overlap_regions_checked = len(lo)
    report.overlapped_bytes = int(n[cut_depth >= 2].sum())
    # Candidate 1: the pre-write state — admissible only while every covering
    # write may still be in flight; a committed (waited-on) writer's data
    # must have replaced it.
    if baseline is None:
        ok = np.add.reduceat(obs != 0, pos, dtype=np.int64) == 0
    else:
        before = np.zeros(top, dtype=np.uint8)
        before[:len(baseline)] = np.frombuffer(baseline, dtype=np.uint8)[:top]
        ok = _mismatches(obs, pos, before, lo, n) == 0
    if committed:
        done = np.zeros(len(t_depth), dtype=bool)
        done[np.repeat(np.arange(len(t_depth)), t_depth)[np.isin(ranks, list(committed))]] = True
        ok &= ~done[tile]
    # Candidates 2..: each covering writer's bytes for the cut, for the cuts
    # the baseline did not explain.
    need = np.flatnonzero(~ok & (cut_depth > 0))
    if len(need):
        cut = np.repeat(need, cut_depth[need])
        w_rank = ranks[_ranges(t_ptr[tile[need]], cut_depth[need])]
        # Stacked in rank order, the writers' pieces are sorted by (writer,
        # offset): bisection finds the piece of writer `w_rank` holding a cut.
        writers = sorted(zip(write_regions, writer_data), key=lambda pair: pair[0].rank)
        wbuf, w_starts, w_stops, w_view = _stack(*zip(*writers))
        w_pos = np.cumsum(w_stops - w_starts) - (w_stops - w_starts)
        w_ids = np.array([region.rank for region, _ in writers], dtype=np.int64)
        held = np.searchsorted(
            w_view * top + w_starts, np.searchsorted(w_ids, w_rank) * top + lo[cut], side="right"
        ) - 1
        same = _mismatches(obs, pos[cut], wbuf, w_pos[held] + lo[cut] - w_starts[held], n[cut]) == 0
        ok[cut[same]] = True
    for c in np.flatnonzero(~ok).tolist():
        interval = Interval(int(lo[c]), int(hi[c]))
        covering = ranks[t_ptr[tile[c]]:t_ptr[tile[c] + 1]].tolist()
        kind = "torn-read" if covering else "stale-read"
        who = f"writers {covering}" if covering else "no covering writer"
        report.flag(
            kind,
            interval,
            f"rank {observations[o_view[piece[c]]].rank} read "
            f"[{interval.start},{interval.stop}) "
            f"({who}) and observed bytes matching no single "
            f"committed write",
        )
    return report


def rekey_regions(regions: Sequence[FileRegionSet], base: int) -> List[FileRegionSet]:
    """Rebase region ranks into a global keyspace: rank ``r`` becomes
    ``base + r``.

    Coupled pipeline groups and multi-tenant jobs each number their ranks
    from zero; before their views meet in one cross-group verification the
    ranks must be disjoint, using the same per-group base their I/O carried
    as provenance (the ``provenance_base`` Info hint /
    ``FSClient.provenance_base``).
    """
    return [FileRegionSet(base + region.rank, region.segments) for region in regions]


@dataclass(frozen=True)
class StreamTrace:
    """One cross-group data stream: concurrent writers plus the readers
    racing them on a single file.

    All ranks — in ``write_regions``, ``committed`` and the observations'
    ``rank`` fields — must already live in one *global* keyspace (see
    :func:`rekey_regions`): a producer group and a consumer group each
    number their ranks from zero, so their traces must be rebased with the
    same ``provenance_base`` their file clients carried before they can
    meet in one trace.
    """

    #: Which stream this trace belongs to (e.g. ``"step3:/ckpt.s3.dat"``);
    #: prefixed to every violation so a multi-stream report stays readable.
    stream_id: str
    #: The concurrent writers' (untrimmed) globally-rekeyed file views.
    write_regions: Sequence[FileRegionSet]
    #: ``writer_data[i]`` is the stream ``write_regions[i]`` wrote.
    writer_data: Sequence[bytes]
    #: What the racing readers returned.
    observations: Sequence[ReadObservation]
    #: Global writer ids whose writes completed before the reads began
    #: (stale-read detection); ``None`` treats every write as in flight.
    committed: Optional[Collection[int]] = None
    #: Pre-write file snapshot (defaults to zeros, a fresh file).
    baseline: Optional[bytes] = None


def check_stream_atomicity(streams: Sequence[StreamTrace]) -> AtomicityReport:
    """Verify read atomicity across cross-group / cross-job streams.

    Each :class:`StreamTrace` is an independent serialisability question —
    one file (or one per-step checkpoint) with its own writer set, reader
    set and commit front — so each goes through
    :func:`check_read_atomicity` on its own; the verdicts are merged into
    one report whose violations carry the originating stream's id.  This is
    the entry point the coupled-pipeline runner and the multi-tenant
    scheduler share: both reduce "did any consumer ever see a torn or stale
    byte?" to a list of globally-rekeyed stream traces.
    """
    merged = AtomicityReport(ok=True)
    for stream in streams:
        report = check_read_atomicity(
            stream.observations,
            stream.write_regions,
            stream.writer_data,
            baseline=stream.baseline,
            committed=stream.committed,
        )
        merged.overlap_regions_checked += report.overlap_regions_checked
        merged.overlapped_bytes += report.overlapped_bytes
        for v in report.violations:
            merged.flag(v.kind, v.interval, f"[stream {stream.stream_id}] {v.detail}")
    return merged


def check_coverage(store: ByteStore, regions: Sequence[FileRegionSet]) -> AtomicityReport:
    """Verify that every byte covered by some view was written by a covering rank.

    This catches the failure mode where a coordination strategy drops data —
    e.g. a rank-ordering implementation that trims too much and leaves holes.
    """
    report = AtomicityReport(ok=True)
    starts, stops, owner = _flatten(regions)
    if not len(starts):
        return report
    query, writer, nbytes = _run_writers(store, starts, stops)
    unwritten = stops - starts
    np.subtract.at(unwritten, query, nbytes)
    # The ranks whose view touches each interval: the CSR entries of the
    # elementary runs the interval spans.
    bounds, _, ptr, ranks = coverage_runs(regions)
    first = ptr[np.searchsorted(bounds, starts)]
    spanned = ptr[np.searchsorted(bounds, stops)] - first
    base, span = _id_span(ranks, writer)
    pairs = np.unique(query * span + (writer - base))
    touching = np.repeat(np.arange(len(starts)), spanned) * span + (
        ranks[_ranges(first, spanned)] - base
    )
    pair_iv, pair_writer = np.divmod(pairs[~np.isin(pairs, touching)], span)
    pair_writer += base
    n_foreign = np.bincount(pair_iv, minlength=len(starts))
    for i in np.flatnonzero((unwritten > 0) | (n_foreign > 0)).tolist():
        iv = Interval(int(starts[i]), int(stops[i]))
        if unwritten[i]:
            report.flag(
                "unwritten",
                iv,
                f"{unwritten[i]} byte(s) of [{iv.start},{iv.stop}) covered by rank "
                f"{owner[i]}'s view were never written",
            )
        else:
            report.flag(
                "foreign-writer",
                iv,
                f"bytes of [{iv.start},{iv.stop}) were written by rank(s) "
                f"{pair_writer[pair_iv == i].tolist()} whose views do not cover them",
            )
    return report
