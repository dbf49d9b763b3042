"""The four benchmark workloads: seeded inputs, one iteration, its checks.

Every workload is a fixed point list; ``--seed`` draws each group's ghost
width R from {2, 4, 6, 8}, jitters its row length N by a multiple of 8
within 1/64 and seeds the ``poisson`` job arrivals.  The program under test only ever sees the
generated views and specs.  All strategies of one (machine, P) group share
one draw, so the paper's orderings can be asserted inside the group.

The driver calls public names only (package ``__all__``), stage by stage,
and wraps each call in a span (see ``spans.py``).  One iteration is one
full pass over the point list *including verification*; it returns an
:class:`Iteration` carrying the checks, the virtual-time rows, the
per-layer counts read from public result objects, and a fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import (
    AtomicWriteExecutor,
    CollectiveReadExecutor,
    build_region_sets,
    default_registry,
)
from repro.core.bulk import BulkReadExecutor, BulkWriteExecutor
from repro.fs import ParallelFileSystem, enfs_config, gpfs_config, xfs_config
from repro.jobs import JobSpec, MultiTenantScheduler, make_arrivals, summarize_makespans
from repro.mpi import CommCostModel
from repro.patterns import rank_pattern_bytes
from repro.patterns.partition import views_for_pattern
from repro.pipelines import (
    CoupledPipeline,
    PipelineSpec,
    StageSpec,
    expected_consumer_streams,
)
from repro.verify import ReadObservation, check_mpi_atomicity, check_read_atomicity

from spans import Recorder

__all__ = ["WORKLOADS", "Group", "Iteration", "Workload", "build_workload"]

#: Table 1 of the paper: machine name -> file-system personality.
MACHINES: Dict[str, Callable] = {
    "Cplant": enfs_config,
    "Origin 2000": xfs_config,
    "IBM SP": gpfs_config,
}
COMM_COST = CommCostModel(latency=30e-6, byte_cost=1e-8)
GHOST_WIDTHS = (2, 4, 6, 8)
#: The paper's own three strategies, whose orderings ``fig8_grid`` asserts.
PAPER_HANDSHAKING = ("graph-coloring", "rank-ordering")


@dataclass(frozen=True)
class Group:
    """Points that share one draw of (N, R): one machine, P and direction."""

    gid: str
    machine: str
    P: int
    M: int
    N: int
    R: int
    direction: str  # "write" | "read"
    strategies: Tuple[str, ...]
    substrate: str = "engine"  # "engine" | "bulk"
    options: Tuple[Tuple[str, int], ...] = ()  # strategy constructor kwargs

    def make_fs(self) -> ParallelFileSystem:
        return ParallelFileSystem(MACHINES[self.machine]())


@dataclass
class Iteration:
    """Everything one pass over a workload's point list produced."""

    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Bandwidth rows: (direction, bytes requested, virtual seconds).
    rows: List[Tuple[str, int, float]] = field(default_factory=list)
    #: Virtual makespan per point id (a scheduler or pipeline run is one point).
    makespans: Dict[str, float] = field(default_factory=dict)
    #: Additive per-layer counts read from public result objects.
    counts: Dict[str, float] = field(default_factory=dict)
    job_makespans: List[float] = field(default_factory=list)
    auto_ratios: List[float] = field(default_factory=list)
    overlap_wins: List[float] = field(default_factory=list)
    _digest: object = field(default_factory=hashlib.sha256)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def digest(self, *parts) -> None:
        for part in parts:
            self._digest.update(part if isinstance(part, (bytes, bytearray)) else repr(part).encode())

    def digest_store(self, store) -> None:
        """File bytes and per-byte provenance of one file."""
        self.digest(store.snapshot(), store.writers(0, store.size).tobytes())

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()

    # -- derived virtual metrics ------------------------------------------------

    def bandwidth_mbs(self, direction: str) -> float:
        """Geometric mean over the direction's rows of bytes / virtual second."""
        logs = [
            math.log(nbytes / seconds / 1e6)
            for d, nbytes, seconds in self.rows
            if d == direction and seconds > 0 and nbytes > 0
        ]
        return math.exp(sum(logs) / len(logs)) if logs else 0.0

    def derived_counts(self) -> Dict[str, float]:
        """The additive counts plus the ratios defined over them."""
        c = dict(self.counts)
        hits, misses = c.get("fs.cache_hits", 0.0), c.get("fs.cache_misses", 0.0)
        c["fs.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        capacity = c.pop("_fs.server_capacity_virt_s", 0.0)
        c["fs.server_util"] = c.get("fs.server_busy_virt_s", 0.0) / capacity if capacity else 0.0
        if self.job_makespans:
            summary = summarize_makespans(self.job_makespans)
            c["jobs.fairness_jain"] = summary["fairness"]
            c["jobs.virt_p50_makespan_s"] = summary["p50_makespan"]
            c["jobs.virt_p99_makespan_s"] = summary["p99_makespan"]
        c["core.autotune.best_static_ratio"] = _geomean(self.auto_ratios)
        c["pipelines.overlap_win"] = _geomean(self.overlap_wins)
        return c


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


# -- shared accounting --------------------------------------------------------------


def _count_fs(it: Iteration, fs: ParallelFileSystem, makespan: float) -> None:
    """Server and lock-service counters of one finished point."""
    it.add("fs.server_busy_virt_s", fs.servers.aggregate_busy_time())
    it.add("_fs.server_capacity_virt_s", len(fs.servers) * makespan)
    for name in fs.list_files():
        lm = fs.lookup(name).lock_manager
        if lm is None:
            continue
        it.add("fs.lock_waits", getattr(lm, "wait_count", 0))
        it.add(
            "fs.lock_grants",
            getattr(lm, "shared_grant_count", 0)
            + getattr(lm, "exclusive_grant_count", 0)
            + getattr(lm, "local_grant_count", 0)
            + getattr(lm, "token_acquisition_count", 0),
        )
        it.add("fs.token_acquisitions", getattr(lm, "token_acquisition_count", 0))
        it.add("fs.token_revocations", getattr(lm, "revocation_count", 0))


def _count_outcomes(it: Iteration, outcomes: Sequence) -> None:
    """Per-rank Write-/ReadOutcome fields the per-layer counts are built from."""
    it.add("core.strategies.phases_sum", max(o.phases for o in outcomes))
    for o in outcomes:
        it.add("core.strategies.bytes_surrendered", getattr(o, "bytes_surrendered", 0))
        it.add("core.aggregation.bytes_shuffled", getattr(o, "bytes_shuffled", 0))
        it.add("fs.cache_hits", getattr(o, "cache_hits", 0))
        it.add("fs.cache_misses", getattr(o, "cache_misses", 0))
        it.add("fs.cache_invalidations", getattr(o, "invalidations", 0))
        it.add("fs.lock_wait_virt_s", getattr(o, "lock_wait_seconds", 0.0))


def _record(it: Iteration, pid: str, strategy: str, makespan: float) -> None:
    it.makespans[pid] = makespan
    it.add(f"core.strategies.{strategy}.virt_makespan_s", makespan)


def _account(it: Iteration, group: "Group", pid: str, strategy: str, result, fs) -> None:
    """Rows and counts of one finished executor point (write or read)."""
    it.rows.append((group.direction, result.total_bytes_requested, result.makespan))
    _record(it, pid, strategy, result.makespan)
    _count_outcomes(it, result.outcomes)
    _count_fs(it, fs, result.makespan)
    if group.substrate == "bulk":
        it.add("_core.bulk.ranks", group.P)


# -- executor points (fig8_grid, scale_engine, scale_bulk) -----------------------------


@dataclass
class Seeded:
    """A committed checkpoint a read group reads back."""

    fs: ParallelFileSystem
    regions: list
    data: List[bytes]


def _seed(group: Group, regions) -> Seeded:
    """Commit the group's array with an atomic two-phase write (not measured
    as a point): engine ``two-phase`` or, on the bulk substrate, the
    byte-identical ``two-phase-hier`` the bulk replay scales with."""
    fs = group.make_fs()
    if group.substrate == "engine":
        executor = AtomicWriteExecutor(
            fs, default_registry.create("two-phase"), group.gid, comm_cost=COMM_COST
        )
    else:
        executor = BulkWriteExecutor(
            fs,
            default_registry.create("two-phase-hier", **dict(group.options)),
            group.gid,
            comm_cost=COMM_COST,
        )
    data = [rank_pattern_bytes(r, regions[r].total_bytes) for r in range(group.P)]
    executor.run(group.P, lambda rank, _P: regions[rank].segments, lambda rank, _n: data[rank])
    return Seeded(fs, regions, data)


def _write_point(group: Group, strategy: str, regions, rec: Recorder, it: Iteration) -> None:
    pid = f"{group.gid}/{strategy}"
    engine = group.substrate == "engine"
    with rec.span("point", pid):
        fs = group.make_fs()
        executor = (AtomicWriteExecutor if engine else BulkWriteExecutor)(
            fs,
            default_registry.create(strategy, **dict(group.options)),
            pid,
            comm_cost=COMM_COST,
        )
        with rec.span("core.executor.write" if engine else "core.bulk.write"):
            result = executor.run(
                group.P, lambda rank, _P: regions[rank].segments, rank_pattern_bytes
            )
        with rec.span("verify.write"):
            ok = check_mpi_atomicity(result.file.store, result.regions).ok
        it.check(f"{pid}: MPI write atomicity", ok)
        _account(it, group, pid, strategy, result, fs)
        it.digest(pid, result.makespan, result.total_bytes_requested, result.total_bytes_written)
        it.digest_store(result.file.store)


def _read_point(group: Group, strategy: str, seeded: Seeded, rec: Recorder, it: Iteration) -> None:
    pid = f"{group.gid}/{strategy}"
    engine = group.substrate == "engine"
    with rec.span("point", pid):
        fs = seeded.fs
        fs.reset_accounting()
        reader = (CollectiveReadExecutor if engine else BulkReadExecutor)(
            fs,
            default_registry.create(strategy, **dict(group.options)),
            group.gid,
            comm_cost=COMM_COST,
        )
        with rec.span("core.executor.read" if engine else "core.bulk.read"):
            result = reader.run(group.P, lambda rank, _P: seeded.regions[rank].segments)
        with rec.span("verify.read"):
            observations = [
                ReadObservation(rank, result.regions[rank], result.data[rank])
                for rank in range(group.P)
            ]
            atomic = check_read_atomicity(observations, seeded.regions, seeded.data).ok
            # The checkpoint committed before the read began, so exactly one
            # state is admissible: the file's bytes.
            store = result.file.store
            committed = all(
                result.data[rank]
                == b"".join(
                    store.read(off, length)
                    for _, off, length in result.regions[rank].buffer_map()
                )
                for rank in range(group.P)
            )
        it.check(f"{pid}: read atomicity", atomic)
        it.check(f"{pid}: delivered bytes equal the committed file", committed)
        _account(it, group, pid, strategy, result, fs)
        it.digest(pid, result.makespan, result.total_bytes_requested, result.total_bytes_read)
        it.digest(*result.data)


def _guarded(it: Iteration, pid: str, fn: Callable, *args) -> None:
    """An exception in a point is a failed check, not a crash of the run."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - boundary: the run must go on
        it.check(f"{pid}: raised {type(exc).__name__}: {exc}", False)


def _group_summary(group: Group, it: Iteration, assert_orderings: bool) -> None:
    """Cross-point results of one group: the paper's Figure 8 orderings
    (write groups of ``fig8_grid``) and the tuner's distance from the best
    static strategy (any group that ran ``auto``)."""
    span = {s: it.makespans.get(f"{group.gid}/{s}") for s in group.strategies}
    if any(v is None for v in span.values()):
        return  # a point failed; already counted
    if assert_orderings and group.direction == "write":
        if "locking" in span:
            it.check(
                f"{group.gid}: locking is the slowest of the paper's strategies",
                span["locking"] > max(span[s] for s in PAPER_HANDSHAKING),
            )
        it.check(
            f"{group.gid}: rank-ordering bandwidth >= 0.8 x graph-coloring",
            span["graph-coloring"] / span["rank-ordering"] >= 0.8,
        )
    static = [v for s, v in span.items() if s not in ("auto", "none")]
    if "auto" in span and static:
        it.auto_ratios.append(span["auto"] / min(static))


# -- coupled_tenancy points ------------------------------------------------------------


@dataclass(frozen=True)
class TenancyPoint:
    pid: str
    specs: Tuple[JobSpec, ...]
    arrivals: Tuple[float, ...]
    filename: str
    #: Pre-run file contents for the read verifier (mixed write/read runs).
    baseline: Optional[bytes] = None


def _tenancy_point(point: TenancyPoint, rec: Recorder, it: Iteration) -> None:
    with rec.span("point", point.pid):
        fs = ParallelFileSystem(gpfs_config())
        scheduler = MultiTenantScheduler(fs, timeout=120.0)
        with rec.span("jobs.run"):
            result = scheduler.run(list(point.specs), arrivals=list(point.arrivals))
        with rec.span("verify.write"):
            ok = result.verify_write_atomicity(point.filename).ok
        it.check(f"{point.pid}: cross-job write atomicity", ok)
        if point.baseline is not None:
            with rec.span("verify.read"):
                ok = result.verify_read_atomicity(point.filename, baseline=point.baseline).ok
            it.check(f"{point.pid}: cross-job read atomicity", ok)
        it.makespans[point.pid] = result.window
        it.digest(point.pid, result.window)
        for job in result.jobs:
            it.rows.append((job.spec.mode, job.bytes_requested, job.makespan))
            it.job_makespans.append(job.makespan)
            it.add(f"core.strategies.{job.spec.strategy}.virt_makespan_s", job.makespan)
            _count_outcomes(it, job.outcomes)
            it.digest(job.spec.job_id, job.makespan, job.bytes_requested)
            if job.spec.mode == "read":
                it.digest(*job.data)
        _count_fs(it, fs, result.window)
        it.digest_store(fs.lookup(point.filename).store)


@dataclass(frozen=True)
class PipelinePoint:
    pid: str
    producers: int
    consumers: int
    depth: int
    M: int
    N: int
    steps: int
    strategy: str = "two-phase"
    compute_seconds: float = 0.002

    def spec(self, coordination: str) -> PipelineSpec:
        return PipelineSpec(
            stages=(
                StageSpec("producer", self.producers, compute_seconds=self.compute_seconds),
                StageSpec("consumer", self.consumers, compute_seconds=self.compute_seconds),
            ),
            M=self.M,
            N=self.N,
            steps=self.steps,
            strategy=self.strategy,
            coordination=coordination,
            overlap_depth=self.depth,
            filename=f"/{self.pid}/{coordination}",
        )


def _pipeline_point(point: PipelinePoint, rec: Recorder, it: Iteration) -> None:
    spans: Dict[str, float] = {}
    for coordination in ("barrier", "overlapped"):
        pid = f"{point.pid}/{coordination}"
        with rec.span("point", pid):
            spec = point.spec(coordination)
            fs = ParallelFileSystem(gpfs_config())
            with rec.span("pipelines.run"):
                result = CoupledPipeline(spec, timeout=120.0).run(fs)
            with rec.span("verify.stream"):
                atomic = result.verify().ok
                exact = all(
                    result.delivered.get((step, c)) == expected
                    for step in range(spec.steps)
                    for c, expected in enumerate(expected_consumer_streams(spec, step))
                )
            it.check(f"{pid}: cross-group stream atomicity", atomic)
            it.check(f"{pid}: consumer streams equal the expected bytes", exact)
            spans[coordination] = result.makespan
            it.rows.append(("write", spec.M * spec.N * spec.steps, result.makespan))
            it.rows.append(("read", result.bytes_streamed, result.makespan))
            _record(it, pid, spec.strategy, result.makespan)
            it.add("pipelines.virt_bytes_streamed", result.bytes_streamed)
            _count_fs(it, fs, result.makespan)
            it.digest(pid, result.makespan, result.bytes_streamed)
            it.digest(*(result.delivered[key] for key in sorted(result.delivered)))
            for name in fs.list_files():
                it.digest_store(fs.lookup(name).store)
    if len(spans) == 2:
        it.overlap_wins.append(spans["barrier"] / spans["overlapped"])
        it.check(
            f"{point.pid}: overlapped beats the write-barrier-read baseline",
            spans["overlapped"] < spans["barrier"],
        )


# -- the workload object ---------------------------------------------------------------


@dataclass
class Workload:
    name: str
    groups: List[Group] = field(default_factory=list)
    tenancy: List[TenancyPoint] = field(default_factory=list)
    pipelines: List[PipelinePoint] = field(default_factory=list)
    #: (M, N, P, R) the per-layer probes run on: the workload's own shape at
    #: its largest per-communicator P an engine probe affords.
    probe_shape: Tuple[int, int, int, int] = (16, 8192, 8, 4)
    assert_orderings: bool = False
    _seeded: Dict[str, Seeded] = field(default_factory=dict)

    def _reseeds(self, group: Group) -> bool:
        """``auto`` keeps a per-file tuning record, so a second collective on
        the same file is a plan-cache hit with a different virtual result;
        a read group that includes it is re-seeded every iteration.  Every
        other strategy repeats bit-for-bit on a reused file."""
        return "auto" in group.strategies

    def setup(self) -> None:
        """Commit the checkpoint files the reusable read groups read back."""
        for group in self.groups:
            if group.direction == "read" and not self._reseeds(group):
                regions = build_region_sets(
                    views_for_pattern("column-wise", group.M, group.N, group.P, group.R)
                )
                self._seeded[group.gid] = _seed(group, regions)

    def iterate(self, rec: Recorder) -> Iteration:
        """One full pass over the point list, verification included."""
        it = Iteration()
        for group in self.groups:
            _guarded(it, group.gid, self._run_group, group, rec, it)
        for point in self.tenancy:
            _guarded(it, point.pid, _tenancy_point, point, rec, it)
        for point in self.pipelines:
            _guarded(it, point.pid, _pipeline_point, point, rec, it)
        return it

    def _run_group(self, group: Group, rec: Recorder, it: Iteration) -> None:
        with rec.span("patterns.views", group.gid):
            views = views_for_pattern("column-wise", group.M, group.N, group.P, group.R)
        with rec.span("core.regions.build", group.gid):
            regions = build_region_sets(views)
        if group.direction == "write":
            for strategy in group.strategies:
                _guarded(it, f"{group.gid}/{strategy}", _write_point, group, strategy, regions, rec, it)
        else:
            if self._reseeds(group):
                with rec.span("bench.seed", group.gid):
                    seeded = _seed(group, regions)
            else:
                seeded = self._seeded[group.gid]
            for strategy in group.strategies:
                _guarded(it, f"{group.gid}/{strategy}", _read_point, group, strategy, seeded, rec, it)
        _group_summary(group, it, self.assert_orderings)


# -- seeded construction ---------------------------------------------------------------


def _jitter(rng: random.Random, base: int, lo: int = -1, hi: int = 1) -> int:
    """``base`` moved by a multiple of 8 within [lo, hi] x 1/64 of itself:
    enough to break the power-of-two alignment of rows against pages and
    stripes, small enough that the virtual bandwidths (latency-bound at these
    sizes, so proportional to N) stay within a few percent across seeds."""
    steps = base // 64 // 8
    return base + 8 * rng.randint(lo * steps, hi * steps)


def _fig8_grid(rng: random.Random) -> Workload:
    """Figure 8's "32MB" panel at 1/256 rows (16 x 8192): column-wise writes
    on every machine x P in {4, 16} x every atomic strategy the machine
    supports (34 points), plus the read-back twin on IBM SP at P = 16 under
    every read-capable strategy (7 points)."""
    groups = []
    for machine, config in MACHINES.items():
        names = tuple(default_registry.names_for_machine(config().supports_locking()))
        for P in (4, 16):
            groups.append(
                Group(f"fig8/{machine}/p{P}/write", machine, P, 16, _jitter(rng, 8192),
                      rng.choice(GHOST_WIDTHS), "write", names)
            )
    groups.append(
        Group("fig8/IBM SP/p16/read", "IBM SP", 16, 16, _jitter(rng, 8192),
              rng.choice(GHOST_WIDTHS), "read", tuple(default_registry.read_capable_names()))
    )
    return Workload("fig8_grid", groups=groups, probe_shape=(16, groups[-1].N, 16, groups[-1].R),
                    assert_orderings=True)


def _scale_engine(rng: random.Random) -> Workload:
    """Section 3.4's shape (16 x 16384, column-wise, GPFS) at P = 128 on the
    event engine: four write strategies and the two-phase read-back."""
    N, R = _jitter(rng, 16384), rng.choice(GHOST_WIDTHS)
    groups = [
        Group("scale_engine/p128/write", "IBM SP", 128, 16, N, R, "write",
              ("locking", "rank-ordering", "two-phase", "two-phase-hier")),
        Group("scale_engine/p128/read", "IBM SP", 128, 16, N, R, "read", ("two-phase",)),
    ]
    return Workload("scale_engine", groups=groups, probe_shape=(16, N, 128, R))


def _scale_bulk(rng: random.Random) -> Workload:
    """The extended sweep's shape (2 x 2P, R = 2, ``two-phase-hier``, 256
    ranks per aggregator, 8 ranks per node) on the bulk-synchronous replay:
    writes at P in {1024, 4096}, read-back at P = 1024."""
    def group(P: int, direction: str) -> Group:
        # N / P must stay >= R, so the jitter only widens the rows.
        return Group(
            f"scale_bulk/p{P}/{direction}", "IBM SP", P, 2, _jitter(rng, 2 * P, lo=0), 2,
            direction, ("two-phase-hier",), substrate="bulk",
            options=(("num_aggregators", max(1, P // 256)), ("ranks_per_node", 8)),
        )

    groups = [group(1024, "write"), group(4096, "write"), group(1024, "read")]
    return Workload("scale_bulk", groups=groups, probe_shape=(2, 512, 256, 2))


def _coupled_tenancy(rng: random.Random, seed: int) -> Workload:
    """Eight 16-rank ``two-phase`` jobs racing on one shared file (poisson
    arrivals), two write jobs vs two read jobs x 16 ranks under ``locking``,
    and an 8:8 producer->consumer pipeline (4 steps, depth 2) under both the
    ``barrier`` and the ``overlapped`` coordination.  All on GPFS, 32 x 2048."""
    M = 32

    def jobs(prefix: str, count: int, mode: str, strategy: str, N: int, R: int, filename: str):
        return [
            JobSpec(job_id=f"{prefix}{i}", nprocs=16, M=M, N=N, filename=filename,
                    mode=mode, strategy=strategy, overlap_columns=R)
            for i in range(count)
        ]

    N1, R1 = _jitter(rng, 2048), rng.choice(GHOST_WIDTHS)
    racing = jobs("job", 8, "write", "two-phase", N1, R1, "/tenancy/racing.dat")
    N2, R2 = _jitter(rng, 2048), rng.choice(GHOST_WIDTHS)
    mixed = jobs("writer", 2, "write", "locking", N2, R2, "/tenancy/mixed.dat") + jobs(
        "reader", 2, "read", "locking", N2, R2, "/tenancy/mixed.dat"
    )
    tenancy = [
        TenancyPoint("tenancy/8x16/two-phase", tuple(racing),
                     tuple(make_arrivals("poisson", len(racing), seed=seed)),
                     "/tenancy/racing.dat"),
        # The seed moves the gaps, not the order of the classes: the write
        # jobs arrive first, so the read jobs always race writes in flight.
        # (Which class wins the first lock halves or doubles both classes'
        # makespans; left to the seed, no bound could hold across seeds.)
        TenancyPoint("tenancy/2w2rx16/locking", tuple(mixed),
                     tuple(sorted(make_arrivals("poisson", len(mixed), seed=seed + 1))),
                     "/tenancy/mixed.dat", baseline=bytes(M * N2)),
    ]
    pipelines = [PipelinePoint("pipeline/p8c8d2", 8, 8, 2, M, _jitter(rng, 2048), steps=4)]
    return Workload("coupled_tenancy", tenancy=tenancy, pipelines=pipelines,
                    probe_shape=(M, N1, 16, R1))


WORKLOADS = ("fig8_grid", "scale_engine", "scale_bulk", "coupled_tenancy")


def build_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate ``name``'s inputs from ``seed`` (same seed, same inputs).

    ``smoke`` keeps only the first point of the workload, for the tier-1
    smoke test: every code path of the driver, none of the cost.
    """
    rng = random.Random(f"{seed}:{name}")
    if name == "fig8_grid":
        workload = _fig8_grid(rng)
    elif name == "scale_engine":
        workload = _scale_engine(rng)
    elif name == "scale_bulk":
        workload = _scale_bulk(rng)
    elif name == "coupled_tenancy":
        workload = _coupled_tenancy(rng, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    if smoke:
        if workload.groups:
            first = workload.groups[0]
            workload.groups = [replace(first, strategies=first.strategies[:1])]
        workload.tenancy = workload.tenancy[:1]
        workload.pipelines = []
        workload.assert_orderings = False
    return workload
