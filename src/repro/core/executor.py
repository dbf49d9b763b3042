"""High-level drivers for concurrent overlapping reads and writes.

:class:`AtomicWriteExecutor` runs a complete concurrent-overlapping-write
experiment: it spins up ``nprocs`` SPMD ranks, gives each a file system
client whose virtual clock is the rank's MPI clock, lets every rank write its
(possibly overlapping) file view under a chosen atomicity strategy, and
returns the per-rank outcomes together with the resulting file object so the
result can be verified and timed.

:class:`CollectiveReadExecutor` is the same driver with the data flowing the
other way: every rank reads its (possibly overlapping) file view collectively
under a chosen strategy, and the result carries the per-rank
:class:`~repro.core.strategies.IOOutcome` records plus the delivered data
streams, ready for :func:`repro.verify.atomicity.check_read_atomicity`.

These are the entry points used by the examples, the integration tests and
the benchmark harness.  Both run :func:`rank_main` on every rank, the one
rank body that opens a rank's file-system client; the multi-tenant scheduler
and the repeated-collective benchmark run it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from ..mpi.cost import CommCostModel
from .pipeline import shared_regions
from .regions import FileRegionSet
from .strategies import AtomicityStrategy, IOOutcome

if TYPE_CHECKING:  # imported lazily to keep the package import graph acyclic
    from ..fs.client import ClientFileHandle
    from ..fs.filesystem import FileObject, ParallelFileSystem
    from ..mpi.comm import Communicator, SharedList
    from ..mpi.runtime import SPMDResult

__all__ = [
    "ConcurrentWriteResult",
    "AtomicWriteExecutor",
    "ConcurrentReadResult",
    "CollectiveReadExecutor",
]

#: A view factory maps (rank, nprocs) to the rank's flattened file view
#: segments, ``[(file_offset, length), ...]`` in data-stream order.
ViewFactory = Callable[[int, int], Sequence[Tuple[int, int]]]

#: A data factory maps (rank, nbytes) to the rank's contiguous data stream.
DataFactory = Callable[[int, int], bytes]

#: What one rank does with the open shared file: ``rank_io(comm, handle,
#: region)``; its return value is the rank's.
RankIO = Callable[["Communicator", "ClientFileHandle", FileRegionSet], Any]


def default_data_factory(rank: int, nbytes: int) -> bytes:
    """Fill the rank's stream with a repeated, rank-identifying byte.

    Byte value ``ord('A') + rank`` makes visual inspection of small files easy
    while the provenance tracking in the ByteStore covers the verification.
    """
    return bytes([ord("A") + (rank % 26)]) * nbytes


def rank_main(
    fs: ParallelFileSystem,
    filename: str,
    regions: Sequence[FileRegionSet],
    rank_io: RankIO,
    base: int = 0,
) -> Callable[[Communicator], Any]:
    """The body of every engine rank that does I/O on one shared file.

    The rank opens an :class:`~repro.fs.client.FSClient` on its own clock,
    with client id ``base + rank`` and ``provenance_base = base`` (a
    scheduler job's global rank offset; 0 for a single world), opens
    ``filename`` (which must already exist, so every rank opens the same
    file object), runs ``rank_io(comm, handle, regions[rank])`` and closes
    the handle, returning what ``rank_io`` returned.
    """
    from ..fs.client import FSClient

    def main(comm: Communicator) -> Any:
        client = FSClient(fs, client_id=base + comm.rank, clock=comm.clock, provenance_base=base)
        handle = client.open(filename, create=False)
        try:
            return rank_io(comm, handle, regions[comm.rank])
        finally:
            handle.close()

    return main


class _Executor:
    """What every executor — engine or bulk, write or read — is built from."""

    def __init__(
        self,
        fs: ParallelFileSystem,
        strategy: AtomicityStrategy,
        filename: str = "shared.dat",
        comm_cost: Optional[CommCostModel] = None,
    ) -> None:
        self.fs = fs
        self.strategy = strategy
        self.filename = filename
        self.comm_cost = comm_cost or CommCostModel(latency=20e-6, byte_cost=1e-8)
        # Context-aware strategies (the adaptive tuner) learn the machine
        # model and per-file tuning record from the file they will drive.
        strategy.bind_context(fs, filename)

    @staticmethod
    def _views(nprocs: int, view_factory: ViewFactory) -> SharedList:
        """Every rank's flattened view, as the regions the run will use — a
        shared region list, which the bulk driver's collective builds on."""
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        return shared_regions(view_factory(rank, nprocs) for rank in range(nprocs))

    def _spmd(self, regions: List[FileRegionSet], rank_io: RankIO) -> SPMDResult:
        """One engine rank per region, each running :func:`rank_main`."""
        from ..mpi.runtime import run_spmd

        fn = rank_main(self.fs, self.filename, regions, rank_io)
        return run_spmd(fn, len(regions), comm_cost=self.comm_cost)


@dataclass
class _ConcurrentResult:
    """What one concurrent overlapping operation produced, either direction."""

    filename: str
    fs: ParallelFileSystem
    file: FileObject
    outcomes: List[IOOutcome]
    spmd: SPMDResult
    regions: List[FileRegionSet] = field(default_factory=list)

    @property
    def nprocs(self) -> int:
        """Number of participating processes."""
        return len(self.outcomes)

    @property
    def makespan(self) -> float:
        """Virtual time at which the last rank finished (seconds)."""
        return self.spmd.makespan

    @property
    def total_bytes_requested(self) -> int:
        """Bytes the application asked to move (before rank-ordering trims)."""
        return sum(o.bytes_requested for o in self.outcomes)

    def bandwidth(self) -> float:
        """Effective I/O bandwidth in bytes/second of virtual time.

        Following the paper, the *requested* volume is divided by the time of
        the slowest process: surrendering overlapped bytes (rank ordering) or
        fetching an overlapped byte once (aggregated reads) is a win, not a
        penalty.
        """
        if self.makespan <= 0:
            return float("inf") if self.total_bytes_requested else 0.0
        return self.total_bytes_requested / self.makespan


@dataclass
class ConcurrentWriteResult(_ConcurrentResult):
    """Everything produced by one concurrent overlapping write."""

    @property
    def total_bytes_written(self) -> int:
        """Bytes actually transferred to the file system."""
        return sum(o.bytes_moved for o in self.outcomes)


class AtomicWriteExecutor(_Executor):
    """Runs concurrent overlapping writes under an atomicity strategy."""

    def run(
        self,
        nprocs: int,
        view_factory: ViewFactory,
        data_factory: DataFactory = default_data_factory,
    ) -> ConcurrentWriteResult:
        """Execute the concurrent write on ``nprocs`` ranks.

        Each rank obtains its view from ``view_factory(rank, nprocs)``, its
        payload from ``data_factory(rank, nbytes)``, opens the shared file
        and calls the strategy collectively.
        """
        regions = self._views(nprocs, view_factory)
        strategy = self.strategy
        # Pre-create so every rank opens the same FileObject.
        fobj = self.fs.create(self.filename)
        spmd = self._spmd(
            regions,
            lambda comm, handle, region: strategy.execute_write(
                comm, handle, region, data_factory(region.rank, region.total_bytes)
            ),
        )
        return ConcurrentWriteResult(
            filename=self.filename,
            fs=self.fs,
            file=fobj,
            outcomes=list(spmd.returns),
            spmd=spmd,
            regions=regions,
        )


@dataclass
class ConcurrentReadResult(_ConcurrentResult):
    """Everything produced by one collective overlapping read."""

    #: ``data[rank]`` is the contiguous stream delivered to the rank.
    data: List[bytes] = field(default_factory=list)

    @property
    def total_bytes_read(self) -> int:
        """Bytes actually fetched from the file system (smaller than the
        requested volume when an aggregation strategy de-duplicates
        overlapped bytes)."""
        return sum(o.bytes_moved for o in self.outcomes)


class CollectiveReadExecutor(_Executor):
    """Runs collective overlapping reads under an atomicity strategy.

    The file must already exist on the file system (a previous write, e.g. a
    checkpoint); each rank reads its view through the strategy's staged
    pipeline and the result carries the delivered streams for verification.
    """

    def run(self, nprocs: int, view_factory: ViewFactory) -> ConcurrentReadResult:
        """Execute the collective read on ``nprocs`` ranks."""
        regions = self._views(nprocs, view_factory)
        fobj = self.fs.lookup(self.filename)
        spmd = self._spmd(regions, self.strategy.execute_read)
        return ConcurrentReadResult(
            filename=self.filename,
            fs=self.fs,
            file=fobj,
            outcomes=[outcome for _, outcome in spmd.returns],
            spmd=spmd,
            regions=regions,
            data=[data for data, _ in spmd.returns],
        )
