"""repro — Scalable Implementations of MPI Atomicity for Concurrent Overlapping I/O.

A complete Python reproduction of Liao et al., ICPP 2003: the three MPI
atomicity strategies (byte-range file locking, graph-coloring handshaking and
process-rank ordering) plus every substrate they need — an MPI runtime
simulator, a derived-datatype engine, an MPI-IO layer, and a parallel file
system with caching, striping, central and distributed byte-range locking and
a virtual-time performance model.

Typical use::

    from repro import (
        ParallelFileSystem, xfs_config, AtomicWriteExecutor,
        RankOrderingStrategy, column_wise_views, check_mpi_atomicity,
    )

    fs = ParallelFileSystem(xfs_config())
    views = column_wise_views(M=64, N=1024, P=4, R=4)
    executor = AtomicWriteExecutor(fs, RankOrderingStrategy(), "ckpt.dat")
    result = executor.run(4, lambda rank, P: views[rank])
    report = check_mpi_atomicity(result.file.store, result.regions)
    assert report.ok
"""

from .core import (
    AtomicityStrategy,
    AtomicWriteExecutor,
    CollectiveReadExecutor,
    ColumnWiseCase,
    ConcurrentReadResult,
    ConcurrentWriteResult,
    FileRegionSet,
    GraphColoringStrategy,
    Interval,
    IntervalSet,
    IOOutcome,
    LockingStrategy,
    NoAtomicityStrategy,
    OverlapMatrix,
    RankOrderingStrategy,
    TwoPhaseStrategy,
    build_overlap_matrix,
    default_registry,
    estimate_column_wise,
    greedy_coloring,
    register_strategy,
    resolve_by_rank,
)
from .fs import (
    FSClient,
    FSConfig,
    LockProtocol,
    ParallelFileSystem,
    enfs_config,
    gpfs_config,
    preset,
    xfs_config,
)
from .io import (
    Info,
    MODE_CREATE,
    MODE_RDWR,
    MODE_WRONLY,
    MPIFile,
)
from .mpi import Communicator, Group, Intercomm, Testall, Waitall, Waitany, run_spmd
from .pipelines import (
    CoupledPipeline,
    PipelineResult,
    PipelineSpec,
    StageSpec,
    expected_consumer_streams,
)
from .patterns import (
    CheckpointRestartWorkload,
    ColumnWiseWorkload,
    GhostDecomposition,
    block_block_views,
    column_wise_views,
    row_wise_views,
)
from .verify import (
    ReadObservation,
    check_coverage,
    check_mpi_atomicity,
    check_read_atomicity,
)
from .bench import (
    run_column_wise_experiment,
    run_figure8_grid,
    run_read_experiment,
    run_read_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AtomicityStrategy",
    "NoAtomicityStrategy",
    "LockingStrategy",
    "GraphColoringStrategy",
    "RankOrderingStrategy",
    "TwoPhaseStrategy",
    "default_registry",
    "register_strategy",
    "AtomicWriteExecutor",
    "ConcurrentWriteResult",
    "CollectiveReadExecutor",
    "ConcurrentReadResult",
    "IOOutcome",
    "FileRegionSet",
    "Interval",
    "IntervalSet",
    "OverlapMatrix",
    "build_overlap_matrix",
    "greedy_coloring",
    "resolve_by_rank",
    "ColumnWiseCase",
    "estimate_column_wise",
    # fs
    "ParallelFileSystem",
    "FSConfig",
    "LockProtocol",
    "FSClient",
    "enfs_config",
    "xfs_config",
    "gpfs_config",
    "preset",
    # io
    "MPIFile",
    "Info",
    "MODE_CREATE",
    "MODE_RDWR",
    "MODE_WRONLY",
    # mpi
    "Communicator",
    "Group",
    "Intercomm",
    "Waitall",
    "Testall",
    "Waitany",
    "run_spmd",
    # pipelines
    "StageSpec",
    "PipelineSpec",
    "CoupledPipeline",
    "PipelineResult",
    "expected_consumer_streams",
    # patterns
    "column_wise_views",
    "row_wise_views",
    "block_block_views",
    "GhostDecomposition",
    "ColumnWiseWorkload",
    "CheckpointRestartWorkload",
    # verify
    "check_mpi_atomicity",
    "check_coverage",
    "check_read_atomicity",
    "ReadObservation",
    # bench
    "run_column_wise_experiment",
    "run_figure8_grid",
    "run_read_experiment",
    "run_read_sweep",
]
