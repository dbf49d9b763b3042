"""The public surface, pinned name by name.

``repro.__all__`` and ``repro.core.__all__`` are compared against literal
lists, one name a line, so adding or removing a public name is a reviewed
one-line diff here (ROADMAP: each list should only ever get shorter).
"""

from __future__ import annotations

import repro
import repro.core

REPRO_ALL = [
    "AtomicWriteExecutor",
    "AtomicityStrategy",
    "CheckpointRestartWorkload",
    "CollectiveReadExecutor",
    "ColumnWiseCase",
    "ColumnWiseWorkload",
    "Communicator",
    "ConcurrentReadResult",
    "ConcurrentWriteResult",
    "CoupledPipeline",
    "FSClient",
    "FSConfig",
    "FileRegionSet",
    "GhostDecomposition",
    "GraphColoringStrategy",
    "Group",
    "IOOutcome",
    "Info",
    "Intercomm",
    "Interval",
    "IntervalSet",
    "LockProtocol",
    "LockingStrategy",
    "MODE_CREATE",
    "MODE_RDWR",
    "MODE_WRONLY",
    "MPIFile",
    "NoAtomicityStrategy",
    "OverlapMatrix",
    "ParallelFileSystem",
    "PipelineResult",
    "PipelineSpec",
    "RankOrderingStrategy",
    "ReadObservation",
    "StageSpec",
    "Testall",
    "TwoPhaseStrategy",
    "Waitall",
    "Waitany",
    "__version__",
    "block_block_views",
    "build_overlap_matrix",
    "check_coverage",
    "check_mpi_atomicity",
    "check_read_atomicity",
    "column_wise_views",
    "default_registry",
    "enfs_config",
    "estimate_column_wise",
    "expected_consumer_streams",
    "gpfs_config",
    "greedy_coloring",
    "preset",
    "register_strategy",
    "resolve_by_rank",
    "row_wise_views",
    "run_column_wise_experiment",
    "run_figure8_grid",
    "run_read_experiment",
    "run_read_sweep",
    "run_spmd",
    "xfs_config",
]

REPRO_CORE_ALL = [
    "AggregatedRun",
    "AtomicWriteExecutor",
    "AtomicityStrategy",
    "CollectiveReadExecutor",
    "ColoringResult",
    "ColumnWiseCase",
    "ConcurrentReadResult",
    "ConcurrentWriteResult",
    "FileRegionSet",
    "GraphColoringStrategy",
    "HIGHER_RANK_WINS",
    "IOOutcome",
    "IOPlan",
    "Interval",
    "IntervalSet",
    "LOWER_RANK_WINS",
    "LockDirective",
    "LockingStrategy",
    "NoAtomicityStrategy",
    "OverlapMatrix",
    "PhasePlan",
    "RankOrderingResult",
    "RankOrderingStrategy",
    "StrategyEstimate",
    "StrategyRegistry",
    "TransferStep",
    "TwoPhaseStrategy",
    "analyze_regions",
    "build_overlap_matrix",
    "build_region_sets",
    "choose_aggregators",
    "chromatic_lower_bound",
    "color_groups",
    "default_data_factory",
    "default_registry",
    "estimate_column_wise",
    "greedy_coloring",
    "merge_interval_sets",
    "merge_pieces",
    "overlapped_bytes_total",
    "pairwise_overlap_regions",
    "partition_domain",
    "register_strategy",
    "resolve_by_rank",
    "validate_coloring",
]


def test_repro_all_is_pinned():
    assert sorted(repro.__all__) == REPRO_ALL


def test_repro_core_all_is_pinned():
    assert sorted(repro.core.__all__) == REPRO_CORE_ALL


def test_every_public_name_resolves():
    for module in (repro, repro.core):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
