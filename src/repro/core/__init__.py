"""The paper's primary contribution: MPI atomicity strategies.

Interval algebra, file-view region sets, overlap analysis, greedy graph
colouring, process-rank ordering, the three atomicity strategies and the
concurrent-write executor.
"""

from .intervals import Interval, IntervalSet, merge_interval_sets
from .regions import FileRegionSet, build_region_sets
from .overlap import (
    OverlapMatrix,
    build_overlap_matrix,
    overlapped_bytes_total,
    pairwise_overlap_regions,
)
from .coloring import ColoringResult, chromatic_lower_bound, color_groups, greedy_coloring, validate_coloring
from .rank_ordering import (
    HIGHER_RANK_WINS,
    LOWER_RANK_WINS,
    RankOrderingResult,
    resolve_by_rank,
)
from .pipeline import IOPlan, LockDirective, PhasePlan, TransferStep
from .registry import StrategyRegistry, default_registry, register_strategy
from .aggregation import (
    AggregatedRun,
    choose_aggregators,
    merge_pieces,
    partition_domain,
)
from .strategies import (
    AtomicityStrategy,
    GraphColoringStrategy,
    IOOutcome,
    LockingStrategy,
    NoAtomicityStrategy,
    RankOrderingStrategy,
    TwoPhaseStrategy,
)
from .executor import (
    AtomicWriteExecutor,
    CollectiveReadExecutor,
    ConcurrentReadResult,
    ConcurrentWriteResult,
    default_data_factory,
)
from .analysis import ColumnWiseCase, StrategyEstimate, analyze_regions, estimate_column_wise

__all__ = [
    "Interval",
    "IntervalSet",
    "merge_interval_sets",
    "FileRegionSet",
    "build_region_sets",
    "OverlapMatrix",
    "build_overlap_matrix",
    "pairwise_overlap_regions",
    "overlapped_bytes_total",
    "ColoringResult",
    "greedy_coloring",
    "validate_coloring",
    "color_groups",
    "chromatic_lower_bound",
    "RankOrderingResult",
    "resolve_by_rank",
    "HIGHER_RANK_WINS",
    "LOWER_RANK_WINS",
    "AtomicityStrategy",
    "NoAtomicityStrategy",
    "LockingStrategy",
    "GraphColoringStrategy",
    "RankOrderingStrategy",
    "TwoPhaseStrategy",
    "IOOutcome",
    "LockDirective",
    "TransferStep",
    "PhasePlan",
    "IOPlan",
    "StrategyRegistry",
    "default_registry",
    "register_strategy",
    "AggregatedRun",
    "choose_aggregators",
    "partition_domain",
    "merge_pieces",
    "AtomicWriteExecutor",
    "ConcurrentWriteResult",
    "CollectiveReadExecutor",
    "ConcurrentReadResult",
    "default_data_factory",
    "ColumnWiseCase",
    "StrategyEstimate",
    "estimate_column_wise",
    "analyze_regions",
]
