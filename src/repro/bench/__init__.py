"""Benchmark harness: machine presets (Table 1), the Figure 8 sweep, reports."""

from .machines import ALL_MACHINES, CPLANT, IBM_SP, MachineSpec, ORIGIN2000, machine_by_name, table1_rows
from .results import ExperimentRecord, ResultTable, figure8_series, format_table
from .harness import (
    DEFAULT_ROW_SCALE,
    run_column_wise_experiment,
    run_figure8_grid,
    run_read_experiment,
    run_read_sweep,
    strategies_for_machine,
)
from .figures import (
    figure1_ghost_overlap_counts,
    figure3_partition_summary,
    figure6_coloring_demo,
    figure7_rank_ordering_views,
    figure8_report,
)

__all__ = [
    "MachineSpec",
    "CPLANT",
    "ORIGIN2000",
    "IBM_SP",
    "ALL_MACHINES",
    "machine_by_name",
    "table1_rows",
    "ExperimentRecord",
    "ResultTable",
    "format_table",
    "figure8_series",
    "run_column_wise_experiment",
    "run_figure8_grid",
    "run_read_experiment",
    "run_read_sweep",
    "strategies_for_machine",
    "DEFAULT_ROW_SCALE",
    "figure1_ghost_overlap_counts",
    "figure3_partition_summary",
    "figure6_coloring_demo",
    "figure7_rank_ordering_views",
    "figure8_report",
]
