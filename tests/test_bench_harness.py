"""Tests for the registry-driven benchmark harness: pattern selection,
machine capability filtering, what both directions share, and the CI smoke
target."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    run_column_wise_experiment,
    run_experiment,
    run_figure8_grid,
    run_grid,
    run_read_experiment,
    run_read_sweep,
    strategies_for_machine,
)
from repro.bench.machines import CPLANT, IBM_SP, ORIGIN2000
from repro.bench.smoke import main as smoke_main, run_smoke
from repro.core.registry import default_registry
from repro.patterns.partition import (
    PATTERN_NAMES,
    process_grid,
    views_for_pattern,
)


class TestPatternSelection:
    def test_process_grid_near_square(self):
        assert process_grid(4) == (2, 2)
        assert process_grid(8) == (2, 4)
        assert process_grid(16) == (4, 4)
        assert process_grid(7) == (1, 7)

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_views_cover_p_ranks(self, pattern):
        views = views_for_pattern(pattern, M=16, N=64, P=4, R=2)
        assert len(views) == 4
        assert all(views)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            views_for_pattern("diagonal", M=16, N=64, P=4)

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    @pytest.mark.parametrize("strategy", ["rank-ordering", "two-phase"])
    def test_experiment_sweeps_patterns(self, pattern, strategy):
        record = run_column_wise_experiment(
            ORIGIN2000, M=16, N=256, nprocs=4, strategy=strategy,
            overlap_columns=2, pattern=pattern,
        )
        assert record.pattern == pattern
        assert record.atomic_ok
        assert record.bytes_written > 0


@pytest.mark.parametrize("mode", ["write", "read"])
class TestEitherDirection:
    """What a write point and a read point share: one body measures both."""

    def test_entry_names_are_the_two_modes_of_one_body(self, mode):
        point, grid = {
            "write": (run_column_wise_experiment, run_figure8_grid),
            "read": (run_read_experiment, run_read_sweep),
        }[mode]
        assert (point.func, point.args) == (run_experiment, (mode,))
        assert (grid.func, grid.args) == (run_grid, (mode,))

    def test_record_fields(self, mode):
        record = run_experiment(
            mode, "Origin 2000", 16, 256, 4, "two-phase", overlap_columns=2
        )
        assert (record.machine, record.file_system) == ("Origin 2000", "XFS")
        assert (record.M, record.N, record.nprocs) == (16, 256, 4)
        assert record.array_label == "16x256"
        assert (record.mode, record.pattern) == (mode, "column-wise")
        assert record.strategy == "two-phase" and record.selected_strategy is None
        assert record.atomic_ok and record.phases == 2
        # Overlapped columns are requested once per rank but aggregation
        # moves each file byte once.
        assert record.overlap_bytes > 0
        assert record.bytes_requested > record.bytes_written == 16 * 256
        assert record.makespan_seconds > 0
        assert "wall_seconds" not in record.extra

    def test_lock_wait_read_out(self, mode):
        locking = run_experiment(mode, ORIGIN2000, 16, 256, 4, "locking", overlap_columns=2)
        # Exclusive write locks over overlapping extents conflict; the
        # shared-mode read locks never do.
        assert (locking.lock_waits > 0) == (mode == "write")
        lockless = run_experiment(mode, ORIGIN2000, 16, 256, 4, "two-phase", overlap_columns=2)
        assert lockless.lock_waits == 0
        assert run_experiment(mode, CPLANT, 16, 256, 4, "two-phase").lock_waits == 0

    def test_gpfs_lock_waits_are_counted(self, mode):
        """The token protocol counts waits like the central one: GPFS
        ``locking`` writes over overlapping views park, its reads do not."""
        locking = run_experiment(mode, IBM_SP, 16, 256, 4, "locking", overlap_columns=2)
        assert (locking.lock_waits > 0) == (mode == "write")

    def test_auto_records_its_delegate_and_hints(self, mode):
        record = run_experiment(mode, ORIGIN2000, 16, 256, 4, "auto", overlap_columns=2)
        assert record.strategy == "auto"
        assert record.selected_strategy in default_registry.names()
        assert record.extra["cb_nodes"] >= 1 and record.extra["cb_buffer_size"] > 0
        assert ("read_ahead" in record.extra) == (mode == "read")

    def test_unknown_executor_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown executor 'threads'"):
            run_experiment(mode, ORIGIN2000, 16, 256, 4, "two-phase", executor="threads")

    def test_default_strategies_come_from_registry(self, mode):
        table = run_grid(
            mode,
            machines=[ORIGIN2000],
            array_labels=["32MB"],
            process_counts=[4],
            row_scale=256,
            verify=True,
        )
        expected = (
            default_registry.atomic_names()
            if mode == "write"
            else default_registry.read_capable_names()
        )
        assert {r.strategy for r in table} == set(expected)
        assert all(r.atomic_ok for r in table)
        assert all(r.mode == mode for r in table)

    def test_lockless_machine_skips_locking_only(self, mode):
        table = run_grid(
            mode, machines=["Cplant"], array_labels=["32MB"], process_counts=[4],
            row_scale=256,
        )
        measured = {r.strategy for r in table}
        assert "locking" not in measured
        assert "two-phase" in measured
        # The non-atomic baseline needs no locks, so the read sweep keeps it.
        assert ("none" in measured) == (mode == "read")


class TestRegistryDrivenGrid:
    def test_two_phase_in_grid_passes_atomicity(self):
        table = run_figure8_grid(
            machines=[ORIGIN2000],
            array_labels=["32MB"],
            process_counts=[4],
            strategies=["two-phase"],
            row_scale=256,
            verify=True,
        )
        assert len(table) == 1
        record = table.records[0]
        assert record.strategy == "two-phase"
        assert record.atomic_ok
        assert record.phases == 2

    def test_capability_filter_drops_lock_strategies(self):
        names = list(default_registry.atomic_names())
        kept = strategies_for_machine(CPLANT, names)
        assert "locking" not in kept
        assert set(kept) == set(names) - {"locking"}
        assert strategies_for_machine(ORIGIN2000, names) == names


class TestSmokeTarget:
    def test_run_smoke_covers_every_atomic_strategy(self):
        table = run_smoke()
        assert {r.strategy for r in table} == set(default_registry.atomic_names())
        assert all(r.atomic_ok for r in table)

    def test_main_exit_code_ok(self, capsys):
        assert smoke_main([]) == 0
        out = capsys.readouterr().out
        assert "two-phase" in out
        assert "smoke ok" in out
