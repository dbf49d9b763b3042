"""Unit tests for the perf-regression gate's comparison logic.

These pin the two gate correctness fixes: duplicate ``(P, strategy)``
entries must be a hard error rather than silently shadowing each other,
and a baseline entry with no measured counterpart must FAIL the gate
rather than letting a renamed/dropped workload slip through.  The wall
clock gates (relative factor and absolute per-op budget) are covered
alongside.
"""

from __future__ import annotations

import math

import pytest

import repro.bench.perfgate as perfgate
from repro.bench.perfgate import (
    ADAPTIVE_PREFIX,
    DEFAULT_WALL_BUDGET_PER_OP,
    DEFAULT_WALL_FACTOR,
    _index,
    _wall_per_op,
    check_adaptive,
    check_wall,
    compare,
)


def entry(P, strategy, makespan, bytes_=1024, wall_seconds=None, ops=None):
    out = {"P": P, "strategy": strategy, "makespan": makespan, "bytes": bytes_}
    if wall_seconds is not None:
        out["wall_seconds"] = wall_seconds
    if ops is not None:
        out["ops"] = ops
    return out


def baseline_of(**experiments):
    return {"tolerance": 0.15, "experiments": dict(experiments)}


class TestIndex:
    def test_indexes_by_p_and_strategy(self):
        entries = [entry(4, "two-phase", 1.0), entry(4, "locking", 2.0)]
        assert set(_index(entries)) == {(4, "two-phase"), (4, "locking")}

    def test_duplicate_key_raises(self):
        # Regression: duplicates used to silently overwrite, so whichever
        # entry the dict kept could mask a regression in the other.
        entries = [entry(4, "two-phase", 1.0), entry(4, "two-phase", 9.0)]
        with pytest.raises(ValueError, match="duplicate perf entry"):
            _index(entries)

    def test_same_p_or_same_strategy_alone_is_fine(self):
        entries = [
            entry(4, "two-phase", 1.0),
            entry(16, "two-phase", 1.0),
            entry(16, "locking", 1.0),
        ]
        assert len(_index(entries)) == 3


class TestCompare:
    def test_identical_passes(self):
        entries = [entry(4, "two-phase", 1.0)]
        assert compare({"e": entries}, baseline_of(e=entries)) == []

    def test_regression_over_tolerance_fails(self):
        measured = {"e": [entry(4, "two-phase", 1.2)]}
        problems = compare(measured, baseline_of(e=[entry(4, "two-phase", 1.0)]))
        assert len(problems) == 1
        assert "exceeds baseline" in problems[0]

    def test_growth_within_tolerance_passes(self):
        measured = {"e": [entry(4, "two-phase", 1.1)]}
        assert compare(measured, baseline_of(e=[entry(4, "two-phase", 1.0)])) == []

    def test_missing_baseline_entry_fails(self):
        problems = compare({"e": [entry(4, "two-phase", 1.0)]}, baseline_of(e=[]))
        assert len(problems) == 1
        assert "no baseline" in problems[0]

    def test_baseline_entry_without_measured_counterpart_fails(self):
        # Regression: the gate used to only walk measured entries, so
        # dropping or renaming a gated workload silently passed.
        baseline = baseline_of(
            e=[entry(4, "two-phase", 1.0), entry(16, "two-phase", 2.0)]
        )
        problems = compare({"e": [entry(4, "two-phase", 1.0)]}, baseline)
        assert len(problems) == 1
        assert "no measured counterpart" in problems[0]
        assert "P=16" in problems[0]

    def test_whole_baseline_experiment_dropped_fails(self):
        baseline = baseline_of(gone=[entry(4, "two-phase", 1.0)])
        problems = compare({}, baseline)
        assert len(problems) == 1
        assert "gone" in problems[0]
        assert "no measured counterpart" in problems[0]

    def test_wall_clock_blowup_fails(self):
        base = [entry(4, "two-phase", 1.0, wall_seconds=0.004, ops=4)]
        slow = [
            entry(
                4,
                "two-phase",
                1.0,
                wall_seconds=0.004 * (DEFAULT_WALL_FACTOR + 1),
                ops=4,
            )
        ]
        problems = compare({"e": slow}, baseline_of(e=base))
        assert len(problems) == 1
        assert "wall clock" in problems[0]

    def test_wall_clock_within_factor_passes(self):
        base = [entry(4, "two-phase", 1.0, wall_seconds=0.004, ops=4)]
        ok = [entry(4, "two-phase", 1.0, wall_seconds=0.008, ops=4)]
        assert compare({"e": ok}, baseline_of(e=base)) == []

    def test_entries_without_wall_fields_skip_wall_gate(self):
        base = [entry(4, "two-phase", 1.0, wall_seconds=0.004, ops=4)]
        bare = [entry(4, "two-phase", 1.0)]
        assert compare({"e": bare}, baseline_of(e=base)) == []


class TestCheckWall:
    def test_within_budget_passes(self):
        ops = 1000
        entries = [
            entry(
                1000,
                "two-phase-hier",
                1.0,
                wall_seconds=0.5 * DEFAULT_WALL_BUDGET_PER_OP * ops,
                ops=ops,
            )
        ]
        assert check_wall(entries) == []

    def test_over_budget_fails_with_label(self):
        entries = [entry(8, "two-phase", 1.0, wall_seconds=1.0, ops=8)]
        problems = check_wall(entries, budget_per_op=1e-3, experiment="sweep")
        assert len(problems) == 1
        assert problems[0].startswith("sweep: ")
        assert "exceeds" in problems[0]

    def test_entries_without_wall_fields_are_skipped(self):
        assert check_wall([entry(8, "two-phase", 1.0)]) == []

    def test_wall_per_op(self):
        assert _wall_per_op(entry(8, "s", 1.0, wall_seconds=0.016, ops=8)) == 0.002
        assert _wall_per_op(entry(8, "s", 1.0)) is None
        assert _wall_per_op(entry(8, "s", 1.0, wall_seconds=1.0, ops=0)) is None


EXP = ADAPTIVE_PREFIX + "testfs-column-wise"


def adaptive_point(auto, static, P=4):
    return [entry(P, "auto", auto), entry(P, "two-phase", static)]


class TestCheckAdaptive:
    """The absolute auto-vs-static gate (no baseline involved)."""

    def test_auto_beating_the_static_passes(self):
        assert check_adaptive({EXP: adaptive_point(auto=0.9, static=1.0)}) == []

    def test_auto_worse_than_factor_fails(self):
        problems = check_adaptive({EXP: adaptive_point(auto=1.2, static=1.0)})
        assert any("worse than the best static" in p for p in problems)

    def test_auto_within_factor_but_never_winning_fails(self):
        # Passes every per-point bound yet never strictly wins: the tuner is
        # a pass-through, which the gate must refuse to certify.
        problems = check_adaptive({EXP: adaptive_point(auto=1.0, static=1.0)})
        assert len(problems) == 1
        assert "never strictly beat" in problems[0]

    def test_best_static_is_the_reference(self):
        # auto loses to the best static by >10% even though it beats another.
        entries = adaptive_point(auto=1.2, static=1.0) + [entry(4, "locking", 2.0)]
        problems = check_adaptive({EXP: entries})
        assert any("two-phase" in p for p in problems)

    def test_missing_auto_measurement_fails(self):
        problems = check_adaptive({EXP: [entry(4, "two-phase", 1.0)]})
        assert any("lacks an auto or a static" in p for p in problems)

    def test_no_grid_points_fails(self):
        # Experiments outside the adaptive prefix are ignored entirely, so
        # nothing was measured and the gate says so.
        problems = check_adaptive({"perfgate/unrelated": adaptive_point(0.9, 1.0)})
        assert problems == [
            f"adaptive gate: no {ADAPTIVE_PREFIX}* grid points measured"
        ]

    def test_one_win_covers_many_points(self):
        measured = {
            EXP: adaptive_point(auto=0.9, static=1.0, P=4)
            + adaptive_point(auto=1.0, static=1.0, P=16)
        }
        assert check_adaptive(measured) == []


class TestUpdateBaselineRefusal:
    """``--update-baseline`` must not enshrine a failing working tree."""

    def _patch(self, monkeypatch, tmp_path, adaptive, plan_problems):
        baseline = tmp_path / "perf_baseline.json"
        monkeypatch.setattr(perfgate, "BASELINE_PATH", baseline)
        monkeypatch.setattr(perfgate, "record_results", lambda *a, **k: None)
        monkeypatch.setattr(
            perfgate, "measure", lambda: {"e": [entry(4, "two-phase", 1.0)]}
        )
        monkeypatch.setattr(perfgate, "measure_adaptive", lambda: dict(adaptive))
        monkeypatch.setattr(
            perfgate, "measure_plan_cache", lambda: ({}, list(plan_problems))
        )
        monkeypatch.setattr(
            perfgate, "measure_multitenant", lambda: ({}, [])
        )
        # Every measure main() calls is stubbed: these are unit tests of the
        # baseline-update policy and must not run a real sweep.
        read_exp = perfgate.ADAPTIVE_READ_PREFIX + "testfs-column-wise"
        monkeypatch.setattr(
            perfgate, "measure_adaptive_read",
            lambda: {read_exp: adaptive_point(0.9, 1.0)},
        )
        monkeypatch.setattr(perfgate, "measure_pipeline", lambda: ({}, []))
        return baseline

    def test_passing_tree_updates_then_gates_green(self, monkeypatch, tmp_path):
        baseline = self._patch(
            monkeypatch, tmp_path, {EXP: adaptive_point(0.9, 1.0)}, []
        )
        assert perfgate.main(["--update-baseline"]) == 0
        assert baseline.exists()
        assert perfgate.main([]) == 0

    def test_adaptive_failure_refuses_to_write(self, monkeypatch, tmp_path):
        baseline = self._patch(
            monkeypatch, tmp_path, {EXP: adaptive_point(1.5, 1.0)}, []
        )
        assert perfgate.main(["--update-baseline"]) == 1
        assert not baseline.exists()

    def test_plan_cache_failure_refuses_to_write(self, monkeypatch, tmp_path):
        baseline = self._patch(
            monkeypatch,
            tmp_path,
            {EXP: adaptive_point(0.9, 1.0)},
            ["plan cache: synthetic failure"],
        )
        assert perfgate.main(["--update-baseline"]) == 1
        assert not baseline.exists()

    def test_absolute_problems_also_fail_the_normal_gate(self, monkeypatch, tmp_path):
        baseline = self._patch(
            monkeypatch, tmp_path, {EXP: adaptive_point(0.9, 1.0)}, []
        )
        assert perfgate.main(["--update-baseline"]) == 0
        monkeypatch.setattr(
            perfgate, "measure_plan_cache", lambda: ({}, ["plan cache: regressed"])
        )
        assert perfgate.main([]) == 1
        assert baseline.exists()  # the failure never rewrites the reference

    def test_multitenant_failure_refuses_to_write(self, monkeypatch, tmp_path):
        baseline = self._patch(
            monkeypatch, tmp_path, {EXP: adaptive_point(0.9, 1.0)}, []
        )
        monkeypatch.setattr(
            perfgate,
            "measure_multitenant",
            lambda: ({}, ["multitenant: fairness below floor"]),
        )
        assert perfgate.main(["--update-baseline"]) == 1
        assert not baseline.exists()


class TestMultitenantGate:
    """The multi-tenant smoke point's absolute gates (fairness, atomicity,
    wall budget) run without a baseline, like the plan-cache checks."""

    def test_smoke_point_passes_the_default_gates(self):
        # No host-wall assertion in tier-1: the absolute budget stays in the
        # CI perfgate step (and `test_wall_budget_trips` covers its logic).
        experiments, problems = perfgate.measure_multitenant(budget_per_op=math.inf)
        assert problems == []
        entries = experiments["perfgate/multitenant"]
        # Exactly one summary entry — per-job rows would collide in the
        # gate's (P, strategy) index — carrying the cross-job fields.
        assert len(entries) == 1
        summary = entries[0]
        assert "job_id" not in summary
        assert 0.0 < summary["fairness"] <= 1.0
        assert summary["offered_load"] > 0
        assert summary["ops"] > 0 and summary["wall_seconds"] > 0
        # The summary indexes cleanly alongside the other gated entries.
        _index(entries)

    def test_fairness_floor_trips(self):
        # An impossible floor (> 1, the index's maximum) must always trip,
        # whatever the measured value.
        _, problems = perfgate.measure_multitenant(fairness_floor=1.5)
        assert any("fairness" in p for p in problems)

    def test_wall_budget_trips(self):
        _, problems = perfgate.measure_multitenant(budget_per_op=1e-12)
        assert any("wall clock" in p for p in problems)
