"""Unit tests for the perf gate: comparison logic, the checks, and ``main``.

These pin the gate correctness fixes — duplicate ``(P, strategy)`` entries
must be a hard error rather than silently shadowing each other, a baseline
entry with no measured counterpart must FAIL the gate rather than letting a
renamed/dropped workload slip through, every failure is printed once — and
drive ``main`` through injected fake gates, so the policy tests run no sweep.
"""

from __future__ import annotations

import json

import pytest

import repro.bench.perfgate as perfgate
from repro.bench.adaptive import ADAPTIVE_PREFIX, check_adaptive, check_plan_cache
from repro.bench.multitenant import check_point as check_multitenant_point
from repro.bench.perfgate import GATES, Gate, _index, compare


def entry(P, strategy, makespan, bytes_=1024, **fields):
    return {"P": P, "strategy": strategy, "makespan": makespan, "bytes": bytes_, **fields}


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


def fake_gate(measured, problems=()):
    """A gate that measures nothing: fixed entries, fixed problems."""
    return Gate("fake", lambda: dict(measured), lambda got: list(problems))


PASSING = fake_gate({"e": [entry(4, "two-phase", 1.0, wall_seconds=0.5)]})


class TestMain:
    """``main`` over injected gates, in a scratch working directory (the
    baseline path is relative to it)."""

    @pytest.fixture(autouse=True)
    def scratch_cwd(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        self.baseline = tmp_path / perfgate.BASELINE_PATH

    def test_passing_tree_updates_then_gates_green(self):
        assert perfgate.main(["--update-baseline"], gates=[PASSING]) == 0
        assert self.baseline.exists()
        assert perfgate.main([], gates=[PASSING]) == 0

    @pytest.mark.parametrize(
        "failing",
        [
            # The real adaptive check over a grid where auto loses by 50%.
            Gate("adaptive", lambda: {EXP: adaptive_point(1.5, 1.0)}, check_adaptive),
            fake_gate({"f": [entry(4, "auto", 1.0)]}, ["plan cache: synthetic failure"]),
            fake_gate({"f": [entry(64, "two-phase", 1.0)]}, ["multitenant: fairness below floor"]),
        ],
        ids=["adaptive", "plan-cache", "multitenant"],
    )
    def test_failing_check_refuses_to_write(self, failing):
        # ``--update-baseline`` must not enshrine a failing working tree,
        # whichever gate's check it fails.
        assert perfgate.main(["--update-baseline"], gates=[PASSING, failing]) == 1
        assert not self.baseline.exists()

    def test_check_problems_also_fail_the_normal_gate(self):
        assert perfgate.main(["--update-baseline"], gates=[PASSING]) == 0
        before = self.baseline.read_bytes()
        regressed = fake_gate(PASSING.measure(), ["plan cache: regressed"])
        assert perfgate.main([], gates=[regressed]) == 1
        # The failure never rewrites the reference.
        assert self.baseline.read_bytes() == before

    def test_each_failure_is_printed_once(self, capsys):
        # Regression: gate mode printed every check failure twice — once on
        # its own and once more with the baseline comparison's problems.
        assert perfgate.main(["--update-baseline"], gates=[PASSING]) == 0
        failing = fake_gate(PASSING.measure(), ["synthetic failure"])
        capsys.readouterr()
        assert perfgate.main([], gates=[failing]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("FAIL: synthetic failure") == 1

    def test_missing_baseline_fails(self, capsys):
        assert perfgate.main([], gates=[PASSING]) == 1
        assert "no baseline at" in capsys.readouterr().out

    def test_baseline_holds_deterministic_schema_keys_only(self):
        evidence = fake_gate(
            {"e": [entry(4, "auto", 1.0, wall_seconds=0.5, selected="two-phase",
                         atomic_ok=True, plan_hits=5.0)]}
        )
        assert perfgate.main(["--update-baseline"], gates=[evidence]) == 0
        (written,) = json.loads(self.baseline.read_text())["experiments"]["e"]
        assert written == entry(4, "auto", 1.0, selected="two-phase")

    def test_baseline_is_reproducible(self):
        # Two refreshes over a real gate write byte-identical files: the
        # host-dependent ``wall_seconds`` never reaches the baseline.
        real = [g for g in GATES if g.name == "perfgate/two-phase-write"]
        assert perfgate.main(["--update-baseline"], gates=real) == 0
        first = self.baseline.read_bytes()
        assert perfgate.main(["--update-baseline"], gates=real) == 0
        assert self.baseline.read_bytes() == first
        assert b"wall_seconds" not in first


class TestMultitenantGate:
    """The multi-tenant smoke point's gate: cross-job atomicity and the
    fairness floor, checked without a baseline."""

    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        (gate,) = [g for g in GATES if g.name == "perfgate/multitenant"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
            return gate, gate.measure()

    def test_smoke_point_passes_the_default_gates(self, smoke):
        gate, measured = smoke
        assert gate.check(measured) == []
        entries = measured["perfgate/multitenant"]
        # Exactly one summary entry — per-job rows would collide in the
        # gate's (P, strategy) index — carrying the cross-job fields.
        assert len(entries) == 1
        summary = entries[0]
        assert "job_id" not in summary
        assert 0.0 < summary["fairness"] <= 1.0
        assert summary["offered_load"] > 0
        assert summary["atomic_ok"] is True
        # The summary indexes cleanly alongside the other gated entries.
        _index(entries)

    def test_fairness_floor_trips(self, smoke):
        # An impossible floor (> 1, the index's maximum) must always trip,
        # whatever the measured value.
        _, measured = smoke
        problems = check_multitenant_point(
            "perfgate/multitenant", measured["perfgate/multitenant"], fairness_floor=1.5
        )
        assert any("fairness" in p for p in problems)

    def test_atomicity_violation_trips(self):
        torn = [entry(64, "two-phase", 1.0, fairness=1.0, atomic_ok=False)]
        problems = check_multitenant_point("perfgate/multitenant", torn)
        assert any("atomicity" in p for p in problems)


class TestPlanCacheCheck:
    """``check_plan_cache`` over fabricated evidence (the real pair runs in
    the CI perf gate step)."""

    def pair(self, **on_overrides):
        common = dict(atomic_ok=True, same_outcome=True, steps=6.0)
        on = entry(16, "auto", 1.0, plan_hits=5.0, first_step_seconds=0.3,
                   warm_step_seconds=0.1, resolve_warm_cpu_per_op=1e-6, **common)
        off = entry(16, "auto-nocache", 1.2, plan_hits=0.0,
                    resolve_cold_cpu_per_op=6e-6, **common)
        on.update(on_overrides)
        return [on, off]

    def test_healthy_pair_passes(self):
        assert check_plan_cache("perfgate/plan-cache", self.pair()) == []

    @pytest.mark.parametrize(
        "override, needle",
        [
            ({"same_outcome": False}, "bytes/provenance differ"),
            ({"atomic_ok": False}, "broke MPI atomicity"),
            ({"plan_hits": 3.0}, "expected 5 hits"),
            ({"makespan": 1.5}, "exceeds the uncached"),
            ({"warm_step_seconds": 0.4}, "not cheaper"),
            ({"resolve_warm_cpu_per_op": 5e-6}, "warm resolution"),
        ],
    )
    def test_each_condition_trips(self, override, needle):
        problems = check_plan_cache("perfgate/plan-cache", self.pair(**override))
        assert len(problems) == 1 and needle in problems[0]
        assert problems[0].startswith("perfgate/plan-cache: ")
