"""Schema tests for the JSON results log.

Pins the backward compatibility contract of the multi-tenant extension:
records written before the job layer existed (no ``job_id`` /
``offered_load`` / ``fairness``) must still parse, the new fields must
round-trip through ``record_results`` with coerced types, and absent
optional fields must stay absent rather than appearing as nulls.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.jsonlog import (
    SCHEMA_VERSION,
    coerce_entry,
    load_results,
    record_results,
    report,
    report_json,
    results_dir,
)
from repro.bench.results import ExperimentRecord

MINIMAL = {"P": 4, "strategy": "two-phase", "makespan": 0.5, "bytes": 1024}


class TestCoerce:
    def test_minimal_pre_job_layer_record_parses(self):
        out = coerce_entry(dict(MINIMAL))
        assert out == {
            "P": 4,
            "strategy": "two-phase",
            "makespan": 0.5,
            "bytes": 1024,
        }

    def test_absent_optional_fields_stay_absent(self):
        out = coerce_entry(dict(MINIMAL))
        for key in ("job_id", "offered_load", "fairness", "wall_seconds"):
            assert key not in out

    def test_multitenant_fields_coerce_types(self):
        entry = dict(
            MINIMAL, job_id=7, offered_load="73216", fairness="0.95"
        )
        out = coerce_entry(entry)
        assert out["job_id"] == "7"
        assert out["offered_load"] == 73216.0
        assert out["fairness"] == 0.95

    def test_summary_row_without_job_id(self):
        entry = dict(MINIMAL, offered_load=1e6, fairness=1.0, wall_seconds=0.25)
        out = coerce_entry(entry)
        assert "job_id" not in out
        assert out["fairness"] == 1.0
        assert out["wall_seconds"] == 0.25

    def test_keys_outside_the_schema_are_dropped(self):
        # In-memory entries may carry perf-gate evidence; none of it is
        # written.
        out = coerce_entry(dict(MINIMAL, atomic_ok=True, plan_hits=5.0))
        assert set(out) == set(MINIMAL)

    def test_required_fields_still_required(self):
        with pytest.raises(KeyError):
            coerce_entry({"strategy": "two-phase", "makespan": 0.5, "bytes": 1})

    def test_pipeline_fields_coerce_types(self):
        entry = dict(MINIMAL, stage="producer", stream_id=7)
        out = coerce_entry(entry)
        assert out["stage"] == "producer"
        assert out["stream_id"] == "7"

    def test_pre_pipeline_records_stay_free_of_pipeline_fields(self):
        # Back-compat: entries written before the pipeline subsystem existed
        # carry neither field, and coercion must not invent them.
        out = coerce_entry(dict(MINIMAL))
        assert "stage" not in out and "stream_id" not in out
        out = coerce_entry(dict(MINIMAL, stage=None, stream_id=None))
        assert "stage" not in out and "stream_id" not in out


class TestRoundTrip:
    def test_old_file_gains_new_experiment_without_breaking(self, tmp_path):
        # A latest.json written before the job layer existed...
        path = tmp_path / "latest.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "experiments": {"perfgate/two-phase-write": [dict(MINIMAL)]},
                }
            ),
            encoding="utf-8",
        )
        # ...accepts a multi-tenant experiment alongside the old one.
        record_results(
            "multitenant/gpfs/j4xp16",
            [
                dict(MINIMAL, job_id="job0", offered_load=73216.0),
                dict(MINIMAL, P=64, offered_load=73216.0, fairness=0.99),
            ],
            path=path,
        )
        doc = load_results(path)
        assert set(doc["experiments"]) == {
            "perfgate/two-phase-write",
            "multitenant/gpfs/j4xp16",
        }
        old = doc["experiments"]["perfgate/two-phase-write"][0]
        assert "job_id" not in old and "offered_load" not in old
        per_job, summary = doc["experiments"]["multitenant/gpfs/j4xp16"]
        assert per_job["job_id"] == "job0"
        assert summary["fairness"] == 0.99

    def test_recorded_multitenant_entries_survive_json_round_trip(self, tmp_path):
        path = tmp_path / "latest.json"
        entries = [dict(MINIMAL, job_id="a", offered_load=10.0, fairness=1.0)]
        record_results("multitenant/x", entries, path=path)
        loaded = load_results(path)["experiments"]["multitenant/x"]
        assert loaded == [coerce_entry(e) for e in entries]

    def test_pipeline_entries_round_trip_alongside_old_records(self, tmp_path):
        path = tmp_path / "latest.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "experiments": {"perfgate/two-phase-write": [dict(MINIMAL)]},
                }
            ),
            encoding="utf-8",
        )
        record_results(
            "pipeline/gpfs/p4c4d2",
            [
                dict(MINIMAL, strategy="two-phase+overlapped", wall_seconds=0.1),
                dict(MINIMAL, strategy="two-phase+overlapped", stage="consumer"),
                dict(MINIMAL, strategy="two-phase+overlapped",
                     stream_id="step0:/pipeline/ckpt.s0.dat"),
            ],
            path=path,
        )
        doc = load_results(path)
        old = doc["experiments"]["perfgate/two-phase-write"][0]
        assert "stage" not in old and "stream_id" not in old
        summary, per_stage, per_stream = doc["experiments"]["pipeline/gpfs/p4c4d2"]
        assert "stage" not in summary
        assert per_stage["stage"] == "consumer"
        assert per_stream["stream_id"] == "step0:/pipeline/ckpt.s0.dat"


class TestResultsDirectory:
    def test_text_and_json_reports_share_the_override(self, monkeypatch, tmp_path):
        # Regression: the text recorder wrote next to benchmarks/conftest.py
        # and ignored REPRO_RESULTS_DIR, so under the override the two
        # reports of one benchmark run landed in two directories.
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "out"))
        record = ExperimentRecord(
            machine="m", file_system="fs", array_label="a", M=1, N=1, nprocs=4,
            strategy="two-phase", bytes_requested=1024, bytes_written=1024,
            makespan_seconds=0.5, atomic_ok=True,
        )
        text_path = report("A table", "row 1")
        json_path = report_json("an-experiment", [record])
        assert text_path.parent == json_path.parent == results_dir() == tmp_path / "out"
        assert "===== A table =====" in text_path.read_text(encoding="utf-8")
        assert load_results(json_path)["experiments"]["an-experiment"] == [MINIMAL]

    def test_a_section_is_replaced_in_place(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        report("first", "old body")
        report("second", "kept")
        path = report("first", "new body")
        text = path.read_text(encoding="utf-8")
        assert "old body" not in text and "new body" in text and "kept" in text
        assert text.count("===== first =====") == 1
