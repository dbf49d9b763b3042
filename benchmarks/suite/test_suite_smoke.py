"""Smoke test of the repo benchmark (tier-1, seconds, no wall-clock assertion).

Checks that ``BENCHMARK.json`` is well-formed, that ``run.py --smoke
--trace`` (first point of each workload, one iteration) emits exactly the
metric names it declares with no failed check, that traced spans nest, and
that ``compare.py`` passes a document against itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_well_formed(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and 0 < len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_run_emits_exactly_the_declared_names(spec, smoke_document):
    assert smoke_document["validation"] == "unvalidated"
    assert set(smoke_document["workloads"]) == {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, record in smoke_document["workloads"].items():
        assert set(record["end_to_end"]) == end_to_end, name
        assert set(record["per_layer"]) == per_layer, name
        assert record["failed"] == 0 and record["attempted"] > 0, record["failures"]
        # (A smoke run keeps one point, so a workload's read side may be absent.)
        assert all(record["end_to_end"][m]["value"] > 0
                   for m in ("setup_s", "host_wall_s", "host_cpu_s", "peak_rss_mb",
                             "virt_makespan_s")), name
    for key in ("nproc", "loadavg_start", "loadavg_end", "python", "numpy", "git_commit",
                "iterations", "bench.calib_s"):
        assert key in smoke_document["environment"]


def test_traced_spans_nest(smoke_document):
    """Every child span lies inside its parent's interval on the one track."""
    for record in smoke_document["workloads"].values():
        with open(ROOT / record["trace_file"], encoding="utf-8") as fh:
            events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
        assert events[0]["name"] == "iteration"
        root_end = events[0]["ts"] + events[0]["dur"]
        points = [e for e in events if e["name"] == "point"]
        for point in points:
            children = [
                e for e in events
                if e is not point and e["args"]["point"] == point["args"]["point"]
                and e["name"] != "iteration"
            ]
            assert sum(c["dur"] for c in children) <= point["dur"] * (1 + 1e-9)
            assert point["ts"] + point["dur"] <= root_end * (1 + 1e-9)


def test_compare_passes_a_document_against_itself(spec, smoke_document, capsys):
    assert compare.compare(smoke_document, smoke_document, spec) == []
    assert "PASS" in capsys.readouterr().out
