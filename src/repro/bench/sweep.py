"""The one sweep runner: run points, take host time, record, return entries.

Every benchmark in this package is a *grid declaration* (an iterable of
points) plus a ``run_point`` that measures one point and returns its jsonlog
entries (:mod:`repro.bench.jsonlog`).  :func:`sweep` is the loop they all
share, and it holds the only wall-clock stopwatch in ``src/``: the host wall
clock of each point is stamped on that point's entries as ``wall_seconds`` —
*information* for whoever reads ``benchmarks/results/latest.json``, never a
judgement.  Host time is judged in exactly one place, the calibrated
parent-vs-change comparison of ``benchmarks/suite/compare.py``; everything
a sweep returns apart from ``wall_seconds`` is virtual time and therefore a
pure function of the code.  One exception: ``AutoStrategy._resolve`` reads
``time.thread_time()`` for the plan cache's ``warm_cpu`` / ``cold_cpu``
counters, and :func:`repro.bench.adaptive.check_plan_cache` judges the
warm/cold ratio of that host CPU time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Tuple, TypeVar, Union

from .jsonlog import entries_from_records, record_results
from .results import ExperimentRecord

__all__ = ["sweep", "sweep_records"]

Point = TypeVar("Point")


def sweep(
    experiment: Union[str, Callable[[Point], str]],
    points: Iterable[Point],
    run_point: Callable[[Point], List[Dict]],
) -> Dict[str, List[Dict]]:
    """Run ``run_point`` on every point; returns ``experiment -> entries``.

    ``experiment`` names the jsonlog experiment the entries file under —
    one name for the whole sweep, or a function of the point when every
    point is its own experiment (the multi-tenant and pipeline sweeps, the
    perf gate's per-machine adaptive grids).  Each experiment is recorded
    once, after the last point, so a sweep that fails half-way leaves the
    previous results in place.
    """
    measured: Dict[str, List[Dict]] = {}
    for point in points:
        start = time.perf_counter()
        entries = run_point(point)
        wall_seconds = time.perf_counter() - start
        name = experiment(point) if callable(experiment) else experiment
        for entry in entries:
            entry["wall_seconds"] = wall_seconds
        measured.setdefault(name, []).extend(entries)
    for name, entries in measured.items():
        record_results(name, entries)
    return measured


def sweep_records(
    experiment: Union[str, Callable[[Point], str]],
    points: Iterable[Point],
    run_point: Callable[[Point], ExperimentRecord],
) -> Tuple[List[ExperimentRecord], Dict[str, List[Dict]]]:
    """:func:`sweep` over points measured as one record each.

    Returns ``(records, measured)``: the records in point order for tables
    and assertions, and the sweep's ``experiment -> entries``.
    """
    records: List[ExperimentRecord] = []

    def entries_of(point: Point) -> List[Dict]:
        records.append(run_point(point))
        return entries_from_records(records[-1:])

    return records, sweep(experiment, points, entries_of)
