"""CI perf gate: a registry of deterministic gates over virtual-time results.

Because execution is a deterministic discrete-event simulation, the virtual
makespan of a fixed workload is a *pure function of the code* — any drift is
a real change in the modelled I/O pipeline, not noise.  The gate is a tuple
of :class:`Gate` rows (:data:`GATES`).  :func:`main` runs each row's
``measure`` (a :func:`~repro.bench.sweep.sweep`, so the measurements are
mirrored into ``benchmarks/results/latest.json``), collects the problems its
``check`` reports — the checks live beside the workloads they judge, in
:mod:`~repro.bench.adaptive`, :mod:`~repro.bench.multitenant` and
:mod:`~repro.bench.pipeline`, and need neither a baseline nor a clock — and
compares every measured makespan against the baseline committed at
``benchmarks/perf_baseline.json`` (:func:`compare`).

Host time is not judged here (see :mod:`repro.bench.sweep`); the one
host-side reading left is the plan-cache check's within-run warm/cold
resolution-CPU *ratio*.  Entries are jsonlog entries; a ``measure`` may add
evidence keys for its ``check`` (``atomic_ok``, ``plan_hits`` …), which the
jsonlog schema projection keeps out of ``latest.json`` and of the baseline.

Intentional performance changes update the baseline explicitly — only its
deterministic keys are written, so a refresh on an unchanged tree is a
no-op::

    PYTHONPATH=src python -m repro.bench.perfgate --update-baseline

Run the gate (CI does this on every build)::

    PYTHONPATH=src python -m repro.bench.perfgate
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from . import adaptive, multitenant, pipeline
from .adaptive import ADAPTIVE_PREFIX, ADAPTIVE_READ_PREFIX
from .harness import run_column_wise_experiment, run_read_experiment
from .jsonlog import SCHEMA_VERSION, coerce_entry
from .overlap import run_overlap_experiment
from .sweep import sweep_records

__all__ = [
    "BASELINE_PATH",
    "DEFAULT_TOLERANCE",
    "DEFAULT_FAIRNESS_FLOOR",
    "Gate",
    "GATES",
    "compare",
    "main",
]

BASELINE_PATH = Path("benchmarks") / "perf_baseline.json"

#: Allowed relative makespan growth before the gate fails.
DEFAULT_TOLERANCE = 0.15

#: The multi-tenant smoke point must keep Jain's fairness index over the
#: per-job makespans at or above this floor: identical jobs arriving
#: together (equal offered load) must finish in near-equal time, so a drop
#: means the shared-file-system scheduling started starving a tenant.
DEFAULT_FAIRNESS_FLOOR = 0.8

Measured = Dict[str, List[Dict]]


class Gate(NamedTuple):
    """One row of the gate: a measurement and the check over its entries."""

    name: str
    #: Runs the workload; returns ``experiment -> entries``.
    measure: Callable[[], Measured]
    #: Problems (empty when it passes) of what ``measure`` returned.  Gates
    #: judged only against the baseline keep the default.
    check: Callable[[Measured], List[str]] = lambda measured: []


#: The hierarchical strategy on the bulk-synchronous replay executors — the
#: substrate of the extended Section 3.4 sweeps — at a quick thousand-rank
#: point, write and read back.
_HIER = dict(
    overlap_columns=2,
    executor="bulk",
    strategy_options={"num_aggregators": 8, "ranks_per_node": 8},
)

#: The baseline-only workloads: quick, deterministic, all exercising the
#: two-phase family (the performance centrepiece the roadmap tracks).  Each
#: point is a call returning one record.
_TWO_PHASE_POINTS = {
    "perfgate/two-phase-write": [
        partial(run_column_wise_experiment, "Origin 2000", 64, 512, nprocs, "two-phase")
        for nprocs in (4, 16)
    ],
    "perfgate/overlap-split": [
        partial(run_overlap_experiment, "IBM SP", 16, 256, 16, api="split")
    ],
    "perfgate/two-phase-hier-bulk": [
        partial(run_column_wise_experiment, "IBM SP", 8, 2048, 1024, "two-phase-hier", **_HIER)
    ],
    "perfgate/two-phase-hier-bulk-read": [
        partial(
            run_read_experiment, "IBM SP", 8, 2048, 1024, "two-phase-hier",
            verify=False, **_HIER,
        )
    ],
}


def _measure_two_phase(experiment: str) -> Measured:
    _, measured = sweep_records(
        experiment, _TWO_PHASE_POINTS[experiment], lambda run: run()
    )
    return measured


def _per_experiment(check_point: Callable[..., List[str]]) -> Callable[[Measured], List[str]]:
    """A gate ``check`` from a sweep module's ``check_point(experiment, entries)``
    — the same check that module's own CLI applies to every sweep point."""
    return lambda measured: [
        problem
        for experiment, entries in measured.items()
        for problem in check_point(experiment, entries)
    ]


GATES = tuple(
    Gate(experiment, partial(_measure_two_phase, experiment))
    for experiment in _TWO_PHASE_POINTS
) + (
    Gate(
        ADAPTIVE_PREFIX,
        partial(adaptive.measure_grid, "write", ADAPTIVE_PREFIX),
        adaptive.check_adaptive,
    ),
    Gate(
        ADAPTIVE_READ_PREFIX,
        partial(adaptive.measure_grid, "read", ADAPTIVE_READ_PREFIX),
        partial(adaptive.check_adaptive, prefix=ADAPTIVE_READ_PREFIX),
    ),
    Gate(
        "perfgate/plan-cache",
        partial(adaptive.measure_plan_cache, "perfgate/plan-cache"),
        _per_experiment(adaptive.check_plan_cache),
    ),
    Gate(
        "perfgate/multitenant",
        partial(multitenant.measure_smoke, "perfgate/multitenant"),
        _per_experiment(
            partial(multitenant.check_point, fairness_floor=DEFAULT_FAIRNESS_FLOOR)
        ),
    ),
    Gate(
        "perfgate/pipeline",
        partial(pipeline.measure_smoke, "perfgate/pipeline"),
        _per_experiment(pipeline.check_point),
    ),
)


def _index(entries: Sequence[Dict]) -> Dict:
    """Index entries by ``(P, strategy)``; duplicates are a hard error.

    A duplicate key in a baseline or measurement means two entries would
    silently shadow each other — and whichever one the dict kept could mask
    a regression in the other — so malformed inputs fail loudly instead.
    """
    out: Dict = {}
    for entry in entries:
        key = (entry["P"], entry["strategy"])
        if key in out:
            raise ValueError(
                f"duplicate perf entry for P={key[0]} strategy={key[1]}; "
                "baseline or measurement is malformed"
            )
        out[key] = entry
    return out


def compare(
    measured: Measured, baseline: Dict, tolerance: Optional[float] = None
) -> List[str]:
    """Problems (empty when the gate passes) of measured vs baseline."""
    tol = tolerance if tolerance is not None else baseline.get("tolerance", DEFAULT_TOLERANCE)
    problems: List[str] = []
    base_experiments = baseline.get("experiments", {})
    for experiment, entries in measured.items():
        base = _index(base_experiments.get(experiment, []))
        for key, entry in _index(entries).items():
            ref = base.get(key)
            if ref is None:
                problems.append(
                    f"{experiment}: no baseline for P={key[0]} strategy={key[1]} "
                    "(run `python -m repro.bench.perfgate --update-baseline`)"
                )
            elif entry["makespan"] > ref["makespan"] * (1.0 + tol):
                problems.append(
                    f"{experiment}: P={key[0]} {key[1]} makespan "
                    f"{entry['makespan']:.6f}s exceeds baseline "
                    f"{ref['makespan']:.6f}s by more than {tol:.0%}"
                )
            elif entry["makespan"] < ref["makespan"] * (1.0 - tol):
                print(
                    f"note: {experiment}: P={key[0]} {key[1]} improved "
                    f"{ref['makespan']:.6f}s -> {entry['makespan']:.6f}s; "
                    "consider refreshing the baseline"
                )
    # A baseline entry with no measured counterpart means a gated workload
    # was renamed or dropped — the gate must not silently pass it.
    for experiment, entries in base_experiments.items():
        seen = _index(measured.get(experiment, []))
        for key in _index(entries):
            if key not in seen:
                problems.append(
                    f"{experiment}: baseline entry P={key[0]} strategy={key[1]} "
                    "has no measured counterpart; the gated workload was "
                    "renamed or dropped (run --update-baseline if intentional)"
                )
    return problems


def main(argv: Optional[Sequence[str]] = None, gates: Sequence[Gate] = GATES) -> int:
    """CLI entry point; exits non-zero when any gate fails.

    ``--update-baseline`` *refuses* to write a new baseline while any
    gate's check fails, so a broken working tree can never be enshrined as
    the new reference.
    """
    args = list(argv) if argv is not None else sys.argv[1:]
    update = "--update-baseline" in args
    measured: Measured = {}
    problems: List[str] = []
    for gate in gates:
        gate_measured = gate.measure()
        problems += gate.check(gate_measured)
        measured.update(gate_measured)
    for experiment, entries in measured.items():
        for entry in entries:
            print(
                f"{experiment}: P={entry['P']} {entry['strategy']} "
                f"makespan {entry['makespan']:.6f}s ({entry['bytes']} bytes)"
            )
    if not update:
        if BASELINE_PATH.exists():
            baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
            problems += compare(measured, baseline)
        else:
            problems.append(f"no baseline at {BASELINE_PATH}; run with --update-baseline")
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        if update:
            print(
                "refusing to update the baseline: the working tree fails the "
                "perf gates above"
            )
        return 1
    if not update:
        print("perf gate ok")
        return 0
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    # The schema's fields minus the one host-dependent one.
    experiments = {
        experiment: [
            {k: v for k, v in coerce_entry(entry).items() if k != "wall_seconds"}
            for entry in entries
        ]
        for experiment, entries in measured.items()
    }
    document = {
        "schema": SCHEMA_VERSION,
        "tolerance": DEFAULT_TOLERANCE,
        "experiments": experiments,
    }
    BASELINE_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"baseline updated: {BASELINE_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
