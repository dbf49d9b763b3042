"""Coupled-pipeline sweep: producer:consumer ratios x overlap depth.

Each sweep point couples a producer group and a consumer group (world size
``P + C``) over intercomm bridges (:mod:`repro.pipelines`) and runs the
same streaming checkpoint/analysis workload twice:

* ``barrier`` — the write-barrier-read baseline: consumers wait for the
  producers' step to commit, producers wait for the consumers' analysis;
* ``overlapped`` — simulate-while-checkpoint: producers overlap the commit
  with compute via the split-collective API and run ``overlap_depth``
  steps ahead, consumers overlap their in-situ ``Iread_all`` with analysis
  compute.

For every point the overlapped makespan must be *strictly* lower than the
baseline, every per-step byte stream must pass the cross-group
serialisability verifier, and every consumer must receive exactly the
deterministic expected stream (the N:M redistribution through the shared
file is byte-checked).  Results land under
``pipeline/<fs>/p<P>c<C>d<depth>``: one summary row per coordination mode,
one row per stage (carrying ``stage``), and one row per verified stream
(carrying ``stream_id``).  The sweep's 4:4 point at depth 2 is additionally
gated by :mod:`repro.bench.perfgate`.

Run the sweep (CI uploads the JSON it writes)::

    PYTHONPATH=src python -m repro.bench.pipeline
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..pipelines import (
    CoupledPipeline,
    PipelineResult,
    PipelineSpec,
    StageSpec,
    expected_consumer_streams,
)
from .machines import MachineSpec, machine_by_name
from .sweep import sweep

__all__ = [
    "DEFAULT_RATIOS",
    "DEFAULT_DEPTHS",
    "DEFAULT_SHAPE",
    "DEFAULT_STEPS",
    "SMOKE_POINT",
    "run_pipeline_point",
    "summaries",
    "measure_smoke",
    "check_point",
    "main",
]

#: The machine personality every point of the sweep runs on.
SWEEP_MACHINE = "IBM SP"

#: Producer:consumer rank ratios of the sweep (the N:M redistributions).
DEFAULT_RATIOS = ((4, 4), (8, 2), (2, 8))
#: Producer run-ahead depths of the sweep.
DEFAULT_DEPTHS = (1, 2)

#: Checkpoint array shape (M x N bytes) and per-run step count.
DEFAULT_SHAPE = (32, 512)
DEFAULT_STEPS = 4

#: Per-step virtual compute charged on each side; both the simulation the
#: checkpoint overlaps and the analysis the in-situ read overlaps.
DEFAULT_COMPUTE_SECONDS = 0.002

#: The perf-gate point, one of the sweep's: (producers, consumers, depth).
SMOKE_POINT = (4, 4, 2)


def _spec_for(
    producers: int,
    consumers: int,
    depth: int,
    coordination: str,
    strategy: str,
    shape: Tuple[int, int],
    steps: int,
    compute_seconds: float,
) -> PipelineSpec:
    M, N = shape
    return PipelineSpec(
        stages=(
            StageSpec("producer", producers, compute_seconds=compute_seconds),
            StageSpec("consumer", consumers, compute_seconds=compute_seconds),
        ),
        M=M,
        N=N,
        steps=steps,
        strategy=strategy,
        coordination=coordination,
        overlap_depth=depth,
        filename=f"/pipeline/p{producers}c{consumers}d{depth}_{coordination}",
    )


def run_pipeline_point(
    machine: MachineSpec,
    producers: int,
    consumers: int,
    depth: int = 1,
    strategy: str = "two-phase",
    shape: Tuple[int, int] = DEFAULT_SHAPE,
    steps: int = DEFAULT_STEPS,
    compute_seconds: float = DEFAULT_COMPUTE_SECONDS,
    timeout: Optional[float] = 120.0,
) -> List[Dict]:
    """Run one (P:C ratio, depth) point under both coupling disciplines.

    Returns the point's entries — per discipline (``barrier`` first) one
    summary row, one row per stage and one per verified stream.  The summary
    rows also carry the point's verdicts for :func:`check_point`:
    ``atomic_ok`` (both runs' streams passed the cross-group verifier) and
    ``streams_ok`` (every consumer delivered exactly the expected stream).
    """
    results: Dict[str, PipelineResult] = {}
    for coordination in ("barrier", "overlapped"):
        spec = _spec_for(
            producers, consumers, depth, coordination, strategy,
            shape, steps, compute_seconds,
        )
        results[coordination] = CoupledPipeline(
            spec, fs_config=machine.make_fs_config(), timeout=timeout
        ).run()

    atomic_ok = True
    streams_ok = True
    for result in results.values():
        atomic_ok = atomic_ok and result.verify().ok
        for step in range(result.spec.steps):
            expected = expected_consumer_streams(result.spec, step)
            for c in range(consumers):
                if result.delivered.get((step, c)) != expected[c]:
                    streams_ok = False

    total = producers + consumers
    entries: List[Dict] = []
    for coordination, result in results.items():
        label = f"{strategy}+{coordination}"
        entries.append(
            {
                "P": total,
                "strategy": label,
                "makespan": result.makespan,
                "bytes": result.bytes_streamed,
                "atomic_ok": atomic_ok,
                "streams_ok": streams_ok,
            }
        )
        for stage, nprocs in (("producer", producers), ("consumer", consumers)):
            finish = max(
                (
                    r.get("bytes_written", 0)
                    for r in result.returns
                    if r["role"] == stage
                ),
                default=0,
            )
            entries.append(
                {
                    "P": nprocs,
                    "strategy": label,
                    "makespan": result.makespan,
                    "bytes": finish if stage == "producer" else result.bytes_streamed,
                    "stage": stage,
                }
            )
        for trace in result.streams:
            entries.append(
                {
                    "P": total,
                    "strategy": label,
                    "makespan": result.makespan,
                    "bytes": sum(len(o.data) for o in trace.observations),
                    "stream_id": trace.stream_id,
                }
            )
    return entries


def summaries(entries: Sequence[Dict]) -> List[Dict]:
    """The ``(barrier, overlapped)`` summary rows of a point's entries."""
    return [e for e in entries if "stage" not in e and "stream_id" not in e]


def measure_smoke(experiment: str) -> Dict[str, List[Dict]]:
    """Sweep :data:`SMOKE_POINT` for the perf gate: only the two summary
    entries are filed under ``experiment`` (the per-stage and per-stream rows
    live in the ``pipeline/*`` sweep), keeping ``(P, strategy)`` unique."""
    machine = machine_by_name(SWEEP_MACHINE)
    return sweep(
        experiment,
        [SMOKE_POINT],
        lambda point: summaries(run_pipeline_point(machine, *point)),
    )


def check_point(experiment: str, entries: Sequence[Dict]) -> List[str]:
    """Problems of one point's entries: a torn or stale stream, a consumer
    whose bytes diverge from the deterministic N:M redistribution, or an
    overlapped makespan not *strictly* below the write-barrier-read one."""
    barrier, overlapped = summaries(entries)
    problems: List[str] = []
    if not barrier["atomic_ok"]:
        problems.append(f"{experiment}: cross-group stream atomicity violated")
    if not barrier["streams_ok"]:
        problems.append(f"{experiment}: consumer streams diverge from expected bytes")
    if overlapped["makespan"] >= barrier["makespan"]:
        problems.append(
            f"{experiment}: overlapped makespan {overlapped['makespan']:.6f}s "
            "does not strictly beat the write-barrier-read baseline "
            f"{barrier['makespan']:.6f}s"
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; exits non-zero when a point fails verification or
    the overlapped discipline fails to beat the baseline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(list(argv) if argv is not None else None)

    machine = machine_by_name(SWEEP_MACHINE)
    grid = [(p, c, depth) for p, c in DEFAULT_RATIOS for depth in DEFAULT_DEPTHS]
    measured = sweep(
        lambda case: "pipeline/{}/p{}c{}d{}".format(machine.file_system.lower(), *case),
        grid,
        lambda case: run_pipeline_point(machine, *case),
    )
    problems: List[str] = []
    for experiment, entries in measured.items():
        barrier, overlapped = summaries(entries)
        print(
            f"{experiment}: barrier {barrier['makespan']:.6f}s, "
            f"overlapped {overlapped['makespan']:.6f}s "
            f"(won {barrier['makespan'] - overlapped['makespan']:.6f}s), "
            f"streamed {overlapped['bytes']} B"
        )
        problems += check_point(experiment, entries)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"pipeline sweep ok ({len(measured)} points)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
