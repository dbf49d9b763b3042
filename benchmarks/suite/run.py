#!/usr/bin/env python3
"""The repo benchmark: four workloads, two clocks, per-layer probes.

Two ways to call it (see README.md in this directory):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, the contract of ``BENCHMARK.json``: the last
    line of standard output is one JSON object with the end-to-end metrics
    (``--trace 0``) or the per-layer metrics (``--trace 1``).

``run.py [--seed N] [--seconds S] [--trace] [--out FILE] [--smoke]``
    The whole suite, one workload at a time, as a result document.

Workloads never run concurrently.  Each runs in fresh worker subprocesses
(this file with ``--worker``), pinned to one CPU: the engine's carrier
threads are parked threads of the program under test and exactly one is
runnable at a time, so a second CPU adds only cross-CPU wake-up latency.
An untraced run sets the workload up in three workers, one after the other,
and pools their timed iterations; a traced run uses one worker that
alternates untraced and traced iterations and then runs the layer probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = SUITE / "out"

DEFAULT_SEED = 20030804
#: Untraced runs set up in this many workers and report the median set-up.
SETUP_WORKERS = 3
#: Host times are reported in *calibrated seconds*: measured seconds x
#: (CALIB_REFERENCE_S / the calibration loop's own time next to the
#: measurement).  The box's speed drifts by tens of percent within minutes
#: (shared cores); the calibration loop drifts with it and cancels most of it.
CALIB_REFERENCE_S = 0.020
#: The high-water mark still creeps up over the first iterations (allocator
#: arenas, carrier stacks), and how many iterations fit in ``--seconds``
#: depends on the box, so ``peak_rss_mb`` is read after a fixed number.
RSS_AFTER_ITERATIONS = 3
#: Span name -> per-layer metric is ``<span>_host_s``.
SPAN_LAYERS = (
    "patterns.views", "core.regions.build", "core.executor.write", "core.executor.read",
    "core.bulk.write", "core.bulk.read", "jobs.run", "pipelines.run",
    "verify.write", "verify.read", "verify.stream", "bench.seed",
)


# -- small helpers ------------------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count (too few samples for a tail percentile)."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def calibrate() -> Dict[str, float]:
    """Wall and CPU seconds for a fixed loop: how fast the box is right now.

    The loop is 20 000 dict/tuple/str allocations and 1200 semaphore
    ping-pongs with a partner thread.  That mix was picked from a 25-minute
    record of all four workloads beside seven candidate loops (arithmetic,
    numpy sort, allocation, hand-offs, random gather, object-graph walk,
    memcpy): hand-offs and allocation tracked the workloads' drift best
    (see README.md, *Noise*); arithmetic and numpy, the obvious candidates,
    tracked it worst.

    The collector is off inside: whether a full collection falls into the
    loop depends on the heap the workload left behind, not on the box."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        table = {}
        for i in range(20_000):
            table[i] = (i, str(i))
        ping, pong = threading.Semaphore(0), threading.Semaphore(0)

        def partner() -> None:
            for _ in range(1200):
                ping.acquire()
                pong.release()

        thread = threading.Thread(target=partner)
        thread.start()
        for _ in range(1200):
            ping.release()
            pong.acquire()
        thread.join()
        return {
            "wall": time.perf_counter() - start,
            "cpu": time.process_time() - cpu_start,
        }
    finally:
        if gc_was_enabled:
            gc.enable()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process to the highest CPU it may use; ``None`` if it cannot."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- the worker: one process, one set-up, its timed iterations -----------------------------


def worker_main(args: argparse.Namespace) -> int:
    """Set ``args.workload`` up, iterate for ``args.seconds``, print one JSON line."""
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from probes import run_probes
    from spans import Recorder, chrome_trace, self_times
    from workloads import build_workload

    workload = build_workload(args.workload, args.seed, smoke=args.smoke)
    workload.setup()
    rec = Recorder()
    warm = workload.iterate(rec)  # untimed: fills the engine's carrier pool
    setup_raw = time.time() - (args.spawned_at or time.time())
    reference = (warm.fingerprint, warm.derived_counts())
    attempted, failures = len(warm.checks), [name for name, ok in warm.checks if not ok]

    samples: List[dict] = []
    rss_mb = None
    layers: List[Dict[str, float]] = []
    last_spans = []
    calib = calibrate()
    calib_walls = [calib["wall"]]
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        rec.reset()
        rec.enabled = traced
        gc.collect()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with rec.span("iteration"):
            it = workload.iterate(rec)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        calib_after = calibrate()
        user, system = ru1.ru_utime - ru0.ru_utime, ru1.ru_stime - ru0.ru_stime
        samples.append(
            {
                "wall": wall,
                "cpu": user + system,
                "sys": system,
                "calib": (calib["wall"] + calib_after["wall"]) / 2,
                "calib_cpu": (calib["cpu"] + calib_after["cpu"]) / 2,
                "nvcsw": ru1.ru_nvcsw - ru0.ru_nvcsw,
                "traced": traced,
            }
        )
        calib = calib_after
        calib_walls.append(calib["wall"])
        attempted += len(it.checks) + 1
        failures += [name for name, ok in it.checks if not ok]
        if (it.fingerprint, it.derived_counts()) != reference:
            failures.append(f"{args.workload}: iteration {len(samples)} differs from the warm-up")
        if traced:
            layers.append(self_times(rec.spans))
            last_spans = rec.spans
        if len(samples) == RSS_AFTER_ITERATIONS:
            rss_mb = peak_rss_mb()
        enough = len(samples) >= (4 if args.trace else 2)
        if args.smoke and len(samples) >= (2 if args.trace else 1):
            break
        if enough and time.perf_counter() >= deadline:
            break

    probes: Dict[str, float] = {}
    trace_path = None
    if args.trace:
        probes = run_probes(workload.probe_shape, smoke=args.smoke)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.json"
        chrome_trace(last_spans, str(trace_path), f"{args.workload} seed {args.seed}")

    counts = reference[1]
    print(
        json.dumps(
            {
                "setup_raw_s": setup_raw,
                # One 20 ms calibration is too short a ruler for a 1-2 s set-up;
                # the first three are all taken within seconds of it.
                "setup_calib_s": statistics.median(calib_walls[:3]),
                "samples": samples,
                "layers": layers,
                "probes": probes,
                "counts": counts,
                "virt": {
                    "virt_write_bw_mbs": warm.bandwidth_mbs("write"),
                    "virt_read_bw_mbs": warm.bandwidth_mbs("read"),
                    "virt_makespan_s": sum(warm.makespans.values()),
                },
                "fingerprint": warm.fingerprint,
                "attempted": attempted,
                "failures": failures,
                "rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
                "pinned_cpu": cpu,
                "numpy": numpy.__version__,
                "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
            }
        )
    )
    return 0


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one worker to completion and return the document it printed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.time()),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload!r} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- aggregation -----------------------------------------------------------------------------


def calibrated(samples: Sequence[dict], key: str) -> List[float]:
    """Wall is normalised by the calibration's wall, CPU by its CPU: time the
    hypervisor steals shows in wall clocks only."""
    by = "calib_cpu" if key == "cpu" else "calib"
    return [s[key] / s[by] * CALIB_REFERENCE_S for s in samples]


def end_to_end(workers: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of one workload from its workers' untraced samples."""
    untraced = [s for w in workers for s in w["samples"] if not s["traced"]]
    first = workers[0]
    metrics = {
        "setup_s": quartiles(
            [w["setup_raw_s"] / w["setup_calib_s"] * CALIB_REFERENCE_S for w in workers]
        ),
        "host_wall_s": quartiles(calibrated(untraced, "wall")),
        "host_cpu_s": quartiles(calibrated(untraced, "cpu")),
        "peak_rss_mb": quartiles([w["rss_mb"] for w in workers]),
    }
    for name, value in first["virt"].items():
        metrics[name] = {"value": value, "q1": value, "q3": value, "n": 1}
    return metrics


def per_layer(worker: dict, declared_names: Sequence[str]) -> Dict[str, float]:
    """The per-layer metrics of one workload from its traced worker.

    A count the workload never touched (a strategy without points, a layer
    it bypasses) reads 0, as does a span it never entered."""
    samples = worker["samples"]
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    scale = [CALIB_REFERENCE_S / s["calib"] for s in traced]
    out: Dict[str, float] = {}

    def span_median(name: str) -> float:
        return statistics.median(
            layer.get(name, 0.0) * k for layer, k in zip(worker["layers"], scale)
        )

    for name in SPAN_LAYERS:
        out[f"{name}_host_s"] = span_median(name)
    # What no layer span covers: the driver's own loop, fingerprinting, counters.
    out["bench.other_host_s"] = span_median("iteration") + span_median("point")
    counts = dict(worker["counts"])
    bulk_ranks = counts.pop("_core.bulk.ranks", 0.0)
    bulk = out["core.bulk.write_host_s"] + out["core.bulk.read_host_s"]
    out["core.bulk.us_per_rank"] = bulk / bulk_ranks * 1e6 if bulk_ranks else 0.0

    plain = statistics.median(calibrated(untraced, "wall"))
    out["bench.trace_overhead_share"] = (
        statistics.median(calibrated(traced, "wall")) - plain
    ) / plain
    out["bench.calib_s"] = statistics.median(s["calib"] for s in samples)
    out["bench.host_sys_share"] = statistics.median(
        s["sys"] / s["cpu"] if s["cpu"] else 0.0 for s in untraced
    )
    out["core.engine.vol_ctx_switches"] = statistics.median(s["nvcsw"] for s in untraced)

    out.update(worker["probes"])
    out.update(counts)
    for name in declared_names:
        out.setdefault(name, 0.0)
    return out


def summarise_checks(workers: Sequence[dict]) -> Dict[str, object]:
    attempted = sum(w["attempted"] for w in workers) + 1
    failures = [f for w in workers for f in w["failures"]]
    if len({w["fingerprint"] for w in workers}) != 1:
        failures.append("workers of one run disagree on the simulator fingerprint")
    return {"attempted": attempted, "failed": len(failures), "failures": failures[:20]}


# -- one contract run -------------------------------------------------------------------------


def declared(spec: dict, section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """One run: spawn the workers, aggregate, return the workload's record."""
    if trace or smoke:
        workers = [spawn_worker(workload, seed, seconds, 1, smoke)]
    else:
        workers = [
            spawn_worker(workload, seed, seconds / SETUP_WORKERS, 0, smoke)
            for _ in range(SETUP_WORKERS)
        ]
    record = {
        "end_to_end": end_to_end(workers),
        "sim_fingerprint": workers[0]["fingerprint"],
        "iterations": sum(1 for w in workers for s in w["samples"] if not s["traced"]),
        "calib_s": statistics.median(s["calib"] for w in workers for s in w["samples"]),
        "pinned_cpu": workers[0]["pinned_cpu"],
        "numpy": workers[0]["numpy"],
    }
    record.update(summarise_checks(workers))
    record["failed_share"] = record["failed"] / record["attempted"]
    if trace or smoke:
        record["per_layer"] = per_layer(workers[0], list(declared(spec, "per_layer")))
        record["trace_file"] = workers[0]["trace_file"]
    return record


def print_metrics(workload: str, values: Dict[str, object], units: Dict[str, str]) -> None:
    for name, value in values.items():
        if isinstance(value, dict):
            spread = f"  [q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, n={value['n']}]"
            value = value["value"]
        else:
            spread = ""
        print(f"{workload:16s} {name:48s} {value:14.6g} {units.get(name, '?'):8s}{spread}")


def contract_run(spec: dict, args: argparse.Namespace) -> int:
    """``--workload``: print the metrics, then the one-line JSON result."""
    record = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    section = "per_layer" if args.trace else "end_to_end"
    units = declared(spec, section)
    values = record[section]
    print_metrics(args.workload, values, units)
    for failure in record["failures"]:
        print(f"FAILED CHECK: {failure}")
    metrics = {
        name: {"value": v["value"] if isinstance(v, dict) else v, "unit": units.get(name, "?")}
        for name, v in values.items()
    }
    complete = set(metrics) == set(units)
    if not complete:
        print(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    ok = record["failed"] == 0 and complete
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if ok else 1


# -- the whole suite as one document -------------------------------------------------------------


def suite_run(spec: dict, args: argparse.Namespace) -> int:
    """Every workload, one after the other, as one result document."""
    load_start = os.getloadavg()
    if load_start[0] > 1.5:
        print(
            f"warning: 1-minute load average is {load_start[0]:.2f} (> 1.5); "
            "host times will read high",
            file=sys.stderr,
        )
    names = [w["name"] for w in spec["workloads"]]
    document = {
        "schema": 1,
        # The repo holds no numeric reference results (PAPER.md is empty); only
        # the paper's qualitative orderings are asserted, as checks.
        "validation": "unvalidated",
        "claims_gain": False,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "calib_reference_s": CALIB_REFERENCE_S,
        "workloads": {},
    }
    units = {**declared(spec, "end_to_end"), **declared(spec, "per_layer")}
    for name in names:
        if args.smoke:
            record = run_workload(spec, name, args.seed, args.seconds, 1, smoke=True)
        else:
            record = run_workload(spec, name, args.seed, args.seconds, 0)
            if args.trace:
                traced = run_workload(spec, name, args.seed, args.seconds, 1)
                for key in ("per_layer", "trace_file"):
                    record[key] = traced[key]
                record["attempted"] += traced["attempted"]
                record["failed"] += traced["failed"]
                record["failures"] += traced["failures"]
                if traced["sim_fingerprint"] != record["sim_fingerprint"]:
                    record["failed"] += 1
                    record["failures"].append("traced pass changed the simulator fingerprint")
                record["failed_share"] = record["failed"] / record["attempted"]
        document["workloads"][name] = record
        print_metrics(name, record["end_to_end"], units)
        print_metrics(name, record.get("per_layer", {}), units)
        print(f"{name:16s} {'failed_share':48s} {record['failed_share']:14.6g} "
              f"{'ratio':8s}  [{record['failed']} of {record['attempted']} checks]")
        print(f"{name:16s} sim_fingerprint {record['sim_fingerprint']}")
        for failure in record["failures"]:
            print(f"FAILED CHECK: {failure}")
    first = document["workloads"][names[0]]
    document["environment"] = {
        "nproc": os.cpu_count(),
        "pinned_cpu": first["pinned_cpu"],
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "git_commit": git_commit(),
        "iterations": {n: document["workloads"][n]["iterations"] for n in names},
        "bench.calib_s": {n: document["workloads"][n]["calib_s"] for n in names},
    }
    print("timings are medians with quartiles; the sample counts (n) are too small "
          "for a tail percentile")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    failed = sum(r["failed"] for r in document["workloads"].values())
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload and print the contract's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also (suite) or instead (--workload) produce the per-layer metrics")
    parser.add_argument("--out", help="suite mode: write the result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="suite mode: first point of each workload, one iteration")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(list(argv) if argv is not None else None)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None:
        known = [w["name"] for w in spec["workloads"]]
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; known: {known}")
        return contract_run(spec, args)
    return suite_run(spec, args)


if __name__ == "__main__":
    sys.exit(main())
