#!/usr/bin/env python3
"""Compare two result documents of ``run.py`` against the bounds in BENCHMARK.json.

    python benchmarks/suite/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of one
commit) and ``B`` the candidate.  Per workload and end-to-end metric it
prints both medians, the relative difference with its base, and a verdict:

``PASS``        B is not worse than A by more than the metric's bound.
``REGRESSED``   B is worse by more than the bound and the two sides'
                quartile ranges do not overlap.
``UNRESOLVED``  B is worse by more than the bound but the quartile ranges
                overlap, or either side's own spread (q3 - q1 over the median)
                is wider than the bound: the runs cannot tell — which is not
                the same as unchanged.

The documents must be comparable: equal seeds, equal ``sim_fingerprint`` per
workload (a simulator-only change leaves every simulated statistic
identical; a change that moves a fingerprint is a model change and must say
so), and ``failed_share`` not higher in B.  Exit status is non-zero on any
regression or when the documents are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

__all__ = ["compare", "main"]


def _worse_by(base: float, cand: float, better: str) -> float:
    """Relative difference of the medians, positive when ``cand`` is worse."""
    delta = (cand - base) / abs(base) if base else 0.0
    return delta if better == "lower" else -delta


def _verdict(a: dict, b: dict, better: str, bound: float) -> str:
    worse = _worse_by(a["value"], b["value"], better)
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if worse > bound:
        return "UNRESOLVED" if overlap else "REGRESSED"
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["value"]) if side["value"] else 0.0
        for side in (a, b)
    )
    if spread > bound and overlap:
        return "UNRESOLVED"
    return "PASS"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> List[str]:
    """Print the comparison table; return the reasons the comparison fails."""
    problems: List[str] = []
    if doc_a["seed"] != doc_b["seed"]:
        problems.append(f"seeds differ: {doc_a['seed']} vs {doc_b['seed']}")
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} {'B vs A':>9s} "
          f"{'bound':>7s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = doc_a["workloads"].get(workload), doc_b["workloads"].get(workload)
        if a is None or b is None:
            problems.append(f"{workload}: missing from one document")
            continue
        if a["sim_fingerprint"] != b["sim_fingerprint"]:
            problems.append(f"{workload}: sim_fingerprint differs (a model change?)")
        if b["failed_share"] > a["failed_share"]:
            problems.append(
                f"{workload}: failed_share rose from {a['failed_share']:.6g} "
                f"to {b['failed_share']:.6g}"
            )
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            verdict = _verdict(va, vb, better, bound)
            change = (vb["value"] - va["value"]) / abs(va["value"]) if va["value"] else 0.0
            print(
                f"{workload:16s} {name:20s} {va['value']:12.6g} {vb['value']:12.6g} "
                f"{change:+8.2%} {bound:7.1%}  {verdict}"
                f"  (base A = {va['value']:.6g} {metric['unit']}, {better} is better)"
            )
            if verdict == "REGRESSED":
                problems.append(f"{workload}: {name} regressed by {change:+.2%} of {va['value']:.6g}")
        print(
            f"{workload:16s} {'failed_share':20s} {a['failed_share']:12.6g} "
            f"{b['failed_share']:12.6g}"
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="base result document")
    parser.add_argument("b", help="candidate result document")
    args = parser.parse_args(list(argv) if argv is not None else None)
    docs = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = compare(docs[0], docs[1], spec)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("no regression: every end-to-end metric of B is within its bound of A")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
