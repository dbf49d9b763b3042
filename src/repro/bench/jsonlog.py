"""Generated benchmark results: ``latest.json`` and ``latest.txt``.

The text report (``benchmarks/results/latest.txt``, :func:`report`) is for
humans; the JSON log (``latest.json``, :func:`record_results`) keeps the same
results machine-readable so the performance trajectory is trackable across
PRs.  Both files are *generated artifacts*: they live in a gitignored
location (:func:`results_dir`, one resolution for both) and are uploaded
from CI, never committed.  They are one of three result stores (table in
``benchmarks/results/SUMMARY.md``): ``benchmarks/perf_baseline.json`` is the
perf gate's checked-in virtual-time baseline (deterministic keys only),
``benchmarks/suite/baseline/`` the host-time reference and the only place
host time is judged; here ``wall_seconds`` is informational.

Schema (version 1)::

    {
      "schema": 1,
      "experiments": {
        "<experiment name>": [
          {"P": <ranks>, "strategy": "<name>", "makespan": <seconds>, "bytes": <requested>},
          ...
        ]
      }
    }

``makespan`` is virtual time (deterministic run to run), ``bytes`` the
requested I/O volume of the measured operation; the optional fields are
listed in :data:`OPTIONAL_FIELDS`.  Every optional field stays absent when
unset, so records written before a field existed still parse.  Like the
text report, re-recording an experiment replaces its previous entries in
place, so each file holds exactly one copy of every experiment regardless of
how often or how partially the benchmarks are re-run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "OPTIONAL_FIELDS",
    "results_dir",
    "coerce_entry",
    "record_results",
    "report",
    "report_json",
    "entries_from_records",
    "load_results",
]

SCHEMA_VERSION = 1

#: Default location, relative to the repository root (the working directory
#: pytest and the CI steps run from).
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"

_REQUIRED_FIELDS = {"P": int, "strategy": str, "makespan": float, "bytes": int}

#: The optional entry fields and their types.  An entry may carry other keys
#: while it is in memory (the perf gate's evidence, see
#: :mod:`repro.bench.perfgate`); only the schema's fields are ever written.
OPTIONAL_FIELDS = {
    # Host run time of the sweep point the entry belongs to, stamped by
    # :func:`repro.bench.sweep.sweep` — the one machine-dependent field.
    "wall_seconds": float,
    # Adaptive strategy: the concrete delegate the ``auto`` tuner dispatched
    # to and the hints it derived for the point (read decisions add the
    # client read-ahead coupling, 0/1).  Static strategies carry none.
    "selected": str,
    "cb_nodes": int,
    "cb_ppn": int,
    "cb_buffer_size": int,
    "read_ahead": int,
    # Multi-tenant points: which job of the run a per-job row describes
    # (summary rows omit it), the total bytes offered across the run's jobs,
    # and Jain's fairness index over the per-job makespans.
    "job_id": str,
    "offered_load": float,
    "fairness": float,
    # Coupled-pipeline points: which stage group a per-stage row describes,
    # which per-step byte stream a per-stream row verifies.
    "stage": str,
    "stream_id": str,
}


def results_dir() -> Path:
    """Where generated results go (override with ``REPRO_RESULTS_DIR``)."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    return Path(env) if env else DEFAULT_RESULTS_DIR


def coerce_entry(entry: Dict) -> Dict:
    """Project ``entry`` onto the schema, with coerced types."""
    out = {key: kind(entry[key]) for key, kind in _REQUIRED_FIELDS.items()}
    for key, kind in OPTIONAL_FIELDS.items():
        if entry.get(key) is not None:
            out[key] = kind(entry[key])
    return out


def entries_from_records(records: Iterable) -> List[Dict]:
    """Flatten :class:`~repro.bench.results.ExperimentRecord` rows to entries."""
    entries: List[Dict] = []
    for record in records:
        entry = {
            "P": record.nprocs,
            "strategy": record.strategy,
            "makespan": record.makespan_seconds,
            "bytes": record.bytes_requested,
        }
        if record.selected_strategy is not None:
            entry["selected"] = record.selected_strategy
        for key in ("cb_nodes", "cb_ppn", "cb_buffer_size", "read_ahead"):
            value = record.extra.get(key)
            if value is not None:
                entry[key] = int(value)
        entries.append(entry)
    return entries


def load_results(path: Optional[Path] = None) -> Dict:
    """Load a results document (an empty schema-1 skeleton when absent)."""
    path = path or results_dir() / "latest.json"
    doc: Dict = {"schema": SCHEMA_VERSION, "experiments": {}}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            return doc
        if isinstance(loaded, dict):
            doc.update(loaded)
            doc.setdefault("experiments", {})
    return doc


def record_results(
    experiment: str, entries: Iterable[Dict], path: Optional[Path] = None
) -> Path:
    """Merge one experiment's entries into ``latest.json``; returns the path."""
    path = path or results_dir() / "latest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = load_results(path)
    doc["schema"] = SCHEMA_VERSION
    doc["experiments"][experiment] = [coerce_entry(e) for e in entries]
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def report_json(experiment: str, records: Iterable) -> Path:
    """Mirror experiment records (a ``ResultTable`` included) into ``latest.json``."""
    return record_results(experiment, entries_from_records(records))


def report(title: str, body: str) -> Path:
    """Print a captioned block and record it in ``latest.txt``.

    A section with the same title replaces its previous version in place, so
    ``latest.txt`` holds exactly one copy of every section regardless of how
    often or how partially the benchmarks are re-run.
    """
    block = f"\n===== {title} =====\n{body}\n"
    print(block)
    path = results_dir() / "latest.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    header = f"\n===== {title} =====\n"
    if header in text:
        start = text.index(header)
        next_section = text.find("\n===== ", start + len(header))
        text = text[:start] + block + (text[next_section:] if next_section != -1 else "")
    else:
        text += block
    path.write_text(text, encoding="utf-8")
    return path
