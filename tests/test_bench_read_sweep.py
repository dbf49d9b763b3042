"""Tests for the read sweep and the mixed read/write race.

Pins the headline property of the staged read pipeline — the two-phase
collective read beats the naive per-rank `Read_all` baseline on virtual-time
makespan — and the acceptance workload: read atomicity holds when write jobs
race read jobs on one file, 16 and 256 ranks in all
(:func:`repro.bench.multitenant.run_mixed_tenant_point`).  What the read sweep
shares with the write grid (strategy coverage, capability filtering, record
fields) is tested once per direction in ``tests/test_bench_harness.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_read_experiment
from repro.bench.machines import CPLANT, ORIGIN2000
from repro.bench.multitenant import SHARED_FILE, run_mixed_tenant_point


class TestReadSweep:
    def test_two_phase_beats_naive_baseline(self):
        """The staged two-phase read wins on makespan against the naive
        per-rank read it replaces (overlapping column-wise views, P=16)."""
        naive = run_read_experiment("Origin 2000", 16, 8192, 16, "none")
        two_phase = run_read_experiment("Origin 2000", 16, 8192, 16, "two-phase")
        assert naive.atomic_ok and two_phase.atomic_ok
        assert two_phase.makespan_seconds < naive.makespan_seconds
        # The win comes from de-duplicated server reads.
        assert two_phase.bytes_written <= naive.bytes_written

    def test_read_experiment_accounts_cache_and_shuffle(self):
        record = run_read_experiment("Origin 2000", 16, 4096, 8, "two-phase")
        assert record.extra["shuffled_bytes"] > 0
        naive = run_read_experiment("Origin 2000", 16, 4096, 8, "none")
        assert naive.extra["cache_misses"] > 0


class TestMixedReadWrite:
    @pytest.mark.parametrize("ranks_per_job", [4, 64])
    def test_mixed_race_is_read_and_write_atomic(self, ranks_per_job):
        """Two write jobs race two read jobs on one file under byte-range
        locking, all arriving at once; both MPI write atomicity and read
        atomicity must hold."""
        point = run_mixed_tenant_point(
            ORIGIN2000, 2, 2, ranks_per_job, arrival_kind="batch"
        )
        assert point.summary["P"] == 4 * ranks_per_job
        assert point.summary["atomic_ok"]
        assert point.result.fs.lookup(SHARED_FILE).lock_manager.wait_count > 0
        # The race is real: a reader waited on a lock held by a writer.
        assert any(
            outcome.lock_wait_seconds > 0
            for job in point.result.jobs
            if job.spec.mode == "read"
            for outcome in job.outcomes
        )

    def test_mixed_rejects_lockless_machine(self):
        with pytest.raises(ValueError, match="byte-range locking"):
            run_mixed_tenant_point(CPLANT, 2, 2, 4)
