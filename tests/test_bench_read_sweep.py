"""Tests for the read and mixed read/write benchmark sweeps.

Pins the headline property of the staged read pipeline — the two-phase
collective read beats the naive per-rank `Read_all` baseline on virtual-time
makespan — and the acceptance workload: read atomicity holds on an
overlapping mixed read/write race at P ∈ {16, 256}.  What the read sweep
shares with the write grid (strategy coverage, capability filtering, record
fields) is tested once per direction in ``tests/test_bench_harness.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_mixed_experiment, run_read_experiment


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
    @pytest.mark.parametrize("nprocs", [16, 256])
    def test_mixed_race_is_read_and_write_atomic(self, nprocs):
        """Writers and readers race on one file under byte-range locking;
        both MPI write atomicity and read atomicity must hold."""
        record = run_mixed_experiment("Origin 2000", 16, 4096, nprocs)
        assert record.atomic_ok
        assert record.mode == "mixed"
        # The race is real: conflicting locks were actually waited on.
        assert record.lock_waits > 0

    def test_mixed_rejects_lockless_machine(self):
        with pytest.raises(ValueError):
            run_mixed_experiment("Cplant", 16, 1024, 4)
