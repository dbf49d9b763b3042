"""Tests for the multi-tenant scheduler and its arrival processes.

Covers the tenancy mechanics (independent worlds, arrival-offset clocks,
global rank bases, spec validation, failure isolation) and the determinism
property the benchmark relies on: a scheduler run is a pure function of
``(specs, arrival kind, seed)``, so the same seed reproduces identical
jsonlog entries and a different seed changes the arrival *order*.
"""

from __future__ import annotations

import pytest

from repro.bench.machines import CPLANT, IBM_SP
from repro.bench.multitenant import run_multitenant_point
from repro.fs.filesystem import ParallelFileSystem
from repro.jobs import JobSpec, MultiTenantScheduler, make_arrivals
from repro.jobs.arrivals import ARRIVAL_KINDS
from repro.mpi import SPMDExecutionError


def make_fs(machine=IBM_SP):
    return ParallelFileSystem(machine.make_fs_config())


def spec(job_id, filename, nprocs=4, **kwargs):
    return JobSpec(job_id, nprocs=nprocs, M=8, N=64, filename=filename, **kwargs)


class TestArrivals:
    def test_batch_is_all_zero(self):
        assert make_arrivals("batch", 3) == [0.0, 0.0, 0.0]

    def test_staggered_spacing(self):
        assert make_arrivals("staggered", 3, interval=0.5) == [0.0, 0.5, 1.0]

    def test_poisson_is_deterministic_per_seed(self):
        a = make_arrivals("poisson", 8, seed=7)
        b = make_arrivals("poisson", 8, seed=7)
        assert a == b
        assert all(t >= 0 for t in a)

    def test_poisson_seed_changes_the_order(self):
        a = make_arrivals("poisson", 8, seed=1)
        b = make_arrivals("poisson", 8, seed=2)
        # Different seeds must change which job arrives first, not just the
        # gap lengths: compare the rank order of the offsets.
        order_a = sorted(range(8), key=a.__getitem__)
        order_b = sorted(range(8), key=b.__getitem__)
        assert order_a != order_b

    def test_poisson_requires_a_seed(self):
        with pytest.raises(ValueError, match="seed"):
            make_arrivals("poisson", 4)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrivals("burst", 4)

    def test_all_registered_kinds_produce_n_offsets(self):
        for kind in ARRIVAL_KINDS:
            assert len(make_arrivals(kind, 5, seed=3)) == 5


class TestSpecValidation:
    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mode"):
            JobSpec("j", 4, 8, 64, "/f", mode="append")

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            JobSpec("j", 4, 0, 64, "/f")

    def test_empty_id_raises(self):
        with pytest.raises(ValueError, match="job_id"):
            JobSpec("", 4, 8, 64, "/f")


class TestScheduler:
    def test_private_files_both_complete(self):
        result = MultiTenantScheduler(make_fs()).run(
            [spec("a", "/a.dat"), spec("b", "/b.dat")]
        )
        assert [j.spec.job_id for j in result.jobs] == ["a", "b"]
        assert all(j.makespan > 0 for j in result.jobs)
        assert result.fairness > 0.9  # identical jobs, near-equal service

    def test_rank_bases_are_cumulative_and_provenance_is_global(self):
        fs = make_fs()
        result = MultiTenantScheduler(fs).run(
            [spec("a", "/a.dat", nprocs=3), spec("b", "/b.dat", nprocs=5)]
        )
        assert [j.rank_base for j in result.jobs] == [0, 3]
        # Job b's bytes must be attributed to global ids 3..7, never 0..2.
        store = fs.lookup("/b.dat").store
        writers = set(store.distinct_writers(0, store.size))
        assert writers <= set(range(3, 8))
        assert writers  # something was actually written

    def test_arrival_offsets_shift_job_timelines(self):
        result = MultiTenantScheduler(make_fs()).run(
            [spec("early", "/a.dat"), spec("late", "/b.dat")],
            arrivals=[0.0, 5.0],
        )
        early, late = result.jobs
        assert late.arrival == 5.0
        assert late.finish >= 5.0
        # Makespan is measured from the job's own arrival, so an idle
        # machine serves the late job as fast as the early one.
        assert late.makespan == pytest.approx(early.makespan, rel=0.2)
        assert result.window >= 5.0

    def test_duplicate_job_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate job ids"):
            MultiTenantScheduler(make_fs()).run(
                [spec("x", "/a.dat"), spec("x", "/b.dat")]
            )

    def test_arrival_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="arrival offsets"):
            MultiTenantScheduler(make_fs()).run([spec("a", "/a.dat")], arrivals=[0.0, 1.0])

    def test_negative_arrival_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            MultiTenantScheduler(make_fs()).run([spec("a", "/a.dat")], arrivals=[-1.0])

    def test_empty_specs_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiTenantScheduler(make_fs()).run([])

    def test_locking_strategy_rejected_on_lockless_machine(self):
        with pytest.raises(ValueError, match="byte-range locking"):
            MultiTenantScheduler(make_fs(CPLANT)).run(
                [spec("a", "/a.dat", strategy="locking")]
            )

    def test_failure_stays_inside_the_failing_job(self):
        # A job whose payload is the wrong length fails at rank level; the
        # error must name only that job's ranks — its neighbour ran to
        # completion on the same engine and file system.
        bad = spec("bad", "/bad.dat", data_factory=lambda r, n: b"x")
        good = spec("good", "/good.dat")
        with pytest.raises(SPMDExecutionError) as excinfo:
            MultiTenantScheduler(make_fs()).run([bad, good])
        assert {job for job, _ in excinfo.value.failures} == {"bad"}


class TestDeterminism:
    def test_same_seed_reproduces_identical_jsonlog_entries(self):
        # Two full runs of the same sweep point (fresh file system each, the
        # stochastic poisson arrival process) must produce identical jsonlog
        # entries: a point holds no host-dependent value (the sweep runner
        # stamps the wall clock on afterwards).
        points = [
            run_multitenant_point(
                IBM_SP, 4, 4, arrival_kind="poisson", seed=99, timeout=60.0
            )
            for _ in range(2)
        ]
        assert points[0].entries == points[1].entries
        assert points[0].result.arrival_order == points[1].result.arrival_order

    def test_different_seed_changes_the_arrival_order(self):
        orders = [
            run_multitenant_point(
                IBM_SP, 8, 2, arrival_kind="poisson", seed=seed, timeout=60.0
            ).result.arrival_order
            for seed in (1, 2)
        ]
        assert orders[0] != orders[1]
