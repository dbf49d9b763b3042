"""Multi-tenant job layer: many independent SPMD jobs on one file system.

Everything below :mod:`repro.bench` measures *one* job on an idle file
system.  This package supplies the production-shaped counterpart: a
:class:`~repro.jobs.spec.JobSpec` describes one SPMD job (rank count,
workload geometry, atomicity strategy name), an arrival process
(:mod:`repro.jobs.arrivals`) places jobs on the virtual timeline, and the
:class:`~repro.jobs.scheduler.MultiTenantScheduler` runs all of them as
independent communicator worlds multiplexed onto one shared discrete-event
engine and one shared :class:`~repro.fs.filesystem.ParallelFileSystem` —
cross-job contention flows through the ordinary token/lock managers, server
queues and cache layers, so jobs racing on shared files exercise the real
atomicity machinery.

:mod:`repro.jobs.metrics` holds the fairness/latency summaries (Jain's
index, percentile makespans, aggregate bandwidth) the multi-tenant
benchmark (:mod:`repro.bench.multitenant`) reports.
"""

from .arrivals import make_arrivals
from .metrics import aggregate_bandwidth, jains_index, percentile, summarize_makespans
from .scheduler import (
    JobResult,
    MultiTenantResult,
    MultiTenantScheduler,
)
from .spec import JobSpec

__all__ = [
    "JobSpec",
    "JobResult",
    "MultiTenantResult",
    "MultiTenantScheduler",
    "make_arrivals",
    "jains_index",
    "percentile",
    "summarize_makespans",
    "aggregate_bandwidth",
]
