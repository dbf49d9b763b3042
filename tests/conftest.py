"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.fs.cache import CachePolicy
from repro.fs.costmodel import CostModel
from repro.fs.filesystem import FSConfig, LockProtocol, ParallelFileSystem

# Hypothesis profiles: tier-1 runs the small default; CI runs the generated
# verifier proofs once more under `HYPOTHESIS_PROFILE=ci`, ten times deeper.
# No per-example deadline in either: a wall clock must not fail tier-1.
settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def fast_fs_config(
    lock_protocol: str = LockProtocol.CENTRAL,
    num_servers: int = 4,
    client_caching: bool = True,
    write_behind: bool = True,
) -> FSConfig:
    """A tiny, low-latency file system configuration for functional tests."""
    return FSConfig(
        name="testfs",
        num_servers=num_servers,
        stripe_size=1024,
        server_cost=CostModel(latency=1e-6, bandwidth=1e9),
        client_link_cost=CostModel(latency=1e-6, bandwidth=1e9),
        lock_protocol=lock_protocol,
        lock_request_latency=1e-6,
        token_acquire_latency=2e-6,
        token_revoke_latency=1e-6,
        token_local_latency=1e-7,
        cache_policy=CachePolicy(
            page_size=256, max_pages=64, read_ahead_pages=1, write_behind=write_behind
        ),
        client_caching=client_caching,
    )


@pytest.fixture
def fast_fs() -> ParallelFileSystem:
    """A fresh low-latency file system with central locking."""
    return ParallelFileSystem(fast_fs_config())


@pytest.fixture
def lockless_fs() -> ParallelFileSystem:
    """A file system without byte-range locking (ENFS-like)."""
    return ParallelFileSystem(fast_fs_config(lock_protocol=LockProtocol.NONE))


@pytest.fixture
def token_fs() -> ParallelFileSystem:
    """A file system with GPFS-style distributed locking."""
    return ParallelFileSystem(fast_fs_config(lock_protocol=LockProtocol.DISTRIBUTED))
