"""Tests for the virtual-time cost model, resources and I/O servers."""

from __future__ import annotations

import pytest

from repro.core.engine import Engine, current_task
from repro.fs.costmodel import CostModel, Resource
from repro.fs.server import IOServer, ServerPool


class TestCostModel:
    def test_service_time(self):
        cm = CostModel(latency=0.001, bandwidth=1000.0)
        assert cm.service_time(0) == pytest.approx(0.001)
        assert cm.service_time(500) == pytest.approx(0.501)

    def test_infinite_bandwidth(self):
        cm = CostModel(latency=0.5)
        assert cm.service_time(10**9) == pytest.approx(0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CostModel(latency=-1)
        with pytest.raises(ValueError):
            CostModel(bandwidth=0)
        with pytest.raises(ValueError):
            CostModel(latency=0.0, bandwidth=-5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CostModel().service_time(-1)


class TestResource:
    def test_sequential_requests_queue(self):
        r = Resource("r", CostModel(latency=1.0, bandwidth=float("inf")))
        assert r.reserve(0.0, 0) == pytest.approx(1.0)
        assert r.reserve(0.0, 0) == pytest.approx(2.0)   # queued behind the first
        assert r.reserve(5.0, 0) == pytest.approx(6.0)   # idle gap respected

    def test_busy_time_accounting(self):
        r = Resource("r", CostModel(latency=0.0, bandwidth=100.0))
        r.reserve(0.0, 50)
        r.reserve(0.0, 50)
        assert r.busy_time == pytest.approx(1.0)
        assert r.request_count == 2

    def test_reserve_duration(self):
        r = Resource("r", CostModel())
        end = r.reserve_duration(2.0, 0.5)
        assert end == pytest.approx(2.5)
        with pytest.raises(ValueError):
            r.reserve_duration(0.0, -1.0)

    def test_reset(self):
        r = Resource("r", CostModel(latency=1.0))
        r.reserve(0.0, 0)
        r.reset()
        assert r.next_free == 0.0
        assert r.busy_time == 0.0
        assert r.request_count == 0

    def test_thread_safety_of_accounting(self):
        """Eight engine tasks queueing on one resource: each waits out its
        own request, so every reservation is a sequence point that hands the
        resource to another task — and no request is lost."""
        r = Resource("r", CostModel(latency=0.001))
        n_tasks, per_task = 8, 50

        def worker():
            clock = current_task().clock
            for _ in range(per_task):
                clock.advance_to(r.reserve(clock.now, 0))

        engine = Engine()
        for _ in range(n_tasks):
            engine.spawn(worker)
        engine.run()
        assert engine.switches > n_tasks * (per_task - 1)  # the tasks did interleave
        assert r.request_count == n_tasks * per_task
        # All requests were serialised in virtual time.
        assert r.next_free == pytest.approx(n_tasks * per_task * 0.001)


class TestIOServer:
    def test_transfer_charges_time(self):
        server = IOServer(0, CostModel(latency=0.01, bandwidth=100.0))
        end = server.transfer(0.0, 100)
        assert end == pytest.approx(1.01)
        assert server.busy_time == pytest.approx(1.01)
        assert server.request_count == 1

    def test_concurrent_clients_share_bandwidth(self):
        """Two equal transfers arriving together finish at 1x and 2x the
        single-transfer time — the server serialises them."""
        server = IOServer(0, CostModel(latency=0.0, bandwidth=100.0))
        first = server.transfer(0.0, 100)
        second = server.transfer(0.0, 100)
        assert sorted([first, second]) == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_reset(self):
        server = IOServer(1, CostModel(latency=0.5))
        server.transfer(0.0, 0)
        server.reset()
        assert server.busy_time == 0.0


class TestServerPool:
    def test_pool_indexing(self):
        pool = ServerPool(3, CostModel())
        assert len(pool) == 3
        assert pool[2].index == 2

    def test_aggregate_accounting(self):
        pool = ServerPool(2, CostModel(latency=0.0, bandwidth=10.0))
        pool[0].transfer(0.0, 10)
        pool[1].transfer(0.0, 20)
        assert pool.aggregate_busy_time() == pytest.approx(3.0)
        assert pool.total_requests() == 2
        pool.reset()
        assert pool.aggregate_busy_time() == 0.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ServerPool(0, CostModel())
