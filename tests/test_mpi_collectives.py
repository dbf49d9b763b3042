"""Tests for collective operations on the communicator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM, LAND, LOR, SPMDExecutionError, run_spmd
from repro.mpi.cost import _Volume, payload_nbytes
from repro.mpi.errors import CollectiveMismatchError, CommunicatorError


class TestBarrierAndBcast:
    def test_barrier_completes(self):
        result = run_spmd(lambda comm: comm.barrier() or comm.rank, 5)
        assert result.returns == list(range(5))

    def test_bcast_from_root0(self):
        def fn(comm):
            data = {"k": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        result = run_spmd(fn, 4)
        assert all(r == {"k": [1, 2, 3]} for r in result.returns)

    def test_bcast_from_nonzero_root(self):
        def fn(comm):
            data = "payload" if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        result = run_spmd(fn, 4)
        assert all(r == "payload" for r in result.returns)

    def test_bcast_numpy_array(self):
        def fn(comm):
            data = np.arange(10) if comm.rank == 0 else None
            return comm.bcast(data, root=0).sum()

        result = run_spmd(fn, 3)
        assert all(r == 45 for r in result.returns)


class TestGatherScatter:
    def test_gather_at_root(self):
        def fn(comm):
            return comm.gather(comm.rank ** 2, root=0)

        result = run_spmd(fn, 4)
        assert result.returns[0] == [0, 1, 4, 9]
        assert all(r is None for r in result.returns[1:])

    def test_allgather(self):
        def fn(comm):
            return comm.allgather((comm.rank, comm.rank * 2))

        result = run_spmd(fn, 3)
        expected = [(0, 0), (1, 2), (2, 4)]
        assert all(r == expected for r in result.returns)

    def test_scatter(self):
        def fn(comm):
            data = [i * 100 for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(data, root=0)

        result = run_spmd(fn, 4)
        assert result.returns == [0, 100, 200, 300]

    def test_scatter_wrong_length_rejected(self):
        def fn(comm):
            data = [1, 2] if comm.rank == 0 else None
            return comm.scatter(data, root=0)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 3)
        assert any(isinstance(e, CommunicatorError) for e in excinfo.value.failures.values())

    def test_alltoall(self):
        def fn(comm):
            sendbuf = [f"{comm.rank}->{j}" for j in range(comm.size)]
            return comm.alltoall(sendbuf)

        result = run_spmd(fn, 3)
        assert result.returns[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length(self):
        def fn(comm):
            return comm.alltoall([1])

        with pytest.raises(SPMDExecutionError):
            run_spmd(fn, 3)

    def test_alltoallv_routes_variable_payloads(self):
        def fn(comm):
            # Rank r sends r pieces to each destination (non-uniform volume).
            sendbuf = [
                [(comm.rank, j)] * comm.rank for j in range(comm.size)
            ]
            return comm.alltoallv(sendbuf)

        result = run_spmd(fn, 3)
        assert result.returns[1] == [[], [(1, 1)], [(2, 1), (2, 1)]]

    def test_alltoallv_wrong_length(self):
        def fn(comm):
            return comm.alltoallv([b"x"])

        with pytest.raises(SPMDExecutionError):
            run_spmd(fn, 3)

    def test_alltoallv_charges_payload_bytes(self):
        from repro.mpi import CommCostModel

        def fn(comm):
            before = comm.clock.now
            payload = [
                [] if dest == comm.rank else [(0, b"x" * 1000)]
                for dest in range(comm.size)
            ]
            comm.alltoallv(payload)
            return comm.clock.now - before

        # byte_cost dominates: 1000 payload bytes -> 1e-5 s, far above the
        # per-operation latency of 1e-6 s an item-count charge would give.
        result = run_spmd(fn, 2, comm_cost=CommCostModel(latency=1e-6, byte_cost=1e-8))
        assert all(elapsed >= 1000 * 1e-8 for elapsed in result.returns)

    def test_alltoallv_self_data_is_free(self):
        from repro.mpi import CommCostModel

        def fn(comm):
            before = comm.clock.now
            payload = [
                [(0, b"x" * 100000)] if dest == comm.rank else []
                for dest in range(comm.size)
            ]
            got = comm.alltoallv(payload)
            assert got[comm.rank] == [(0, b"x" * 100000)]
            return comm.clock.now - before

        # Self-destined data moves by local copy: only latency is charged.
        result = run_spmd(fn, 2, comm_cost=CommCostModel(latency=1e-6, byte_cost=1e-8))
        assert all(elapsed < 100000 * 1e-8 for elapsed in result.returns)


class TestReductions:
    def test_allreduce_sum(self):
        result = run_spmd(lambda comm: comm.allreduce(comm.rank + 1, op=SUM), 4)
        assert all(r == 10 for r in result.returns)

    def test_allreduce_max_min(self):
        result = run_spmd(lambda comm: (comm.allreduce(comm.rank, op=MAX),
                                        comm.allreduce(comm.rank, op=MIN)), 5)
        assert all(r == (4, 0) for r in result.returns)

    def test_reduce_at_root(self):
        result = run_spmd(lambda comm: comm.reduce(2, op=PROD, root=1), 3)
        assert result.returns[1] == 8
        assert result.returns[0] is None

    def test_allreduce_elementwise_list(self):
        result = run_spmd(lambda comm: comm.allreduce([comm.rank, 1], op=SUM), 3)
        assert all(r == [3, 3] for r in result.returns)

    def test_allreduce_numpy(self):
        def fn(comm):
            return comm.allreduce(np.full(3, comm.rank), op=SUM).tolist()

        result = run_spmd(fn, 3)
        assert all(r == [3, 3, 3] for r in result.returns)

    def test_logical_ops(self):
        result = run_spmd(lambda comm: (comm.allreduce(comm.rank > 0, op=LAND),
                                        comm.allreduce(comm.rank > 0, op=LOR)), 3)
        assert all(r == (False, True) for r in result.returns)

    def test_scan_inclusive(self):
        result = run_spmd(lambda comm: comm.scan(comm.rank + 1, op=SUM), 4)
        assert result.returns == [1, 3, 6, 10]

    def test_exscan(self):
        result = run_spmd(lambda comm: comm.exscan(comm.rank + 1, op=SUM), 4)
        assert result.returns == [None, 1, 3, 6]


class TestSplitAndDup:
    def test_split_even_odd(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return (comm.rank, sub.rank, sub.size)

        result = run_spmd(fn, 6)
        for world_rank, sub_rank, sub_size in result.returns:
            assert sub_size == 3
            assert sub_rank == world_rank // 2

    def test_split_subcommunicator_collectives(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return sorted(sub.allgather(comm.rank))

        result = run_spmd(fn, 6)
        assert result.returns[0] == [0, 2, 4]
        assert result.returns[1] == [1, 3, 5]

    def test_split_with_key_reorders(self):
        def fn(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        result = run_spmd(fn, 4)
        assert result.returns == [3, 2, 1, 0]

    def test_dup_preserves_membership(self):
        def fn(comm):
            dup = comm.dup()
            return (dup.rank, dup.size, dup.allgather(dup.rank))

        result = run_spmd(fn, 3)
        for rank, (dup_rank, dup_size, gathered) in enumerate(result.returns):
            assert dup_rank == rank
            assert dup_size == 3
            assert gathered == [0, 1, 2]


class TestCollectiveSafety:
    def test_mismatched_collectives_detected(self):
        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allgather(1)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        assert any(
            isinstance(e, CollectiveMismatchError) for e in excinfo.value.failures.values()
        )

    def test_collective_clock_synchronisation(self):
        def fn(comm):
            comm.clock.advance(0.1 * comm.rank)
            comm.barrier()
            return comm.clock.now

        result = run_spmd(fn, 4)
        slowest = 0.1 * 3
        assert all(t >= slowest for t in result.returns)


def _reference_payload_nbytes(obj):
    """The definition the fast paths of ``payload_nbytes`` must agree with."""
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_reference_payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_reference_payload_nbytes(value) for value in obj.values())
    return 0


class TestPayloadNbytes:
    def test_fast_paths_count_what_the_reference_counts(self):
        class Sized(tuple):
            nbytes = 1000  # a tuple subclass exposing nbytes counts by it

        arr = np.arange(12, dtype=np.int64)
        payloads = [
            None, b"", b"abc", bytearray(b"abcd"), memoryview(arr), arr, arr[::2],
            _Volume(77), 5, "text", [], (), {},
            [b"ab", b"cde"], (b"ab", None, b"c"), [bytearray(3), b"x"],
            [[b"ab", [b"c", (b"de", arr)]], None, _Volume(5)],
            {0: b"ab", 1: [b"cd", arr], 2: {"k": _Volume(9)}},
            [(0, 8, b"12345678"), (8, 4, b"1234")],
            # The pieces of a shuffle: (offset, bytes) and (origin, offset,
            # bytes); then pieces holding what only the general definition
            # counts.
            [(0, b"abcd"), (4, b""), (9, b"xyz")], [(3, 0, b"abcd"), (1, 4, b"xy")],
            ((0, b"ab"), (2, b"c")), [(0, bytearray(b"abc")), (1, memoryview(arr)), (2, arr)],
            [(0, [b"ab", (1, b"cde")]), [(5, b"fgh")], (7, None, _Volume(11), "text")],
            [(0, Sized((b"ab",))), (Sized((b"cd",)), {"k": b"efg"})],
            Sized((b"ab", b"cd")), [Sized((b"ab",)), b"z"],
        ]
        for payload in payloads:
            assert payload_nbytes(payload) == _reference_payload_nbytes(payload), payload
        assert payload_nbytes([b"ab", b"cde"]) == 5
        assert payload_nbytes(Sized((b"ab", b"cd"))) == 1000
