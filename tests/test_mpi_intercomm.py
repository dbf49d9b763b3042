"""Tests for groups, Comm_split degenerate cases and inter-communicators."""

from __future__ import annotations

import pytest

from repro.mpi import (
    PROC_NULL,
    ROOT,
    Group,
    SPMDExecutionError,
    Waitall,
    Waitany,
    run_spmd,
)
from repro.mpi.errors import (
    CollectiveMismatchError,
    CommunicatorError,
    RankError,
    TagError,
)


def _failures(excinfo):
    return list(excinfo.value.failures.values())


class TestGroup:
    def test_incl_orders_and_translates(self):
        g = Group(range(8)).Incl([5, 1, 6])
        assert g.size == 3
        assert g.ranks == (5, 1, 6)
        assert g.translate(0) == 5
        assert g.rank_of(6) == 2
        assert g.rank_of(3) is None
        assert 1 in g and 2 not in g

    def test_excl_keeps_original_order(self):
        g = Group(range(6)).Excl([0, 3])
        assert g.ranks == (1, 2, 4, 5)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(CommunicatorError):
            Group([1, 2, 1])

    def test_translate_out_of_range(self):
        with pytest.raises(RankError):
            Group([4, 2]).translate(2)


class TestCreateGroup:
    """``Communicator.Create_group`` (``MPI_Comm_create``): a communicator
    over a group's members, ``None`` elsewhere."""

    GROUP = (4, 1, 3)

    def test_members_are_ranked_in_group_order(self):
        def fn(comm):
            sub = comm.Create_group(comm.Get_group().Incl(self.GROUP))
            return None if sub is None else (sub.size, sub.rank)

        result = run_spmd(fn, 6)
        for position, world in enumerate(self.GROUP):
            assert result.returns[world] == (3, position)

    def test_non_members_get_none(self):
        def fn(comm):
            return comm.Create_group(comm.Get_group().Incl(self.GROUP))

        result = run_spmd(fn, 6)
        assert [r for r in range(6) if result.returns[r] is None] == [0, 2, 5]

    def test_a_collective_on_the_new_communicator_completes(self):
        def fn(comm):
            sub = comm.Create_group(comm.Get_group().Incl(self.GROUP))
            if sub is None:
                return None
            sub.barrier()
            return sub.allgather(comm.rank), sub.bcast(comm.rank, root=0)

        result = run_spmd(fn, 6)
        for world in self.GROUP:
            assert result.returns[world] == ([4, 1, 3], 4)

    def test_a_rank_outside_the_communicator_raises(self):
        def fn(comm):
            return comm.Create_group(Group([0, comm.size]))

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 3)
        failures = _failures(excinfo)
        assert len(failures) == 3
        assert all(isinstance(e, RankError) for e in failures)
        assert "rank 3 outside communicator of size 3" in str(failures[0])


class TestCommSplitDegenerates:
    def test_every_rank_its_own_color(self):
        # P singleton communicators: each is a fully working world of one.
        def fn(comm):
            sub = comm.Comm_split(color=comm.rank)
            return (sub.size, sub.rank, sub.allgather(comm.rank))

        result = run_spmd(fn, 6)
        assert result.returns == [(1, 0, [r]) for r in range(6)]

    def test_single_color_is_identity_with_parent(self):
        # One colour, default key: same size, same rank order as the parent,
        # and the split communicator works for both p2p and collectives.
        def fn(comm):
            sub = comm.Comm_split(color=0)
            assert (sub.size, sub.rank) == (comm.size, comm.rank)
            if sub.rank == 0:
                sub.send("hello", dest=sub.size - 1, tag=7)
                got = None
            elif sub.rank == sub.size - 1:
                got = sub.recv(source=0, tag=7)
            else:
                got = None
            return (sub.allgather(sub.rank), got)

        result = run_spmd(fn, 5)
        assert all(r[0] == list(range(5)) for r in result.returns)
        assert result.returns[-1][1] == "hello"

    def test_key_reverses_rank_order(self):
        def fn(comm):
            sub = comm.Comm_split(color=0, key=-comm.rank)
            return sub.rank

        result = run_spmd(fn, 4)
        assert result.returns == [3, 2, 1, 0]

    def test_split_of_split(self):
        # World -> halves -> quarters; ranks renumber consistently each time.
        def fn(comm):
            half = comm.Comm_split(color=comm.rank // 4)
            quarter = half.Comm_split(color=half.rank // 2)
            return (half.size, half.rank, quarter.size, quarter.rank,
                    quarter.allgather(comm.rank))

        result = run_spmd(fn, 8)
        for world, (hsize, hrank, qsize, qrank, peers) in enumerate(result.returns):
            assert (hsize, qsize) == (4, 2)
            assert hrank == world % 4
            assert qrank == world % 2
            base = (world // 2) * 2
            assert peers == [base, base + 1]

    def test_color_none_returns_none(self):
        def fn(comm):
            sub = comm.Comm_split(color=None if comm.rank % 2 else 0)
            return None if sub is None else sub.allgather(comm.rank)

        result = run_spmd(fn, 6)
        assert result.returns[1] is result.returns[3] is result.returns[5] is None
        assert result.returns[0] == [0, 2, 4]

    def test_waitall_mixes_parent_and_split_requests(self):
        # One Waitall draining receives posted on the parent world AND on a
        # split half, with the same tag in flight on both: the fresh split
        # mailboxes must keep the two namespaces apart.
        def fn(comm):
            half = comm.Comm_split(color=comm.rank // 2)
            peer_world = comm.rank ^ 2
            peer_half = half.rank ^ 1
            comm.send(("world", comm.rank), dest=peer_world, tag=3)
            half.send(("half", comm.rank), dest=peer_half, tag=3)
            reqs = [comm.irecv(source=peer_world, tag=3),
                    half.irecv(source=peer_half, tag=3)]
            world_msg, half_msg = Waitall(reqs)
            return (world_msg, half_msg)

        result = run_spmd(fn, 4)
        for rank, (world_msg, half_msg) in enumerate(result.returns):
            assert world_msg == ("world", rank ^ 2)
            assert half_msg == ("half", rank ^ 1)

    def test_waitany_mixes_parent_and_split_requests(self):
        def fn(comm):
            half = comm.Comm_split(color=comm.rank // 2)
            comm.send("w", dest=comm.rank ^ 2, tag=1)
            half.send("h", dest=half.rank ^ 1, tag=1)
            reqs = [comm.irecv(source=comm.rank ^ 2, tag=1),
                    half.irecv(source=half.rank ^ 1, tag=1)]
            seen = []
            while any(reqs):
                idx = Waitany(reqs)
                seen.append(reqs[idx].wait())
                reqs[idx] = None
            return sorted(seen)

        result = run_spmd(fn, 4)
        assert all(r == ["h", "w"] for r in result.returns)


def _bridge(comm, tag=5):
    """Split the world in halves and bridge them; returns (half, intercomm)."""
    side = comm.rank // (comm.size // 2)
    half = comm.Comm_split(color=side)
    remote_leader = 0 if side else comm.size // 2
    return half, half.Create_intercomm(0, comm, remote_leader, tag=tag)

class TestIntercomm:
    def test_sizes_and_groups(self):
        def fn(comm):
            half, inter = _bridge(comm)
            return (inter.rank, inter.size, inter.Get_remote_size(),
                    inter.Get_group().ranks, inter.Get_remote_group().ranks)

        result = run_spmd(fn, 6)
        for world, (rank, size, remote, local_g, remote_g) in enumerate(result.returns):
            assert rank == world % 3
            assert size == 3 and remote == 3
            assert local_g == (0, 1, 2) and remote_g == (0, 1, 2)

    def test_p2p_uses_remote_rank_namespace(self):
        def fn(comm):
            half, inter = _bridge(comm)
            # Each rank sends to its mirror in the other group.
            inter.send(("from", comm.rank), dest=inter.rank, tag=2)
            return inter.recv(source=inter.rank, tag=2)

        result = run_spmd(fn, 8)
        for world, got in enumerate(result.returns):
            mirror = (world + 4) % 8
            assert got == ("from", mirror)

    def test_p2p_is_causal_in_virtual_time(self):
        # The receiver's clock must never show a delivery before the sender
        # issued it, even if the receiver did no other work.
        def fn(comm):
            half, inter = _bridge(comm)
            if comm.rank == 0:
                comm.clock.advance(1.0)  # sender runs far ahead
                inter.send("late", dest=0, tag=9)
                return None
            if comm.rank == comm.size // 2:
                inter.recv(source=0, tag=9)
                return comm.clock.now
            return None

        result = run_spmd(fn, 4)
        assert result.returns[2] >= 1.0

    def test_irecv_wait_is_causal_in_virtual_time(self):
        def fn(comm):
            half, inter = _bridge(comm)
            if comm.rank == 0:
                comm.clock.advance(1.0)
                inter.send("late", dest=0, tag=9)
                return None
            if comm.rank == comm.size // 2:
                request = inter.irecv(source=0, tag=9)
                request.test()  # completes here if the message is already in
                assert request.wait() == "late"
                return comm.clock.now
            return None

        result = run_spmd(fn, 4)
        assert result.returns[2] >= 1.0

    def test_bcast_root_and_proc_null(self):
        def fn(comm):
            half, inter = _bridge(comm)
            side = comm.rank // (comm.size // 2)
            if side == 0:
                root = ROOT if inter.rank == 1 else PROC_NULL
                return inter.bcast("payload" if root == ROOT else None, root=root)
            return inter.bcast(None, root=1)

        result = run_spmd(fn, 6)
        # Origin root returns its own object, its peers None, receivers all get it.
        assert result.returns[0] is None and result.returns[2] is None
        assert result.returns[1] == "payload"
        assert result.returns[3:] == ["payload"] * 3

    def test_bcast_root_disagreement_detected(self):
        def fn(comm):
            half, inter = _bridge(comm)
            side = comm.rank // (comm.size // 2)
            if side == 0:
                root = ROOT if inter.rank == 0 else PROC_NULL
                return inter.bcast("x" if root == ROOT else None, root=root)
            # The receiving group names the wrong origin rank.
            return inter.bcast(None, root=1)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 4)
        assert any(isinstance(e, CollectiveMismatchError) for e in _failures(excinfo))

    def test_allgather_returns_remote_contributions(self):
        def fn(comm):
            half, inter = _bridge(comm)
            return inter.allgather(("w", comm.rank))

        result = run_spmd(fn, 6)
        assert result.returns[0] == [("w", 3), ("w", 4), ("w", 5)]
        assert result.returns[5] == [("w", 0), ("w", 1), ("w", 2)]

    def test_merge_low_then_high(self):
        def fn(comm):
            half, inter = _bridge(comm)
            side = comm.rank // (comm.size // 2)
            merged = inter.Merge(high=(side == 1))
            return merged.allgather(comm.rank)[merged.rank] == comm.rank and merged.rank

        result = run_spmd(fn, 6)
        # Low group (world 0-2) keeps ranks 0-2, high group gets 3-5.
        assert [r for r in result.returns] == [0, 1, 2, 3, 4, 5]

    def test_merge_high_first_side_flipped(self):
        def fn(comm):
            half, inter = _bridge(comm)
            side = comm.rank // (comm.size // 2)
            merged = inter.Merge(high=(side == 0))
            return merged.rank

        result = run_spmd(fn, 6)
        assert result.returns == [3, 4, 5, 0, 1, 2]

    def test_same_tag_does_not_cross_match_parent_traffic(self):
        # Regression: a message in flight on the parent world with the same
        # tag as a bridge message must never satisfy a bridge receive (and
        # vice versa).  Leave the parent message unreceived until after the
        # bridge receive resolves, so a broken implementation would match it.
        TAG = 13
        def fn(comm):
            half, inter = _bridge(comm, tag=0)
            if comm.rank == 0:
                comm.send("parent-traffic", dest=comm.size // 2, tag=TAG)
                inter.send("bridge-traffic", dest=0, tag=TAG)
                return None
            if comm.rank == comm.size // 2:
                over_bridge = inter.recv(source=0, tag=TAG)
                on_parent = comm.recv(source=0, tag=TAG)
                return (over_bridge, on_parent)
            return None

        result = run_spmd(fn, 4)
        assert result.returns[2] == ("bridge-traffic", "parent-traffic")

    def test_split_comm_same_tag_isolation(self):
        # Same regression one level down: parent vs split-communicator
        # mailboxes with an identical (source, tag) signature in flight.
        def fn(comm):
            sub = comm.Comm_split(color=0)  # identity membership, new mailboxes
            if comm.rank == 0:
                comm.send("on-parent", dest=1, tag=4)
                sub.send("on-split", dest=1, tag=4)
                return None
            if comm.rank == 1:
                got_split = sub.recv(source=0, tag=4)
                got_parent = comm.recv(source=0, tag=4)
                return (got_split, got_parent)
            return None

        result = run_spmd(fn, 2)
        assert result.returns[1] == ("on-split", "on-parent")

    def test_negative_tag_rejected(self):
        def fn(comm):
            half = comm.Comm_split(color=comm.rank // 2)
            remote_leader = 0 if comm.rank >= 2 else 2
            return half.Create_intercomm(0, comm, remote_leader, tag=-1)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 4)
        assert any(isinstance(e, TagError) for e in _failures(excinfo))

    def test_same_process_leaders_rejected(self):
        def fn(comm):
            half = comm.Comm_split(color=0)
            # Both "groups" name world rank 0 as leader: not disjoint.
            return half.Create_intercomm(0, comm, 0, tag=1)

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 2)
        assert any(isinstance(e, CommunicatorError) for e in _failures(excinfo))

    def test_send_to_out_of_range_remote_rank(self):
        def fn(comm):
            half, inter = _bridge(comm)
            if comm.rank == 0:
                inter.send("x", dest=inter.remote_size, tag=0)
            inter.barrier()

        with pytest.raises(SPMDExecutionError) as excinfo:
            run_spmd(fn, 4)
        assert any(isinstance(e, RankError) for e in _failures(excinfo))
