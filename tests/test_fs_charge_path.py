"""The server-charge path equals the fold of the stripe chunks through the
cost model, and reads the file's layout on every request.

``ClientFileHandle._charge_transfer`` charges the ``(server, bytes)`` pairs
:meth:`~repro.fs.striping.StripingLayout.bytes_per_server` gives — one pair
for a request inside one stripe unit.  They must be what walking
:meth:`StripingLayout.chunks` gives: the property below draws a layout
(stripe size, server count), cost models and a sequence of direct writes,
writes on behalf of another rank, reads, idle gaps and restripes on one
handle, and after **every** request each
resource's ``busy_time``, ``next_free`` and ``request_count`` and the
client's clock must equal — bit for bit — a plain model that folds the
chunks per server, in first-touch order, through
:meth:`~repro.fs.costmodel.CostModel.service_time` and queues each server
and the client link from the same start instant.

``test_restripe_after_a_second_handle_is_open`` is the case the property's
restripe steps stand for: a ``striping_unit`` hint at ``Open`` replaces the
shared file's layout while another client's handle is already open, and that
handle's next request must charge the new layout's servers.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.fs import FSClient, FSConfig, ParallelFileSystem
from repro.fs.costmodel import CostModel
from repro.fs.striping import StripingLayout
from repro.io import Info, MPIFile
from repro.mpi import run_spmd
from tests.conftest import fast_fs_config

costs = st.builds(
    CostModel,
    latency=st.sampled_from([0.0, 1e-6, 5e-4, 0.1]),
    bandwidth=st.sampled_from([1e3, 1e6, 100e6, 1e9, float("inf")]),
)

#: A byte count, as is or as ``units`` stripe units and ``delta`` bytes of
#: the layout in force — so ranges end on, one byte before and one byte past
#: stripe boundaries as often as anywhere else.
def extents(max_units: int):
    return st.one_of(
        st.integers(0, 400),
        st.tuples(st.integers(0, max_units), st.integers(-2, 2)),
    )


def resolve(extent, stripe: int) -> int:
    if isinstance(extent, int):
        return extent
    units, delta = extent
    return max(0, units * stripe + delta)


requests = st.one_of(
    st.tuples(st.sampled_from(["write", "write_for", "read"]), extents(12), extents(2)),
    st.tuples(st.just("idle"), st.sampled_from([0.0, 1e-7, 1e-3, 0.5])),
    st.tuples(st.just("restripe"), st.integers(1, 64)),
)


class Model:
    """Resources as ``[next_free, busy_time, request_count]``, charged by
    folding the layout's chunks."""

    def __init__(self, link_cost: CostModel, server_cost: CostModel, servers: int) -> None:
        self.link_cost, self.server_cost = link_cost, server_cost
        self.link = [0.0, 0.0, 0]
        self.servers = [[0.0, 0.0, 0] for _ in range(servers)]
        self.now = 0.0

    @staticmethod
    def _occupy(resource, start: float, duration: float) -> float:
        end = max(start, resource[0]) + duration
        resource[0] = end
        resource[1] += duration
        resource[2] += 1
        return end

    def charge(self, layout: StripingLayout, offset: int, nbytes: int) -> None:
        if nbytes == 0:
            return
        start = self.now
        ends = [self._occupy(self.link, start, self.link_cost.service_time(nbytes))]
        per_server = {}
        for chunk in layout.chunks(offset, nbytes):
            per_server[chunk.server] = per_server.get(chunk.server, 0) + chunk.length
        for server, server_bytes in per_server.items():
            ends.append(self._occupy(self.servers[server], start,
                                     self.server_cost.service_time(server_bytes)))
        self.now = max([self.now] + ends)


def state(resource):
    return [resource.next_free, resource.busy_time, resource.request_count]


@given(st.integers(1, 5), st.integers(1, 64), costs, costs, st.lists(requests, max_size=25))
# Ranges that fill one stripe unit exactly, or miss it by one byte either way.
@example(3, 8, CostModel(1e-6, 1e9), CostModel(5e-4, 1e6), [
    ("write", 0, 8), ("write", 0, 9), ("read", 7, 2), ("write", 9, 7), ("read", 15, 1),
    ("write", 16, 7), ("restripe", 5), ("write_for", 4, 2), ("read", 5, 5), ("idle", 0.5),
    ("read", 4, 7),
])
def test_charges_equal_the_fold_of_the_chunks(servers, stripe, link_cost, server_cost, steps):
    fs = ParallelFileSystem(FSConfig(
        num_servers=servers, stripe_size=stripe, server_cost=server_cost,
        client_link_cost=link_cost,
    ))
    client = FSClient(fs, client_id=3)
    handle = client.open("f")
    model = Model(link_cost, server_cost, servers)
    for step in steps:
        kind = step[0]
        if kind == "idle":
            client.clock.advance(step[1])
            model.now += step[1]
            continue
        if kind == "restripe":
            handle.file.layout = StripingLayout(num_servers=servers, stripe_size=step[1])
            continue
        layout = handle.file.layout
        offset, nbytes = (resolve(extent, layout.stripe_size) for extent in step[1:])
        if kind == "read":
            assert handle.read(offset, nbytes, direct=True) == fs.lookup("f").store.read(
                offset, nbytes)
        else:
            writer = 1 if kind == "write_for" else None
            handle.write(offset, b"\x07" * nbytes, direct=True, writer=writer)
        model.charge(layout, offset, nbytes)
        assert state(client.link) == model.link
        assert [state(s.resource) for s in fs.servers.servers] == model.servers
        assert client.clock.now == model.now


def test_restripe_after_a_second_handle_is_open():
    """A ``striping_unit`` hint given at a later ``Open`` redirects the
    charges of a handle that was open before it."""
    fs = ParallelFileSystem(fast_fs_config(num_servers=4, client_caching=False))
    early = FSClient(fs, client_id=9).open("shared.dat")
    servers = [server.resource for server in fs.servers.servers]

    # 1024-byte stripes: [16, 32) lies on server 0.
    early.write(16, b"a" * 16)
    assert [s.request_count for s in servers] == [1, 0, 0, 0]

    def reopen(comm):
        f = MPIFile.Open(comm, "shared.dat", fs, info=Info({"striping_unit": "16"}))
        f.Close()

    run_spmd(reopen, 1)
    assert fs.lookup("shared.dat").layout.stripe_size == 16
    # 16-byte stripes: [16, 32) is unit 1, on server 1.
    early.write(16, b"b" * 16)
    assert [s.request_count for s in servers] == [1, 1, 0, 0]
    # And a range over two units charges both of the new layout's servers.
    early.read(40, 16)
    assert [s.request_count for s in servers] == [1, 1, 1, 1]
