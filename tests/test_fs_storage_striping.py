"""Tests for the byte store (provenance) and the striping layout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fs.storage import NO_WRITER, ByteStore
from repro.fs.striping import StripingLayout


class TestByteStore:
    def test_write_read_roundtrip(self):
        store = ByteStore()
        store.write(10, b"hello", writer=3)
        assert store.read(10, 5) == b"hello"
        assert store.size == 15

    def test_unwritten_bytes_read_zero(self):
        store = ByteStore()
        store.write(4, b"xy", writer=0)
        assert store.read(0, 8) == b"\x00\x00\x00\x00xy\x00\x00"

    def test_read_past_eof_zero_filled(self):
        store = ByteStore()
        store.write(0, b"ab", writer=0)
        assert store.read(0, 6) == b"ab\x00\x00\x00\x00"

    def test_growth_preserves_data(self):
        store = ByteStore(initial_capacity=16)
        store.write(0, b"A" * 10, writer=1)
        store.write(1000, b"B" * 10, writer=2)
        assert store.read(0, 10) == b"A" * 10
        assert store.read(1000, 10) == b"B" * 10
        assert store.size == 1010

    def test_provenance_tracking(self):
        store = ByteStore()
        store.write(0, b"AAAA", writer=0)
        store.write(2, b"BB", writer=1)
        assert list(store.writers(0, 4)) == [0, 0, 1, 1]
        assert store.distinct_writers(0, 4) == (0, 1)
        assert store.distinct_writers(0, 2) == (0,)

    def test_writer_runs(self):
        store = ByteStore()
        assert [a.tolist() for a in store.writer_runs(0, 10)] == [[], [], []]
        store.write(2, b"abc", writer=5)
        store.write(5, b"xy", writer=5)   # touches the run before it: one run
        store.write(9, b"q", writer=2)
        store.write(10, b"z")             # NO_WRITER: belongs to no run
        assert [a.tolist() for a in store.writer_runs(0, 100)] == [[2, 9], [7, 10], [5, 2]]
        assert [a.tolist() for a in store.writer_runs(3, 3)] == [[3], [6], [5]]
        assert [a.tolist() for a in store.writer_runs(7, 2)] == [[], [], []]
        assert [a.tolist() for a in store.writer_runs(50, 3)] == [[], [], []]
        assert [a.tolist() for a in store.writer_runs(3, 0)] == [[], [], []]
        with pytest.raises(ValueError):
            store.writer_runs(-1, 4)

    def test_unwritten_provenance(self):
        store = ByteStore()
        assert list(store.writers(0, 3)) == [NO_WRITER] * 3
        assert store.distinct_writers(0, 3) == ()

    def test_numpy_input(self):
        store = ByteStore()
        store.write(0, np.arange(5, dtype=np.uint8), writer=0)
        assert store.read(0, 5) == bytes(range(5))

    def test_empty_write_is_noop(self):
        store = ByteStore()
        assert store.write(100, b"", writer=0) == 0
        assert store.size == 0

    def test_negative_offset_rejected(self):
        store = ByteStore()
        with pytest.raises(ValueError):
            store.write(-1, b"a")
        with pytest.raises(ValueError):
            store.read(-1, 4)

    def test_truncate_shrinks_and_clears(self):
        store = ByteStore()
        store.write(0, b"ABCDEF", writer=2)
        store.truncate(3)
        assert store.size == 3
        store.write(0, b"", writer=0)
        assert store.read(0, 6) == b"ABC\x00\x00\x00"
        assert store.distinct_writers(3, 3) == ()

    def test_snapshot(self):
        store = ByteStore()
        store.write(0, b"xyz", writer=0)
        assert store.snapshot() == b"xyz"

    def test_overwrite_updates_provenance(self):
        store = ByteStore()
        store.write(0, b"AAAA", writer=0)
        store.write(0, b"BBBB", writer=5)
        assert store.distinct_writers(0, 4) == (5,)

    @given(st.lists(st.tuples(st.integers(0, 200), st.binary(min_size=0, max_size=30),
                              st.integers(0, 7)), max_size=15))
    def test_matches_reference_model(self, ops):
        """The store behaves like a plain big bytearray with writer tags."""
        store = ByteStore(initial_capacity=4)
        reference = bytearray(400)
        writers = [NO_WRITER] * 400
        size = 0
        for offset, data, writer in ops:
            store.write(offset, data, writer=writer)
            reference[offset : offset + len(data)] = data
            for i in range(len(data)):
                writers[offset + i] = writer
            if data:
                size = max(size, offset + len(data))
        assert store.size == size
        assert store.read(0, size) == bytes(reference[:size])
        assert list(store.writers(0, size)) == writers[:size]
        # The run-length form says the same, in maximal single-writer runs.
        starts, stops, who = store.writer_runs(0, 400)
        rebuilt = [NO_WRITER] * 400
        for a, b, w in zip(starts.tolist(), stops.tolist(), who.tolist()):
            assert a < b and w != NO_WRITER and rebuilt[a:b] == [NO_WRITER] * (b - a)
            rebuilt[a:b] = [w] * (b - a)
        assert rebuilt == writers
        assert all(
            a > b or w != v
            for a, b, w, v in zip(starts[1:].tolist(), stops.tolist(), who[1:].tolist(), who.tolist())
        )


class TestStripingLayout:
    def test_server_of(self):
        layout = StripingLayout(num_servers=4, stripe_size=10)
        assert layout.server_of(0) == 0
        assert layout.server_of(9) == 0
        assert layout.server_of(10) == 1
        assert layout.server_of(39) == 3
        assert layout.server_of(40) == 0

    def test_chunks_split_on_boundaries(self):
        layout = StripingLayout(num_servers=2, stripe_size=10)
        chunks = list(layout.chunks(5, 20))
        assert [(c.server, c.offset, c.length) for c in chunks] == [
            (0, 5, 5),
            (1, 10, 10),
            (0, 20, 5),
        ]

    def test_chunks_cover_request(self):
        layout = StripingLayout(num_servers=3, stripe_size=7)
        chunks = list(layout.chunks(4, 50))
        assert sum(c.length for c in chunks) == 50
        assert chunks[0].offset == 4
        assert chunks[-1].offset + chunks[-1].length == 54

    def test_bytes_per_server_balanced(self):
        layout = StripingLayout(num_servers=4, stripe_size=10)
        per_server = layout.bytes_per_server(0, 400)
        assert per_server == ((0, 100), (1, 100), (2, 100), (3, 100))

    def test_single_server_everything(self):
        layout = StripingLayout(num_servers=1, stripe_size=64)
        assert layout.bytes_per_server(123, 1000) == ((0, 1000),)

    def test_servers_touched(self):
        layout = StripingLayout(num_servers=8, stripe_size=10)
        assert layout.servers_touched(0, 25) == [0, 1, 2]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            StripingLayout(num_servers=0, stripe_size=10)
        with pytest.raises(ValueError):
            StripingLayout(num_servers=2, stripe_size=0)

    def test_zero_length_request(self):
        layout = StripingLayout(num_servers=2, stripe_size=10)
        assert list(layout.chunks(5, 0)) == []

    @given(st.integers(1, 8), st.integers(1, 64), st.integers(0, 500), st.integers(0, 300))
    def test_chunk_partition_property(self, servers, stripe, offset, nbytes):
        layout = StripingLayout(num_servers=servers, stripe_size=stripe)
        chunks = list(layout.chunks(offset, nbytes))
        # Chunks tile the byte range exactly, in order, without gaps.
        pos = offset
        for c in chunks:
            assert c.offset == pos
            assert c.length > 0
            assert c.server == layout.server_of(c.offset)
            # A chunk never crosses a stripe boundary.
            assert (c.offset // stripe) == ((c.offset + c.length - 1) // stripe)
            pos += c.length
        assert pos == offset + nbytes

    @given(st.integers(1, 5), st.integers(1, 16), st.integers(0, 200), st.integers(0, 200))
    def test_bytes_per_server_is_the_fold_of_chunks(self, servers, stripe, offset, nbytes):
        """The arithmetic answer equals walking the chunks — key order
        included: servers are reserved in that order, and every reservation
        is a scheduling point.  Draws cover empty ranges, one-server layouts,
        ranges inside one stripe unit and ranges wrapping the server ring."""
        layout = StripingLayout(num_servers=servers, stripe_size=stripe)
        folded = {}
        for c in layout.chunks(offset, nbytes):
            folded[c.server] = folded.get(c.server, 0) + c.length
        assert layout.bytes_per_server(offset, nbytes) == tuple(folded.items())

    def test_bytes_per_server_rejects_negative_arguments(self):
        layout = StripingLayout(num_servers=2, stripe_size=10)
        with pytest.raises(ValueError):
            layout.bytes_per_server(-1, 5)
        with pytest.raises(ValueError):
            layout.bytes_per_server(0, -5)
        with pytest.raises(ValueError):
            layout.bytes_per_server(-1, 0)
