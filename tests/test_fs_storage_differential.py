"""Memoryview ``ByteStore`` ≡ the numpy-copy store on generated sequences.

``repro.fs.storage.ByteStore`` copies bytes-like payloads into its data array
through a memoryview and returns a read as a slice's ``tobytes()`` padded with
zeros past end of file; the store it replaced turned every payload into a
``uint8`` array and built every read in a fresh zeroed array, and lives on,
verbatim, as ``tests/reference_storage.py``.  Hypothesis draws an initial
capacity (small, so the stores grow mid-sequence) and a sequence of writes,
reads and truncations — payloads as ``bytes``, ``bytearray``, contiguous and
strided ``memoryview``\\ s, typed ``memoryview``\\ s, ``uint8`` and ``int32``
ndarrays; zero-length writes, writes past end of file, reads inside,
straddling and past end of file, negative offsets — and after **every** step
both stores must return the same value (or raise the same error) and agree
on ``size``, ``snapshot``, ``read``, ``writers``, ``writer_runs`` and
``distinct_writers`` over the whole file and a drawn probe range.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module about a second, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import reference_storage
from repro.fs.storage import NO_WRITER, ByteStore

#: Offsets reach past the initial capacities and a few writes beyond EOF.
MAX_OFFSET = 96
MAX_LENGTH = 40


@st.composite
def payloads(draw):
    """One write's data, as one of the bytes-like kinds the store accepts."""
    kind = draw(st.sampled_from(
        ["bytes", "bytearray", "memoryview", "strided", "typed", "uint8", "int32"]
    ))
    if kind == "int32":
        values = draw(st.lists(st.integers(-2**31, 2**31 - 1), max_size=MAX_LENGTH // 4))
        return np.array(values, dtype=np.int32)
    raw = draw(st.binary(max_size=MAX_LENGTH))
    if kind == "bytes":
        return raw
    if kind == "bytearray":
        return bytearray(raw)
    if kind == "memoryview":
        return memoryview(raw)
    if kind == "strided":
        return memoryview(raw)[::2]
    if kind == "typed":
        return memoryview(raw[: len(raw) // 4 * 4]).cast("i")
    return np.frombuffer(raw, dtype=np.uint8)


offsets = st.one_of(st.integers(0, MAX_OFFSET), st.just(-1))
lengths = st.one_of(st.integers(0, MAX_LENGTH), st.just(-1))

operations = st.one_of(
    st.tuples(st.just("write"), offsets, payloads(), st.integers(NO_WRITER, 5)),
    st.tuples(st.just("read"), offsets, lengths),
    st.tuples(st.just("truncate"), st.integers(-1, MAX_OFFSET + MAX_LENGTH)),
)


def outcome(call):
    """``call()``'s value, or the type of what it raised."""
    try:
        return "ok", call()
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return "raised", type(error)


def observe(store, offset, nbytes):
    """Everything a reader can ask the store about one range."""
    starts, stops, writers = store.writer_runs(offset, nbytes)
    return (
        store.size,
        store.snapshot(),
        store.read(offset, nbytes),
        store.writers(offset, nbytes).tolist(),
        (starts.tolist(), stops.tolist(), writers.tolist()),
        store.distinct_writers(offset, nbytes),
    )


@given(
    st.integers(0, 40),
    st.lists(st.tuples(operations, st.integers(0, MAX_OFFSET), st.integers(0, MAX_LENGTH)),
             max_size=20),
)
def test_store_equals_the_numpy_copy_store(capacity, steps):
    store = ByteStore(initial_capacity=capacity)
    oracle = reference_storage.ByteStore(initial_capacity=capacity)
    for op, probe_offset, probe_length in steps:
        name, *args = op
        if name == "write":
            offset, data, writer = args
            got = outcome(lambda: store.write(offset, data, writer=writer))
            want = outcome(lambda: oracle.write(offset, data, writer=writer))
        else:
            got = outcome(lambda: getattr(store, name)(*args))
            want = outcome(lambda: getattr(oracle, name)(*args))
        assert got == want, op
        if got[0] == "ok" and name == "read":
            assert type(got[1]) is bytes
        # The whole file and a little past its end, then the drawn range.
        whole = oracle.size + 8
        assert observe(store, 0, whole) == observe(oracle, 0, whole), op
        assert observe(store, probe_offset, probe_length) == observe(
            oracle, probe_offset, probe_length
        ), op


def test_a_write_does_not_keep_the_callers_buffer():
    """The store copies: changing the payload afterwards changes nothing."""
    store = ByteStore()
    for data in (bytearray(b"abcd"), np.frombuffer(b"abcd", dtype=np.uint8).copy()):
        store.write(0, data, writer=1)
        data[:] = b"zzzz" if isinstance(data, bytearray) else 0
        assert store.read(0, 4) == b"abcd"
