"""Run-length cache ≡ mask cache on generated operation sequences.

``repro.fs.cache`` keeps a page's dirty and valid bytes as run lists; the
cache it replaced kept them as per-byte numpy masks and lives on, verbatim, as
``tests/reference_cache.py``.  Virtual time is a function of the *sequence* of
server calls a cache issues, so "same behaviour" is checked at that level:
Hypothesis draws a cache policy (pages of 8–64 bytes, 1–4 of them so eviction
happens mid-sequence, read-ahead 0–2, write-behind on or off) and a sequence
of writes, reads, flushes, invalidations, writes by *another* client straight
to the server, and a final close — segments straddling page boundaries,
touching or overlapping the previous write on either side, reaching past the
end of the backing file — and after **every** step both caches must have
issued identical ``store`` and ``fetch`` calls, returned identical bytes, and
agree on every ``CacheStats`` counter, ``cached_pages``, ``dirty_bytes()`` and
the resident pages themselves (LRU order, bytes, dirty and valid runs).

The public methods of ``repro.fs.cache`` drive step-form generators
(:func:`repro.core.engine.drive`); called outside any engine task, as above,
that is only the exhaust-the-iterator path.  ``test_driven_cache_equals_
yielding_cache_inside_an_engine`` runs drawn sequences on 2–4 engine tasks
sharing one server whose ``store`` / ``fetch`` pass a sequence point and
then advance the calling task's clock: the oracle's plain loops yield there
by thread switch, the new cache's steps are advanced inline by whichever
thread holds the engine — and the **global** order of server calls across
tasks, their virtual times, the bytes and every task's ``CacheStats`` must
be identical.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import reference_cache
from generators import cache_programs
from repro.core.engine import Engine, Task, current_task, sequence_point
from repro.fs.cache import CachePolicy, ClientCache, _add_run
from repro.mpi.clock import VirtualClock

#: Offsets and lengths reach a few pages of the largest page size.
MAX_OFFSET = 160
MAX_LENGTH = 80


class Server:
    """A backing file that logs every call the cache makes.  A fetch past the
    end of file comes back short, as a real server's would."""

    def __init__(self, initial: bytes) -> None:
        self.data = bytearray(initial)
        self.stores = []
        self.fetches = []

    def poke(self, offset: int, data: bytes) -> None:
        """Another client's write: changes the file, appears in no log."""
        if len(self.data) < offset + len(data):
            self.data.extend(bytes(offset + len(data) - len(self.data)))
        self.data[offset : offset + len(data)] = data

    def store(self, offset: int, data: bytes) -> None:
        assert type(data) is bytes
        self.stores.append((offset, data))
        self.poke(offset, data)

    def fetch(self, offset: int, nbytes: int) -> bytes:
        self.fetches.append((offset, nbytes))
        return bytes(self.data[offset : offset + nbytes])


policies = st.builds(
    CachePolicy,
    page_size=st.integers(8, 64),
    max_pages=st.integers(1, 4),
    read_ahead_pages=st.integers(0, 2),
    write_behind=st.booleans(),
)

payloads = st.binary(min_size=0, max_size=MAX_LENGTH)
offsets = st.integers(0, MAX_OFFSET)

operations = st.one_of(
    st.tuples(st.just("write"), offsets, payloads),
    # A write placed against the previous one: starting where it stopped,
    # stopping where it started, or overlapping its start.
    st.tuples(st.just("write_after"), payloads),
    st.tuples(st.just("write_before"), payloads),
    st.tuples(st.just("write_near"), st.integers(-8, 8), payloads),
    st.tuples(st.just("read"), offsets, st.integers(0, MAX_LENGTH)),
    st.tuples(st.just("poke"), offsets, payloads),
    st.tuples(st.just("flush")),
    st.tuples(st.just("invalidate")),
)


def placed(ops, close):
    """The drawn operations as ``(method, args)``, every relative write placed
    against the write before it, and the final ``close`` when drawn."""
    last_start = last_end = 0
    for op, *args in ops + ([("close",)] if close else []):
        if op == "write_after":
            op, args = "write", [last_end, *args]
        elif op == "write_before":
            op, args = "write", [max(0, last_start - len(args[0])), *args]
        elif op == "write_near":
            op, args = "write", [max(0, last_start + args[0]), args[1]]
        if op == "write":
            last_start, last_end = args[0], args[0] + len(args[1])
        yield op, args


def assert_same_pages(new, old) -> None:
    """Same resident pages in the same LRU order, and each page's run lists
    are exactly the maximal runs of the oracle's masks — so a divergence
    shows at the step that causes it, not at a later eviction."""
    assert list(new._pages) == list(old._pages)
    for page_no, page in new._pages.items():
        ref = old._pages[page_no]
        assert page.dirty == old._dirty_runs(ref.dirty)
        assert page.valid == old._dirty_runs(ref.valid)
        assert bytes(page.data) == ref.data.tobytes()


@given(
    policy=policies,
    initial=st.binary(max_size=MAX_OFFSET),
    ops=st.lists(operations, max_size=24),
    close=st.booleans(),
)
def test_run_cache_equals_mask_cache(policy, initial, ops, close):
    new_server, old_server = Server(initial), Server(initial)
    new = ClientCache(new_server.fetch, new_server.store, policy)
    old = reference_cache.ClientCache(old_server.fetch, old_server.store, policy)
    sides = ((new, new_server), (old, old_server))
    for op, args in placed(ops, close):
        if op == "poke":
            returned = [server.poke(*args) for _, server in sides]
        else:
            returned = [getattr(cache, op)(*args) for cache, _ in sides]
        assert returned[0] == returned[1]
        assert type(returned[0]) is type(returned[1])
        assert new_server.stores == old_server.stores
        assert new_server.fetches == old_server.fetches
        assert new_server.data == old_server.data
        assert new.stats == old.stats
        assert new.cached_pages == old.cached_pages
        assert new.dirty_bytes() == old.dirty_bytes()
        assert type(new.dirty_bytes()) is int
        assert_same_pages(new, old)


@given(st.lists(st.tuples(st.integers(0, 32), st.integers(1, 12)), max_size=12))
def test_run_list_is_the_maximal_runs_of_the_mask(inserts):
    """The run list after any inserts is what the oracle reads off a byte
    mask painted with the same ranges: sorted, disjoint, touching runs
    merged."""
    runs, mask = [], np.zeros(48, dtype=bool)
    for lo, length in inserts:
        _add_run(runs, lo, lo + length)
        mask[lo : lo + length] = True
        assert runs == reference_cache.ClientCache._dirty_runs(mask)


class TimedServer(Server):
    """One backing file shared by every task of an engine.  A call passes a
    sequence point, is logged with its caller and virtual time, and then
    costs the caller virtual time — an event, as on the real servers."""

    def __init__(self, initial: bytes) -> None:
        super().__init__(initial)
        self.calls = []

    def _event(self, kind: str, offset: int, payload) -> None:
        sequence_point()
        task = current_task()
        self.calls.append((kind, task.tid, task.clock.now, offset, payload))
        task.clock.advance(1.0 + offset % 3)

    def store(self, offset: int, data: bytes) -> None:
        self._event("store", offset, data)
        super().store(offset, data)

    def fetch(self, offset: int, nbytes: int) -> bytes:
        self._event("fetch", offset, nbytes)
        return super().fetch(offset, nbytes)


def run_on_engine(cache_class, policy, initial, program):
    """Every task of ``program`` runs its operations on a cache of its own in
    front of one shared :class:`TimedServer`."""
    engine = Engine()
    server = TimedServer(initial)
    caches, returned = [], []

    def body(cache, ops, close, out):
        for op, args in placed(ops, close):
            target = server if op == "poke" else cache
            out.append(getattr(target, op)(*args))

    for rank, (ops, close) in enumerate(program):
        caches.append(cache_class(server.fetch, server.store, policy))
        returned.append([])
        # Staggered starts: the tasks are never all tied.
        engine.spawn(
            lambda args=(caches[-1], ops, close, returned[-1]): body(*args),
            clock=VirtualClock(now=0.5 * rank),
        )
    engine.run(timeout=60.0)
    assert [t.state for t in engine.tasks] == [Task.DONE] * len(program), [
        t.traceback_text for t in engine.tasks
    ]
    return server, caches, returned, [t.clock.now for t in engine.tasks], engine.switches


@given(
    policy=policies,
    initial=st.binary(max_size=MAX_OFFSET),
    program=cache_programs(operations),
)
def test_driven_cache_equals_yielding_cache_inside_an_engine(policy, initial, program):
    new = run_on_engine(ClientCache, policy, initial, program)
    old = run_on_engine(reference_cache.ClientCache, policy, initial, program)
    (new_server, new_caches, new_returned, new_clocks, new_switches) = new
    (old_server, old_caches, old_returned, old_clocks, old_switches) = old
    assert new_server.calls == old_server.calls
    assert new_server.data == old_server.data
    assert new_returned == old_returned
    assert new_clocks == old_clocks
    assert new_switches <= old_switches
    for mine, oracle in zip(new_caches, old_caches):
        assert mine.stats == oracle.stats
        assert mine.cached_pages == oracle.cached_pages
        assert mine.dirty_bytes() == oracle.dirty_bytes()
        assert_same_pages(mine, oracle)
