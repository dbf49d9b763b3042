"""One lock-service body ≡ the two managers it replaced, on generated programs.

``repro.fs.lockmanager.LockManager`` writes the lock service once — argument
checks, the wait for conflicting holders, the grant time, the held and
released locks, the wait count — and a protocol only prices a grant:
``CentralLockManager`` one round trip, ``DistributedLockManager`` the GPFS
token rule.  The two complete managers it replaced live on, verbatim, as
``tests/reference_locks.py``.

Hypothesis draws a program (``generators.lock_programs``): 1–4 engine tasks
with drawn owners, start clocks and latencies, each issuing ``acquire`` /
``release`` / ``release_all`` / ``relinquish_tokens`` calls over
overlapping, nested, identical, empty and invalid ranges in both modes, then
a run of the same calls outside any engine, where a conflict raises instead
of waiting.  The program runs once on each implementation of the drawn
protocol.  Both must leave, call by call, the same grants (lock id, owner,
range, mode, grant time) in the same global order, the same raised errors
and messages, the same tasks parked to the end; and afterwards every granted
lock's release time, the released-lock history, ``held_locks()``, every
owner's tokens and every counter the oracle has.  ``wait_count`` is compared
on the central protocol only: the token oracle never counted a wait.

Example counts come from the Hypothesis profile (``tests/conftest.py``):
the default keeps this module a few seconds, ``HYPOTHESIS_PROFILE=ci`` runs
ten times as many.
"""

from __future__ import annotations

import pytest
from hypothesis import given

import reference_locks
from generators import lock_programs
from repro.core.engine import Engine, Task, current_task, sequence_point
from repro.core.intervals import IntervalSet
from repro.fs import CentralLockManager, DistributedLockManager
from repro.fs.errors import InvalidRequest, LockViolation
from repro.mpi.clock import VirtualClock

#: Per protocol: the manager under test, its oracle, and the counters the
#: oracle keeps.
PROTOCOLS = {
    "central": (CentralLockManager, reference_locks.CentralLockManager,
                ("wait_count", "shared_grant_count", "exclusive_grant_count")),
    "tokens": (DistributedLockManager, reference_locks.DistributedLockManager,
               ("local_grant_count", "token_acquisition_count", "revocation_count")),
}
OWNERS = range(4)


def snapshot(lock) -> tuple:
    return (lock.lock_id, lock.owner, (lock.interval.start, lock.interval.stop),
            lock.mode, lock.granted_at, lock.released_at)


def run(lm, program) -> dict:
    """Run ``program`` against the manager ``lm``; everything compared."""
    events, granted = [], []

    def attempt(who, call):
        try:
            return call()
        except (InvalidRequest, LockViolation) as exc:
            events.append((who, "raised", type(exc).__name__, str(exc)))
            return None

    def acquire(who, owner, now, span, mode):
        got = attempt(who, lambda: lm.acquire(owner, span[0], span[1], mode, now=now))
        if got is not None:
            lock, grant = got
            granted.append(lock)
            events.append((who, "granted", snapshot(lock), grant))
        return got

    def release(who, pool, pick, now):
        if pool:
            lock = pool[pick % len(pool)]
            attempt(who, lambda: lm.release(lock, now=now))
            events.append((who, "release", lock.lock_id))

    def relinquish(owner):
        # The oracle's central manager has no tokens to give back.
        if hasattr(lm, "relinquish_tokens"):
            lm.relinquish_tokens(owner)

    def body(index, owner, ops, release_at_end):
        clock = current_task().clock
        mine = []
        for op in ops:
            clock.advance(op[1])
            sequence_point()
            who = (index, op[0])
            if op[0] == "acquire":
                got = acquire(who, owner, clock.now, op[2], op[3])
                if got is not None:
                    clock.advance_to(got[1], waiting=True)
                    mine.append(got[0])
            elif op[0] == "release":
                release(who, mine, op[2], clock.now)
            elif op[0] == "release_all":
                events.append((who, lm.release_all(owner, now=clock.now)))
            else:
                relinquish(owner)
        if release_at_end:
            events.append(((index, "end"), lm.release_all(owner, now=clock.now)))

    engine = Engine()
    for index, (owner, start, ops, release_at_end) in enumerate(program["tasks"]):
        engine.spawn(
            lambda index=index, owner=owner, ops=ops, end=release_at_end: body(
                index, owner, ops, end
            ),
            clock=VirtualClock(now=start),
        )
    engine.run(timeout=30)
    assert not engine.timed_out
    states = [(t.state, t.clock.now) for t in engine.tasks]
    assert all(state in (Task.DONE, Task.CANCELLED) for state, _ in states)

    for op in program["off_engine"]:
        who = ("off", op[0])
        if op[0] == "acquire":
            acquire(who, op[1], op[2], op[3], op[4])
        elif op[0] == "release":
            release(who, granted, op[2], op[1])
        elif op[0] == "release_all":
            events.append((who, lm.release_all(op[1], now=op[2])))
        elif op[0] == "relinquish":
            relinquish(op[1])
        else:
            lm.reset_history()

    counters = PROTOCOLS[program["protocol"]][2]
    return {
        "events": events,
        "states": states,
        "granted": [snapshot(lock) for lock in granted],
        "history": [snapshot(lock) for lock in lm._history],
        "held": [snapshot(lock) for lock in lm.held_locks()],
        "tokens": [
            (lm.token_of(o).as_segments(),
             lm._read_tokens.get(o, IntervalSet.empty()).as_segments())
            for o in OWNERS
        ] if program["protocol"] == "tokens" else None,
        "counters": {name: getattr(lm, name) for name in counters},
    }


def assert_same_run(program) -> dict:
    """Run ``program`` on the manager under test and on its oracle; both
    must leave everything :func:`run` reports equal."""
    manager, oracle, _ = PROTOCOLS[program["protocol"]]
    mine = run(manager(**program["latencies"]), program)
    assert mine == run(oracle(**program["latencies"]), program)
    return mine


@given(program=lock_programs())
def test_one_body_equals_the_two_managers(program):
    assert_same_run(program)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_a_convoy_is_diffed_against_the_oracle(protocol):
    """A fixed program with a known convoy, so the comparison runs even when
    no drawn program parks a task: four owners take one range in turn."""
    latencies = {"central": {"request_latency": 0.25},
                 "tokens": {"acquire_latency": 0.25, "revoke_latency": 0.5}}[protocol]
    hold = [("acquire", 0.0, (0, 10), "exclusive"), ("release", 3.0, 0)]
    program = {"protocol": protocol, "latencies": latencies,
               "tasks": [(o, 0.0, hold, False) for o in OWNERS], "off_engine": []}
    mine = assert_same_run(program)
    assert [e[2][1] for e in mine["events"] if e[1] == "granted"] == [0, 1, 2, 3]
