"""The hint table (``core/registry.py::HINTS``) as a specification.

A strategy built from an ``Info`` — or from a tuning decision — holds the
tunables written out below for every registered strategy, hint by hint:
absent, positive, zero, negative and malformed integer hints, ``plan_cache``
in every spelling ``Info.get_bool`` accepts.  The expectations are stated
per strategy here, not computed by the code under test.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.autotune import TuningDecision
from repro.core.rank_ordering import HIGHER_RANK_WINS
from repro.core.registry import default_registry
from repro.io import Info, InvalidHint

#: The attributes compared on a built strategy, in this order.
ATTRS = ("num_aggregators", "cb_buffer_size", "ranks_per_node", "plan_cache", "policy", "use_cache")
#: Stands for an attribute the instance does not have.
MISSING = "missing"

#: The integer strategy hints, in the order a strategy parses them.
INT_HINTS = ("cb_nodes", "cb_buffer_size", "cb_ppn")
TRUE_SPELLINGS = ("true", "1", "yes", "on", "enable", "enabled", "TRUE", " On ", "Yes")
FALSE_SPELLINGS = ("false", "0", "no", "off", "disable", "disabled", "FALSE", " Off ", "No")

#: Every integer strategy hint absent.
ABSENT_INTS = {key: ("absent", None) for key in INT_HINTS}

#: One integer hint's draw: ``(kind, text)``.
int_draws = st.one_of(
    st.just(("absent", None)),
    st.integers(1, 64).map(lambda n: ("positive", str(n))),
    st.just(("zero", "0")),
    st.integers(-64, -1).map(lambda n: ("negative", str(n))),
    st.sampled_from(["four", "1.5", "", "0x10"]).map(lambda text: ("malformed", text)),
)
plan_cache_draws = st.one_of(
    st.just(("absent", None)),
    st.sampled_from(TRUE_SPELLINGS).map(lambda text: ("true", text)),
    st.sampled_from(FALSE_SPELLINGS).map(lambda text: ("false", text)),
    st.sampled_from(["maybe", "2", ""]).map(lambda text: ("malformed", text)),
)


def _count(draw):
    """What a strategy's integer tunable reads for one draw: the positive
    count, else ``None`` (absent)."""
    kind, text = draw
    return int(text) if kind == "positive" else None


def _expected(name, ints, plan_cache):
    """``(attrs, invalid_key)`` for ``name`` built from the drawn hints:
    ``invalid_key`` names the first malformed hint the strategy reads (then
    the build raises ``InvalidHint``), else it is ``None``."""
    cb_nodes, cb_buffer, cb_ppn = (_count(ints[key]) for key in INT_HINTS)
    malformed = [key for key in INT_HINTS if ints[key][0] == "malformed"]
    if name in ("none", "locking", "graph-coloring"):
        return (MISSING, MISSING, MISSING, MISSING, MISSING, True), None
    if name == "rank-ordering":
        return (MISSING, MISSING, MISSING, MISSING, HIGHER_RANK_WINS, True), None
    if name == "two-phase":
        bad = [key for key in malformed if key != "cb_ppn"]
        return (cb_nodes, cb_buffer, 1, MISSING, HIGHER_RANK_WINS, True), (bad or [None])[0]
    if name == "two-phase-hier":
        attrs = (cb_nodes, cb_buffer, cb_ppn or 8, MISSING, HIGHER_RANK_WINS, True)
        return attrs, (malformed or [None])[0]
    assert name == "auto"
    kind = plan_cache[0]
    bad = "plan_cache" if kind == "malformed" else None
    return (MISSING, MISSING, MISSING, kind != "false", MISSING, True), bad


def _attrs(strategy):
    return tuple(getattr(strategy, attr, MISSING) for attr in ATTRS)


class TestCreateFromInfo:
    @given(
        ints=st.fixed_dictionaries({key: int_draws for key in INT_HINTS}),
        plan_cache=plan_cache_draws,
        file_hints=st.booleans(),
    )
    def test_each_strategy_reads_exactly_its_tunables(self, ints, plan_cache, file_hints):
        info = Info({key: text for key, (_, text) in ints.items() if text is not None})
        if plan_cache[1] is not None:
            info.set("plan_cache", plan_cache[1])
        if file_hints:
            # Hints the file reads never reach a strategy, malformed or not.
            info.set("striping_unit", "four")
            info.set("read_ahead", "maybe")
        for name in default_registry.names():
            attrs, invalid = _expected(name, ints, plan_cache)
            if invalid is not None:
                with pytest.raises(InvalidHint, match=invalid):
                    default_registry.create_from_info(name, info)
                continue
            strategy = default_registry.create_from_info(name, info)
            assert type(strategy) is default_registry.get(name)
            assert _attrs(strategy) == attrs, name


class TestDecisionDelegate:
    @given(
        cb_nodes=st.sampled_from([None, 0, -2, 1, 6]),
        cb_buffer_size=st.sampled_from([None, 0, -4096, 1024, 65536]),
        cb_ppn=st.sampled_from([None, 0, -1, 1, 4]),
        read_ahead=st.sampled_from([None, True, False]),
    )
    def test_delegate_gets_the_tunables_its_constructor_accepts(
        self, cb_nodes, cb_buffer_size, cb_ppn, read_ahead
    ):
        for name in default_registry.names():
            decision = TuningDecision(
                strategy=name,
                cb_nodes=cb_nodes,
                cb_ppn=cb_ppn,
                cb_buffer_size=cb_buffer_size,
                read_ahead=read_ahead,
            )
            # A decision's values pass as they are: a non-positive one is the
            # constructor's to reject.  Tunables the class lacks are dropped.
            if name == "two-phase":
                passed = (cb_nodes, cb_buffer_size)
                attrs = (cb_nodes, cb_buffer_size, 1, MISSING, HIGHER_RANK_WINS, True)
            elif name == "two-phase-hier":
                passed = (cb_nodes, cb_buffer_size, cb_ppn)
                attrs = (cb_nodes, cb_buffer_size, cb_ppn or 8, MISSING, HIGHER_RANK_WINS, True)
            else:
                passed = ()
                attrs, _ = _expected(name, ABSENT_INTS, ("absent", None))
            if any(value is not None and value <= 0 for value in passed):
                with pytest.raises(ValueError, match="must be positive"):
                    decision.delegate()
                continue
            strategy = decision.delegate()
            assert type(strategy) is default_registry.get(name)
            assert _attrs(strategy) == attrs, name
            assert decision.delegate() is strategy
