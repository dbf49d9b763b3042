"""Tests for the pattern-aware adaptive collective I/O layer (``auto``).

Covers the three layers of :mod:`repro.core.autotune` — the pattern
classifier, the self-tuning hint engine, and the cross-collective plan
cache — plus the ``Info.get_bool`` accessor the adaptive hints parse with.
The plan-cache tests pin the safety contract: cached replays must produce
byte- and provenance-identical files, and any ``Set_view``/hint change must
invalidate the cached plan.
"""

from __future__ import annotations

import pytest

from repro.core import autotune
from repro.core.autotune import (
    AutoStrategy,
    HintEngine,
    MachineModel,
    PatternSignature,
    TuningDecision,
    classify_pattern,
    peek_record,
    record_for,
)
from repro.core.bulk import BulkWriteExecutor
from repro.core.regions import build_region_sets
from repro.core.registry import default_registry
from repro.core.strategies import TwoPhaseStrategy
from repro.datatypes import CHAR, subarray
from repro.fs import ParallelFileSystem, enfs_config
from repro.fs.filesystem import LockProtocol
from repro.io import Info, InvalidHint, MPIFile
from repro.mpi import run_spmd
from repro.patterns.partition import (
    block_block_spec,
    column_wise_spec,
    process_grid,
    row_wise_spec,
    views_for_pattern,
)
from repro.verify.atomicity import check_coverage, check_mpi_atomicity
from tests.conftest import fast_fs_config

M, N, P = 16, 64, 4


def regions_for(pattern: str, R: int = 0):
    return build_region_sets(views_for_pattern(pattern, M, N, P, R))


# -- layer 1: the pattern classifier ------------------------------------------


class TestClassifier:
    def test_column_wise_is_strided(self):
        # Every rank owns a column block, all P ranks interleave per row.
        sig = classify_pattern(regions_for("column-wise"))
        assert sig.kind == "strided"
        assert sig.nprocs == P

    def test_row_wise_is_contiguous(self):
        # A row block is one contiguous byte run per rank.
        sig = classify_pattern(regions_for("row-wise"))
        assert sig.kind == "contiguous"

    def test_block_block_is_block_block(self):
        # On the 2x2 grid only Pc=2 of the 4 ranks interleave per row.
        assert process_grid(P) == (2, 2)
        sig = classify_pattern(regions_for("block-block"))
        assert sig.kind == "block-block"

    def test_irregular_views_are_irregular(self):
        views = [
            [(0, 10), (50, 7), (90, 3)],
            [(200, 3), (220, 11), (400, 5)],
        ]
        sig = classify_pattern(build_region_sets(views))
        assert sig.kind == "irregular"

    def test_overlap_is_seen(self):
        # Ghost columns overlap neighbouring ranks; the disjoint split doesn't.
        disjoint = classify_pattern(regions_for("column-wise", R=0))
        ghosted = classify_pattern(regions_for("column-wise", R=4))
        assert disjoint.overlap_bucket == 0
        assert ghosted.overlap_bucket > 0

    def test_signature_is_hashable_and_position_independent(self):
        base = [[(0, 8), (64, 8)], [(16, 8), (80, 8)]]
        shifted = [[(1024 + o, n) for (o, n) in view] for view in base]
        a = classify_pattern(build_region_sets(base))
        b = classify_pattern(build_region_sets(shifted))
        assert a == b
        assert len({a, b}) == 1  # usable as a hint-cache key


# -- layer 2: the hint engine -------------------------------------------------


def decisions_of(record, direction: str):
    """The decisions ``record`` remembers for collectives of ``direction``."""
    return [d for (which, _), d in record.decisions.items() if which == direction]


def signature(kind: str, nprocs: int = P) -> PatternSignature:
    return PatternSignature(
        kind=kind,
        nprocs=nprocs,
        segments_bucket=5,
        segment_bucket=5,
        domain_bucket=20,
        overlap_bucket=0,
        interleave_bucket=2,
    )


class TestHintEngine:
    machine = MachineModel(supports_locking=True, num_servers=8, stripe_size=64 * 1024)

    def test_contiguous_gets_rank_ordering(self):
        decision = HintEngine().decide(signature("contiguous"), self.machine)
        assert decision.strategy == "rank-ordering"
        assert decision.hints() == {}

    def test_interleaved_gets_two_phase_with_derived_hints(self):
        decision = HintEngine().decide(signature("strided"), self.machine)
        assert decision.strategy == "two-phase"
        # Half the server count, capped by P.
        assert decision.cb_nodes == self.machine.num_servers // 2
        assert decision.cb_buffer_size % self.machine.stripe_size == 0

    def test_cb_nodes_capped_by_nprocs(self):
        decision = HintEngine().decide(signature("strided", nprocs=2), self.machine)
        assert decision.cb_nodes == 2

    def test_large_p_goes_hierarchical(self):
        decision = HintEngine().decide(signature("strided", nprocs=128), self.machine)
        assert decision.strategy == "two-phase-hier"
        assert decision.cb_ppn == HintEngine.default_ppn
        assert decision.cb_nodes >= 1

    def test_locking_is_never_proposed(self):
        engine = HintEngine()
        for kind in ("contiguous", "strided", "block-block", "irregular"):
            for nprocs in (2, P, 128):
                decision = engine.decide(signature(kind, nprocs), self.machine)
                assert decision.strategy != "locking"

    def test_delegate_is_shared(self):
        decision = HintEngine().decide(signature("strided"), self.machine)
        assert decision.delegate() is decision.delegate()

    def test_delegate_comes_from_the_registry(self):
        hier = TuningDecision("two-phase-hier", cb_nodes=2, cb_ppn=4, cb_buffer_size=4096)
        delegate = hier.delegate()
        assert type(delegate) is default_registry.get("two-phase-hier")
        assert (delegate.num_aggregators, delegate.ranks_per_node) == (2, 4)
        assert delegate.cb_buffer_size == 4096
        assert type(TuningDecision("locking").delegate()) is default_registry.get("locking")
        with pytest.raises(KeyError, match="unknown strategy 'three-phase'"):
            TuningDecision("three-phase").delegate()


class TestHintEngineRead:
    machine = MachineModel(supports_locking=True, num_servers=8, stripe_size=64 * 1024)

    def test_contiguous_read_keeps_read_ahead(self):
        decision = HintEngine().decide(signature("contiguous"), self.machine, "read")
        assert decision.strategy == "rank-ordering"
        assert decision.read_ahead is True
        assert decision.hints() == {"read_ahead": 1.0}

    def test_interleaved_read_is_fetch_parallel(self):
        # Reads have no commit side: two aggregators per I/O server, not the
        # write rule's half-the-servers.
        decision = HintEngine().decide(signature("strided", nprocs=32), self.machine, "read")
        assert decision.strategy == "two-phase"
        assert decision.cb_nodes == 2 * self.machine.num_servers
        assert decision.cb_buffer_size % self.machine.stripe_size == 0
        assert decision.read_ahead is False
        assert decision.hints()["read_ahead"] == 0.0

    def test_read_cb_nodes_capped_by_nprocs(self):
        decision = HintEngine().decide(signature("strided", nprocs=2), self.machine, "read")
        assert decision.cb_nodes == 2

    def test_single_server_read_stays_narrow(self):
        # An ENFS-like single-server machine: fan-out past 2 aggregators only
        # adds shuffle latency the lone server cannot amortise.
        enfs = MachineModel(supports_locking=False, num_servers=1, stripe_size=64 * 1024)
        decision = HintEngine().decide(signature("strided", nprocs=16), enfs, "read")
        assert decision.cb_nodes == 2

    def test_large_p_read_goes_hierarchical(self):
        decision = HintEngine().decide(signature("strided", nprocs=128), self.machine, "read")
        assert decision.strategy == "two-phase-hier"
        assert decision.cb_ppn == HintEngine.default_ppn
        assert decision.read_ahead is False

    def test_read_and_write_decisions_are_separate(self):
        engine = HintEngine()
        sig = signature("strided", nprocs=32)
        write = engine.decide(sig, self.machine)
        read = engine.decide(sig, self.machine, "read")
        assert write.read_ahead is None
        assert "read_ahead" not in write.hints()
        assert write.cb_nodes != read.cb_nodes


# -- the Info.get_bool accessor (what `auto`'s toggles parse with) ------------


class TestInfoGetBool:
    def test_true_spellings(self):
        for word in ("true", "1", "YES", " on ", "Enabled"):
            assert Info({"k": word}).get_bool("k") is True

    def test_false_spellings(self):
        for word in ("false", "0", "No", "off", "disabled"):
            assert Info({"k": word}).get_bool("k", True) is False

    def test_garbage_raises_naming_key_and_value(self):
        for default in (False, True, None):
            with pytest.raises(InvalidHint, match="'k'.*'banana'") as excinfo:
                Info({"k": "banana"}).get_bool("k", default)
            assert (excinfo.value.key, excinfo.value.value) == ("k", "banana")

    def test_absent_falls_back_to_default(self):
        assert Info().get_bool("k") is False
        assert Info().get_bool("k", True) is True

    def test_none_default_is_tri_state(self):
        assert Info().get_bool("k", None) is None
        assert Info({"k": "on"}).get_bool("k", None) is True
        assert Info({"k": "off"}).get_bool("k", None) is False


# -- layer 3: the adaptive strategy end to end --------------------------------


def filetype_for(pattern: str, rank: int, R: int = 0):
    if pattern == "column-wise":
        spec = column_wise_spec(M, N, P, rank, R)
    elif pattern == "row-wise":
        spec = row_wise_spec(M, N, P, rank, R)
    else:
        Pr, Pc = process_grid(P)
        spec = block_block_spec(M, N, Pr, Pc, rank, R)
    ft = subarray(list(spec.sizes), list(spec.subsizes), list(spec.starts), CHAR)
    return ft.commit(), spec.total_bytes


def write_steps(fs, filename, steps=1, pattern="column-wise", info=None, reopen=False):
    """Run ``steps`` atomic collective writes under the ``auto`` strategy."""
    info = info if info is not None else Info({"atomicity_strategy": "auto"})

    def fn(comm):
        outcomes = []
        f = None
        for step in range(steps):
            if f is None:
                f = MPIFile.Open(comm, filename, fs, info=info)
                f.Set_atomicity(True)
                ft, nbytes = filetype_for(pattern, comm.rank)
                f.Set_view(0, CHAR, ft)
            data = bytes([ord("A") + (comm.rank + step) % 26]) * nbytes
            f.Seek(0)  # rewind: every step rewrites the same view
            outcomes.append(f.Write_all(data))
            if reopen:
                f.Close()
                f = None
        if f is not None:
            f.Close()
        return outcomes

    return run_spmd(fn, P)


class TestAutoEndToEnd:
    def test_auto_roundtrip_is_atomic(self):
        fs = ParallelFileSystem(fast_fs_config())
        result = write_steps(fs, "auto.dat")
        regions = regions_for("column-wise")
        store = fs.lookup("auto.dat").store
        assert check_mpi_atomicity(store, regions).ok
        assert check_coverage(store, regions).ok
        for outcomes in result.returns:
            assert all(o.strategy == "auto" for o in outcomes)

    def test_auto_runs_on_lockless_fs(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        write_steps(fs, "auto.dat")
        assert check_mpi_atomicity(
            fs.lookup("auto.dat").store, regions_for("column-wise")
        ).ok

    def test_repeated_collectives_hit_the_plan_cache(self):
        fs = ParallelFileSystem(fast_fs_config())
        write_steps(fs, "steps.dat", steps=4)
        record = peek_record(fs, "steps.dat")
        assert record is not None
        assert record.misses == 1
        assert record.hits == 3

    def test_plan_cache_toggle_via_info(self):
        fs = ParallelFileSystem(fast_fs_config())
        info = Info({"atomicity_strategy": "auto", "plan_cache": "false"})
        write_steps(fs, "nocache.dat", steps=3, info=info)
        record = peek_record(fs, "nocache.dat")
        assert record.hits == 0
        assert record.misses == 3

    def test_hint_cache_survives_close_open(self):
        fs = ParallelFileSystem(fast_fs_config())
        write_steps(fs, "persist.dat", steps=2, reopen=True)
        record = peek_record(fs, "persist.dat")
        assert record is record_for(fs, "persist.dat")
        # Both collectives were cold (the reopen's Set_view drops the plan),
        # but the second reused the persisted tuning decision object.
        assert record.misses == 2
        assert len(record.decisions) == 1
        (decision,) = record.decisions.values()
        assert decision.strategy == "two-phase"

    def test_records_are_per_filesystem(self):
        fs_a = ParallelFileSystem(fast_fs_config())
        fs_b = ParallelFileSystem(fast_fs_config())
        write_steps(fs_a, "same.dat")
        write_steps(fs_b, "same.dat")
        assert peek_record(fs_a, "same.dat") is not peek_record(fs_b, "same.dat")

    def test_set_view_invalidates_the_plan(self):
        fs = ParallelFileSystem(fast_fs_config())

        def fn(comm):
            f = MPIFile.Open(comm, "inval.dat", fs, info=Info({"atomicity_strategy": "auto"}))
            f.Set_atomicity(True)
            ft, nbytes = filetype_for("column-wise", comm.rank)
            data = bytes([ord("A") + comm.rank]) * nbytes
            f.Set_view(0, CHAR, ft)
            f.Write_all(data)
            f.Set_view(0, CHAR, ft)  # same view, but the plan must still drop
            f.Write_all(data)
            f.Close()

        run_spmd(fn, P)
        record = peek_record(fs, "inval.dat")
        assert record.hits == 0
        assert record.misses == 2

    def test_notify_invalidation_semantics(self):
        fs = ParallelFileSystem(fast_fs_config())
        write_steps(fs, "notify.dat")
        record = peek_record(fs, "notify.dat")
        assert record.entry is not None and record.decisions
        autotune.notify_view_change(fs, "notify.dat")
        assert record.entry is None  # plan dropped...
        assert record.decisions  # ...but the hint cache survives a view change
        write_steps(fs, "notify2.dat")
        record2 = peek_record(fs, "notify2.dat")
        autotune.notify_hint_change(fs, "notify2.dat")
        assert record2.entry is None
        assert record2.decisions == {}  # a hint change clears both layers

    def test_cached_replay_is_byte_and_provenance_identical(self):
        files = {}
        for label, plan_cache in (("on", "true"), ("off", "false")):
            fs = ParallelFileSystem(fast_fs_config())
            info = Info({"atomicity_strategy": "auto", "plan_cache": plan_cache})
            write_steps(fs, "ident.dat", steps=3, info=info)
            store = fs.lookup("ident.dat").store
            files[label] = (store.read(0, store.size), list(store.writers(0, store.size)))
        assert files["on"][0] == files["off"][0]
        assert files["on"][1] == files["off"][1]


def read_steps(fs, filename, steps=1, pattern="column-wise", info=None, reset_view=False):
    """Seed ``filename`` with one ``auto`` write, then ``steps`` Read_alls."""
    info = info if info is not None else Info({"atomicity_strategy": "auto"})

    def fn(comm):
        f = MPIFile.Open(comm, filename, fs, info=info)
        f.Set_atomicity(True)
        ft, nbytes = filetype_for(pattern, comm.rank)
        f.Set_view(0, CHAR, ft)
        f.Write_all(bytes([ord("A") + comm.rank % 26]) * nbytes)
        streams = []
        for _ in range(steps):
            if reset_view:
                f.Set_view(0, CHAR, ft)
            f.Seek(0)
            buffer = bytearray(nbytes)
            f.Read_all(buffer)
            streams.append(bytes(buffer))
        # Collective reads run on the progress handle (`Iread_all` body),
        # so that is where the tuner's read_ahead coupling lands.
        pages = f._async_handle.cache.policy.read_ahead_pages
        f.Close()
        return streams, pages

    return run_spmd(fn, P)


class TestAutoReadEndToEnd:
    def test_read_returns_the_written_bytes(self):
        fs = ParallelFileSystem(fast_fs_config())
        result = read_steps(fs, "rw.dat")
        for rank, (streams, _) in enumerate(result.returns):
            assert streams[0] == bytes([ord("A") + rank % 26]) * len(streams[0])

    def test_write_seeded_plan_replays_for_reads(self):
        # The plan entry is mode-agnostic: the write's exchanged views and
        # signature replay for the reads, only the decision table splits.
        fs = ParallelFileSystem(fast_fs_config())
        read_steps(fs, "replay.dat", steps=3)
        record = peek_record(fs, "replay.dat")
        assert record.misses == 1  # the seeding write
        assert record.hits == 3  # every read replayed the cached plan
        assert len(decisions_of(record, "write")) == 1
        assert len(decisions_of(record, "read")) == 1

    def test_read_decision_disables_read_ahead(self):
        fs = ParallelFileSystem(fast_fs_config())
        result = read_steps(fs, "ra.dat")
        (decision,) = decisions_of(peek_record(fs, "ra.dat"), "read")
        assert decision.read_ahead is False
        for _, pages in result.returns:
            assert pages == 0  # the handle's cache policy was switched off

    @pytest.mark.parametrize("config", [fast_fs_config, enfs_config])
    def test_contiguous_read_keeps_the_configured_read_ahead(self, config):
        # "Keep read-ahead" applies the ``read_ahead=true`` hint's rule: the
        # file system's configured page count (1 here, 4 on ENFS).
        fs = ParallelFileSystem(config())
        result = read_steps(fs, "rows.dat", pattern="row-wise")
        (decision,) = decisions_of(peek_record(fs, "rows.dat"), "read")
        assert decision.read_ahead is True
        for _, pages in result.returns:
            assert pages == fs.config.cache_policy.read_ahead_pages

    def test_set_view_invalidates_the_read_plan(self):
        fs = ParallelFileSystem(fast_fs_config())
        read_steps(fs, "rinval.dat", steps=2, reset_view=True)
        record = peek_record(fs, "rinval.dat")
        assert record.hits == 0
        assert record.misses == 3  # write + both reads re-resolved
        # The hint caches survive the view changes...
        assert decisions_of(record, "write") and decisions_of(record, "read")
        # ...but a hint change clears both decision tables too.
        autotune.notify_hint_change(fs, "rinval.dat")
        assert record.entry is None
        assert decisions_of(record, "write") == []
        assert decisions_of(record, "read") == []


class TestBulkResolveStatic:
    def test_interleaved_pattern_yields_two_phase(self):
        strat = AutoStrategy()
        decision = strat.resolve_static(regions_for("column-wise"))
        assert decision is strat.last_decision
        assert decision.strategy == "two-phase"
        assert isinstance(decision.delegate(), TwoPhaseStrategy)

    def test_read_mode_resolves_the_read_decision(self):
        strat = AutoStrategy()
        write_decision = strat.resolve_static(regions_for("column-wise"))
        read_decision = strat.resolve_static(regions_for("column-wise"), direction="read")
        assert isinstance(read_decision.delegate(), TwoPhaseStrategy)
        assert read_decision.read_ahead is False
        assert read_decision.delegate() is not write_decision.delegate()

    def test_contiguous_pattern_refuses_bulk_replay(self):
        regions = regions_for("row-wise")
        executor = BulkWriteExecutor(ParallelFileSystem(fast_fs_config()), AutoStrategy())
        with pytest.raises(TypeError, match="rank-ordering"):
            executor.run(len(regions), lambda rank, _P: regions[rank].segments)
