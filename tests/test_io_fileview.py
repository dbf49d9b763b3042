"""Tests for MPI file views and the Info/mode helpers."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro

from repro.datatypes import CHAR, INT, contiguous, subarray, vector
from repro.datatypes.datatype import DatatypeError
from repro.io import Info, InvalidHint, MODE_CREATE, MODE_RDONLY, MODE_RDWR, describe_mode
from repro.core.registry import HINTS
from repro.io.info import BOOLEAN_HINTS, INTEGER_HINTS
from repro.io.fileview import FileView


class TestFileView:
    def test_default_view_is_whole_file(self):
        view = FileView.default()
        assert view.segments_for(10) == [(0, 10)]
        assert view.etype_size == 1

    def test_displacement_shifts(self):
        view = FileView.create(100, CHAR, contiguous(10, CHAR))
        assert view.segments_for(10) == [(100, 10)]

    def test_noncontiguous_filetype(self):
        # filetype: 2 blocks of 2 chars, stride 5 chars -> segments (0,2), (5,2),
        # MPI extent 7 (first to last byte touched).
        view = FileView.create(0, CHAR, vector(2, 2, 5, CHAR))
        assert view.segments_for(4) == [(0, 2), (5, 2)]
        # A request beyond one tile continues with the next tiling at byte 7;
        # the new run abuts (5,2) and coalesces.
        assert view.segments_for(6) == [(0, 2), (5, 4)]

    def test_stream_position_skips_visible_bytes(self):
        view = FileView.create(0, CHAR, vector(2, 2, 5, CHAR))
        # Stream bytes 3 and 4 land at file offsets 6 and 7 (next tile).
        assert view.segments_for(2, stream_position=3) == [(6, 2)]

    def test_segments_for_etypes(self):
        view = FileView.create(0, INT, contiguous(4, INT))
        assert view.segments_for_etypes(2) == [(0, 8)]
        assert view.segments_for_etypes(2, etype_position=1) == [(4, 8)]

    def test_column_wise_view_matches_partition_helper(self):
        """The subarray file view of Figure 4 flattens to the same segments
        the partitioning helper computes directly."""
        from repro.patterns.partition import column_wise_spec

        M, N, P, R, rank = 8, 64, 4, 4, 1
        spec = column_wise_spec(M, N, P, rank, R)
        filetype = subarray(list(spec.sizes), list(spec.subsizes), list(spec.starts), CHAR)
        view = FileView.create(0, CHAR, filetype)
        assert view.segments_for(spec.total_bytes) == spec.segments()

    def test_filetype_must_hold_etype_multiple(self):
        with pytest.raises(DatatypeError):
            FileView.create(0, INT, contiguous(3, CHAR))

    def test_negative_displacement_rejected(self):
        with pytest.raises(DatatypeError):
            FileView.create(-1, CHAR, contiguous(1, CHAR))

    def test_empty_filetype_rejected(self):
        with pytest.raises(DatatypeError):
            FileView.create(0, CHAR, contiguous(0, CHAR))

    def test_invalid_request_args(self):
        view = FileView.default()
        with pytest.raises(ValueError):
            view.segments_for(-1)
        with pytest.raises(ValueError):
            view.segments_for(1, stream_position=-1)


class TestInfo:
    def test_set_get(self):
        info = Info()
        info.set("atomicity_strategy", "rank-ordering")
        assert info.get("atomicity_strategy") == "rank-ordering"
        assert info.get("missing") is None
        assert info.get("missing", "dflt") == "dflt"

    def test_values_coerced_to_str(self):
        info = Info({"cb_buffer_size": 4096})
        assert info.get("cb_buffer_size") == "4096"
        assert info.get_int("cb_buffer_size") == 4096

    def test_get_int_garbage(self):
        info = Info({"k": "not-a-number"})
        with pytest.raises(InvalidHint, match="'k'.*'not-a-number'") as excinfo:
            info.get_int("k", default=7)
        assert isinstance(excinfo.value, ValueError)
        assert (excinfo.value.key, excinfo.value.value) == ("k", "not-a-number")
        assert info.get_int("absent", default=7) == 7

    def test_validate_parses_every_integer_hint_and_ignores_unknown_keys(self):
        Info({"cb_nodes": "4", "striping_unit": "65536", "no_such_hint": "four"}).validate()
        for key in INTEGER_HINTS:
            with pytest.raises(InvalidHint, match=key):
                Info({key: "four"}).validate()

    @staticmethod
    def _keys_read_with(accessor: str, kind: type, malformed: str) -> set:
        """The keys some reader in ``src/`` parses with ``accessor`` by name,
        each checked to be rejected by ``validate`` when ``malformed``; the
        table's strategy tunables of ``kind`` are read through it, by
        ``create_from_info``, so they join the set."""
        read = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            read.update(re.findall(accessor + r'\(\s*"(\w+)"', path.read_text()))
        for key in read:
            with pytest.raises(InvalidHint, match=key):
                Info({key: malformed}).validate()
        return read | {h.name for h in HINTS if h.keyword is not None and h.type is kind}

    def test_integer_hints_are_the_keys_read_with_get_int(self):
        """``validate`` checks exactly the keys some reader parses as integers:
        a new ``get_int`` key missing from the table fails here."""
        assert self._keys_read_with("get_int", int, "four") == set(INTEGER_HINTS)

    def test_boolean_hints_are_the_keys_read_with_get_bool(self):
        """``validate`` checks exactly the keys some reader parses as booleans:
        a new ``get_bool`` key missing from the table fails here."""
        assert self._keys_read_with("get_bool", bool, "maybe") == set(BOOLEAN_HINTS)

    def test_validate_parses_every_boolean_hint(self):
        Info({"read_ahead": "on", "plan_cache": "false"}).validate()
        for key in BOOLEAN_HINTS:
            with pytest.raises(InvalidHint, match=key):
                Info({key: "maybe"}).validate()

    def test_delete_and_contains(self):
        info = Info({"a": "1"})
        assert "a" in info
        info.delete("a")
        assert "a" not in info
        info.delete("a")  # idempotent

    def test_copy_independent(self):
        info = Info({"a": "1"})
        other = info.copy()
        other.set("a", "2")
        assert info.get("a") == "1"

    def test_keys_sorted(self):
        info = Info({"b": "1", "a": "2"})
        assert list(info.keys()) == ["a", "b"]
        assert len(info) == 2


class TestModes:
    def test_describe_mode(self):
        text = describe_mode(MODE_RDWR | MODE_CREATE)
        assert "MPI_MODE_RDWR" in text and "MPI_MODE_CREATE" in text

    def test_describe_zero(self):
        assert describe_mode(0) == "0"

    def test_flags_distinct(self):
        from repro.io import modes

        flags = [modes.MODE_RDONLY, modes.MODE_WRONLY, modes.MODE_RDWR,
                 modes.MODE_CREATE, modes.MODE_EXCL, modes.MODE_DELETE_ON_CLOSE,
                 modes.MODE_APPEND]
        assert len({f for f in flags}) == len(flags)
        combined = 0
        for f in flags:
            assert not (combined & f)
            combined |= f
