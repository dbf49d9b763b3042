"""Tests for the file system facade, clients, handles and presets."""

from __future__ import annotations

import pytest

import repro.fs.client as client_module
import repro.fs.costmodel as costmodel_module
from repro.core.engine import Engine, current_task, sequence_point
from repro.fs import (
    FSClient,
    FSConfig,
    LockProtocol,
    ParallelFileSystem,
    PRESET_NAMES,
    enfs_config,
    gpfs_config,
    preset,
    xfs_config,
)
from repro.fs.errors import FileExists, FileNotFound, InvalidRequest, LockingUnsupported
from repro.fs.lockmanager import CentralLockManager
from repro.fs.tokens import DistributedLockManager
from tests.conftest import fast_fs_config


class TestNamespace:
    def test_create_lookup_unlink(self, fast_fs):
        f = fast_fs.create("a.dat")
        assert fast_fs.lookup("a.dat") is f
        assert fast_fs.exists("a.dat")
        fast_fs.unlink("a.dat")
        assert not fast_fs.exists("a.dat")

    def test_create_idempotent(self, fast_fs):
        a = fast_fs.create("x")
        b = fast_fs.create("x")
        assert a is b

    def test_create_exclusive(self, fast_fs):
        fast_fs.create("x")
        with pytest.raises(FileExists):
            fast_fs.create("x", exist_ok=False)

    def test_lookup_missing(self, fast_fs):
        with pytest.raises(FileNotFound):
            fast_fs.lookup("missing")
        with pytest.raises(FileNotFound):
            fast_fs.unlink("missing")

    def test_list_files(self, fast_fs):
        fast_fs.create("b")
        fast_fs.create("a")
        assert fast_fs.list_files() == ["a", "b"]


class TestLockManagerSelection:
    def test_central(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.CENTRAL))
        assert isinstance(fs.create("f").lock_manager, CentralLockManager)

    def test_distributed(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.DISTRIBUTED))
        assert isinstance(fs.create("f").lock_manager, DistributedLockManager)

    def test_none(self):
        fs = ParallelFileSystem(fast_fs_config(LockProtocol.NONE))
        fobj = fs.create("f")
        assert fobj.lock_manager is None
        with pytest.raises(LockingUnsupported):
            fobj.require_lock_manager()

    def test_unknown_protocol_rejected(self):
        cfg = FSConfig(lock_protocol="bogus")
        with pytest.raises(ValueError):
            ParallelFileSystem(cfg).create("f")


class TestClientDataPath:
    def test_write_read_roundtrip_cached(self, fast_fs):
        client = FSClient(fast_fs, client_id=0)
        handle = client.open("data")
        handle.write(0, b"hello world")
        assert handle.read(0, 11) == b"hello world"
        handle.sync()
        assert fast_fs.lookup("data").store.read(0, 11) == b"hello world"

    def test_direct_write_bypasses_cache(self, fast_fs):
        client = FSClient(fast_fs, client_id=2)
        handle = client.open("data")
        handle.write(0, b"direct", direct=True)
        # Visible on the servers immediately, no sync needed.
        assert fast_fs.lookup("data").store.read(0, 6) == b"direct"
        assert fast_fs.lookup("data").store.distinct_writers(0, 6) == (2,)

    def test_write_behind_not_visible_until_sync(self, fast_fs):
        client = FSClient(fast_fs, client_id=0)
        handle = client.open("data")
        handle.write(0, b"pending")
        assert fast_fs.lookup("data").store.size == 0
        handle.sync()
        assert fast_fs.lookup("data").store.size == 7

    def test_close_flushes(self, fast_fs):
        client = FSClient(fast_fs, client_id=0)
        handle = client.open("data")
        handle.write(0, b"bye")
        handle.close()
        assert fast_fs.lookup("data").store.read(0, 3) == b"bye"

    def test_uncached_fs_writes_through(self):
        fs = ParallelFileSystem(fast_fs_config(client_caching=False))
        handle = FSClient(fs, 0).open("f")
        handle.write(0, b"now")
        assert fs.lookup("f").store.read(0, 3) == b"now"

    def test_closed_handle_rejected(self, fast_fs):
        handle = FSClient(fast_fs, 0).open("f")
        handle.close()
        with pytest.raises(InvalidRequest):
            handle.write(0, b"x")
        with pytest.raises(InvalidRequest):
            handle.read(0, 1)

    def test_invalid_args(self, fast_fs):
        handle = FSClient(fast_fs, 0).open("f")
        with pytest.raises(InvalidRequest):
            handle.write(-1, b"x")
        with pytest.raises(InvalidRequest):
            handle.read(0, -1)

    def test_handle_reuse_per_name(self, fast_fs):
        client = FSClient(fast_fs, 0)
        assert client.open("f") is client.open("f")

    def test_open_without_create(self, fast_fs):
        client = FSClient(fast_fs, 0)
        with pytest.raises(FileNotFound):
            client.open("nope", create=False)

    def test_size_property(self, fast_fs):
        handle = FSClient(fast_fs, 0).open("f")
        handle.write(100, b"abc", direct=True)
        assert handle.size == 103


class TestClientTiming:
    def test_write_advances_clock(self, fast_fs):
        client = FSClient(fast_fs, 0)
        handle = client.open("f")
        before = client.clock.now
        handle.write(0, b"x" * 4096, direct=True)
        assert client.clock.now > before

    def test_cached_write_cheaper_than_direct(self, fast_fs):
        c1 = FSClient(fast_fs, 0)
        h1 = c1.open("f1")
        h1.write(0, b"x" * 4096)
        cached_cost = c1.clock.now

        c2 = FSClient(fast_fs, 1)
        h2 = c2.open("f2")
        h2.write(0, b"x" * 4096, direct=True)
        direct_cost = c2.clock.now
        assert cached_cost < direct_cost

    def test_lock_wait_advances_clock(self, fast_fs):
        c1 = FSClient(fast_fs, 0)
        c2 = FSClient(fast_fs, 1)
        h1 = c1.open("shared")
        h2 = c2.open("shared")
        lock = h1.lock(0, 1000)
        c1.clock.advance(0.25)          # holder does work while locked
        h1.unlock(lock)
        lock2 = h2.lock(0, 1000)
        assert c2.clock.now >= 0.25     # waiter's virtual time reflects the wait
        h2.unlock(lock2)

    def test_unlock_all(self, fast_fs):
        handle = FSClient(fast_fs, 0).open("f")
        handle.lock(0, 10)
        handle.lock(20, 30)
        assert handle.unlock_all() == 2
        assert handle.unlock_all() == 0

    def test_locking_unsupported_raises(self, lockless_fs):
        handle = FSClient(lockless_fs, 0).open("f")
        with pytest.raises(LockingUnsupported):
            handle.lock(0, 10)

    def test_a_server_request_passes_one_sequence_point(self, fast_fs, monkeypatch):
        """A direct write over three stripes on three servers, inside an
        engine task: one sequence point, then the link and each touched
        server serve one request of ``latency + bytes / bandwidth``."""
        taken = []

        def counting_sequence_point():
            taken.append(current_task())
            sequence_point()

        monkeypatch.setattr(client_module, "sequence_point", counting_sequence_point,
                            raising=False)
        monkeypatch.setattr(costmodel_module, "sequence_point", counting_sequence_point)
        client = FSClient(fast_fs, client_id=0)
        handle = client.open("f")
        # 1024-byte stripes over 4 servers: [512, 2560) is 512 bytes on
        # server 0, 1024 on server 1 and 512 on server 2.
        engine = Engine()
        task = engine.spawn(lambda: handle.write(512, b"x" * 2048, direct=True),
                            clock=client.clock)
        engine.run()
        assert task.error is None and task.result == 2048
        assert taken == [task]
        servers = [server.resource for server in fast_fs.servers.servers]
        for resource, nbytes in [(client.link, 2048), (servers[0], 512),
                                 (servers[1], 1024), (servers[2], 512)]:
            cost = resource.cost
            assert resource.request_count == 1
            assert resource.busy_time == cost.latency + nbytes / cost.bandwidth
        assert servers[3].request_count == 0


class TestPresets:
    def test_preset_lookup(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            assert cfg.name == name
        with pytest.raises(KeyError):
            preset("LUSTRE")

    def test_enfs_has_no_locking(self):
        cfg = enfs_config()
        assert not cfg.supports_locking()
        assert cfg.num_servers == 1

    def test_xfs_central_locking(self):
        cfg = xfs_config()
        assert cfg.lock_protocol == LockProtocol.CENTRAL
        assert cfg.supports_locking()

    def test_gpfs_distributed_locking(self):
        cfg = gpfs_config()
        assert cfg.lock_protocol == LockProtocol.DISTRIBUTED
        assert cfg.num_servers == 12

    def test_presets_build_working_filesystems(self):
        for name in PRESET_NAMES:
            fs = ParallelFileSystem(preset(name))
            handle = FSClient(fs, 0).open("t")
            handle.write(0, b"abc", direct=True)
            assert handle.read(0, 3, direct=True) == b"abc"

    def test_reset_accounting(self, fast_fs):
        handle = FSClient(fast_fs, 0).open("f")
        handle.write(0, b"x" * 100, direct=True)
        assert fast_fs.servers.total_requests() > 0
        fast_fs.reset_accounting()
        assert fast_fs.servers.total_requests() == 0
