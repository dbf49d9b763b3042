"""The parallel file system facade.

:class:`ParallelFileSystem` ties the substrate together: a pool of I/O
servers (:mod:`repro.fs.server`), a striping layout (:mod:`repro.fs.striping`),
a byte-range lock service (central or token-based, or none at all for the
ENFS personality), and one :class:`FileObject` per file holding the shared
:class:`~repro.fs.storage.ByteStore`.

Semantics follow the POSIX model the paper assumes of its platforms
(Section 2.1): every *single* read or write call is atomic — one engine task
runs at a time and no ``ByteStore`` update yields to the scheduler — while no
ordering or atomicity is promised across calls.  MPI atomic mode must
therefore be built *on top*, which is exactly what
:mod:`repro.core.strategies` does.

Per-process access goes through :class:`repro.fs.client.FSClient`, which adds
the client cache and virtual-time charging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .cache import CachePolicy
from .costmodel import CostModel
from .errors import FileExists, FileNotFound, LockingUnsupported
from .lockmanager import CentralLockManager, LockManager
from .server import ServerPool
from .storage import ByteStore
from .striping import StripingLayout
from .tokens import DistributedLockManager

__all__ = ["LockProtocol", "FSConfig", "FileObject", "ParallelFileSystem"]


class LockProtocol:
    """Which byte-range locking service a file system personality offers."""

    NONE = "none"            # ENFS / Cplant: no file locking available
    CENTRAL = "central"      # NFS / XFS style central lock manager
    DISTRIBUTED = "distributed"  # GPFS style token-based locking


@dataclass(frozen=True)
class FSConfig:
    """Configuration of a file system personality.

    The presets in :mod:`repro.fs.presets` build these for ENFS, XFS and
    GPFS; tests build small custom ones.
    """

    name: str = "generic"
    num_servers: int = 4
    stripe_size: int = 64 * 1024
    #: Per-server service model (disk + server CPU + its network port).
    server_cost: CostModel = field(default_factory=lambda: CostModel(latency=0.0005, bandwidth=100e6))
    #: Per-client injection link (compute-node NIC / memory path).
    client_link_cost: CostModel = field(default_factory=lambda: CostModel(latency=0.0001, bandwidth=200e6))
    lock_protocol: str = LockProtocol.CENTRAL
    lock_request_latency: float = 0.0005
    token_acquire_latency: float = 0.001
    token_revoke_latency: float = 0.0005
    token_local_latency: float = 0.00005
    cache_policy: CachePolicy = field(default_factory=CachePolicy)
    #: Whether client caches are used at all (the paper's discussion of
    #: read-ahead/write-behind applies to ENFS-like systems).
    client_caching: bool = True

    def supports_locking(self) -> bool:
        """True when byte-range locking is available."""
        return self.lock_protocol != LockProtocol.NONE


class FileObject:
    """Server-side state of one file: bytes, size, striping, lock service."""

    def __init__(self, name: str, fs: "ParallelFileSystem") -> None:
        self.name = name
        #: The owning file system's configuration — not the file system
        #: itself, which holds this object: no reference cycle.
        self.config = fs.config
        self.store = ByteStore()
        self.layout = StripingLayout(
            num_servers=fs.config.num_servers, stripe_size=fs.config.stripe_size
        )
        self.lock_manager: Optional[LockManager] = fs._make_lock_manager()
        self.open_count = 0

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return self.store.size

    def require_lock_manager(self) -> LockManager:
        """The file's lock manager, or raise if the FS has no locking."""
        if self.lock_manager is None:
            raise LockingUnsupported(
                f"file system {self.config.name!r} provides no byte-range locking"
            )
        return self.lock_manager


class ParallelFileSystem:
    """A complete file system instance (servers + files + lock service)."""

    def __init__(self, config: Optional[FSConfig] = None) -> None:
        self.config = config or FSConfig()
        self.servers = ServerPool(self.config.num_servers, self.config.server_cost)
        self._files: Dict[str, FileObject] = {}

    # -- lock manager factory ------------------------------------------------------

    def _make_lock_manager(self) -> Optional[LockManager]:
        proto = self.config.lock_protocol
        if proto == LockProtocol.NONE:
            return None
        if proto == LockProtocol.CENTRAL:
            return CentralLockManager(request_latency=self.config.lock_request_latency)
        if proto == LockProtocol.DISTRIBUTED:
            return DistributedLockManager(
                acquire_latency=self.config.token_acquire_latency,
                revoke_latency=self.config.token_revoke_latency,
                local_latency=self.config.token_local_latency,
            )
        raise ValueError(f"unknown lock protocol {proto!r}")

    # -- namespace operations ---------------------------------------------------------

    def create(self, name: str, exist_ok: bool = True) -> FileObject:
        """Create a file (idempotent unless ``exist_ok=False``)."""
        if name in self._files:
            if not exist_ok:
                raise FileExists(name)
            return self._files[name]
        f = FileObject(name, self)
        self._files[name] = f
        return f

    def lookup(self, name: str) -> FileObject:
        """Find an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFound(name) from None

    def exists(self, name: str) -> bool:
        """True when the file exists."""
        return name in self._files

    def unlink(self, name: str) -> None:
        """Remove a file."""
        if name not in self._files:
            raise FileNotFound(name)
        del self._files[name]

    def list_files(self) -> list:
        """Names of all files, sorted."""
        return sorted(self._files)

    def reset_accounting(self) -> None:
        """Clear virtual-time accounting on servers and lock managers
        (between benchmark repetitions)."""
        self.servers.reset()
        for f in self._files.values():
            lm = f.lock_manager
            if lm is not None:
                lm.reset_history()
