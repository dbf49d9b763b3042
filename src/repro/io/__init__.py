"""MPI-IO layer (ROMIO equivalent): file views, MPIFile, Info hints and
modes.  A nonblocking or split-collective call returns the MPI layer's
:class:`~repro.mpi.status.Request`."""

from .fileview import FileView
from .file import MPIFile
from .info import Info, InvalidHint
from .modes import (
    MODE_APPEND,
    MODE_CREATE,
    MODE_DELETE_ON_CLOSE,
    MODE_EXCL,
    MODE_RDONLY,
    MODE_RDWR,
    MODE_WRONLY,
    describe_mode,
)

__all__ = [
    "MPIFile",
    "FileView",
    "Info",
    "InvalidHint",
    "MODE_RDONLY",
    "MODE_WRONLY",
    "MODE_RDWR",
    "MODE_CREATE",
    "MODE_EXCL",
    "MODE_DELETE_ON_CLOSE",
    "MODE_APPEND",
    "describe_mode",
]
