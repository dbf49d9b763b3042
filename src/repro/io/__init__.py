"""MPI-IO layer (ROMIO equivalent): file views, MPIFile, Info hints, modes,
and request objects for nonblocking / split-collective I/O."""

from .fileview import FileView
from .file import MPIFile
from .info import Info, InvalidHint
from .requests import IORequest, Testall, Waitall, Waitany
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
    "IORequest",
    "Waitall",
    "Testall",
    "Waitany",
    "MODE_RDONLY",
    "MODE_WRONLY",
    "MODE_RDWR",
    "MODE_CREATE",
    "MODE_EXCL",
    "MODE_DELETE_ON_CLOSE",
    "MODE_APPEND",
    "describe_mode",
]
