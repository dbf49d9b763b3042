"""MPI Info hints (``MPI_Info``).

A thin string-to-string dictionary with the usual ``set``/``get``/``keys``
interface plus typed accessors for the hints this library understands.
Hints are accepted at ``Open`` and ``Set_view`` and thread through the
strategy registry into strategy construction, aggregator election and the
client cache; unknown hints are ignored, as MPI requires.

``atomicity_strategy``
    Which strategy :class:`repro.io.file.MPIFile` uses in atomic mode
    (``"locking"``, ``"graph-coloring"``, ``"rank-ordering"``,
    ``"two-phase"``, ``"auto"``, or any later-registered name).  When
    absent, the file picks the file system's best supported default
    (locking where available, otherwise rank ordering).  ``"auto"`` engages
    the :mod:`repro.core.autotune` hint engine, which classifies the access
    pattern at the first collective and derives ``cb_nodes``/``cb_ppn``/
    ``cb_buffer_size`` itself.
``cb_nodes``
    Number of two-phase aggregators (ROMIO's collective-buffering node
    count).  Default: every rank aggregates.
``cb_buffer_size``
    Per-aggregator file-domain cap in bytes; when ``cb_nodes`` is absent the
    two-phase election sizes itself as ``ceil(domain / cb_buffer_size)``.
``cb_ppn``
    Ranks per node for the hierarchical two-phase strategy (node-leader
    fan-in width).
``plan_cache``
    Boolean toggle (default ``"true"``) for the ``auto`` strategy's
    cross-collective plan cache; set ``"false"`` to force every collective
    through the cold exchange/analysis path.
``striping_unit``
    Overrides the file's stripe size (bytes) at open.
``provenance_base``
    Global identity offset for coupled groups or jobs sharing one file:
    the rank's file-system client id becomes ``provenance_base + rank``
    (instead of the engine task id) and strategy-recorded per-byte
    provenance is rebased the same way, so the cross-group atomicity
    verifiers can key observations on globally unique writer ids.  Groups
    racing on one file must pass disjoint bases.
``read_ahead`` / ``read_ahead_pages``
    Client-cache read-ahead toggle (boolean, see :meth:`Info.get_bool`) and
    explicit page count; applied to the rank's cache policies at
    open/``Set_view``.

Each typed hint is declared once, in :data:`repro.core.registry.HINTS`:
its name, its type and, for a strategy tunable, the constructor keyword it
sets.  :data:`INTEGER_HINTS` and :data:`BOOLEAN_HINTS` are views of that
table.  Every typed hint is parsed at ``Open`` and at every ``Set_view``
that passes hints, where ``atomicity_strategy`` must also name a registered
strategy: a value that does not parse raises :class:`InvalidHint`, naming
the key and the value, instead of silently meaning the default
(``cb_nodes=four`` is an error, not "every rank aggregates";
``read_ahead=maybe`` is an error, not "leave read-ahead alone").
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..core.registry import HINTS

__all__ = ["BOOLEAN_HINTS", "INTEGER_HINTS", "Info", "InvalidHint"]

#: The hints this library reads as integers.
INTEGER_HINTS = tuple(h.name for h in HINTS if h.type is int)

#: The hints this library reads as booleans.
BOOLEAN_HINTS = tuple(h.name for h in HINTS if h.type is bool)


class InvalidHint(ValueError):
    """A hint holds a value its reader cannot parse; ``expected`` says what
    the reader accepts."""

    def __init__(self, key: str, value: str, expected: str) -> None:
        super().__init__(f"hint {key!r} must be {expected}, got {value!r}")
        self.key = key
        self.value = value


class Info:
    """A dictionary of string hints."""

    def __init__(self, initial: Optional[Dict[str, str]] = None) -> None:
        self._data: Dict[str, str] = {}
        if initial:
            for key, value in initial.items():
                self.set(key, value)

    def set(self, key: str, value: str) -> None:
        """Store a hint (keys and values are coerced to ``str``)."""
        self._data[str(key)] = str(value)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Fetch a hint or ``default``."""
        return self._data.get(str(key), default)

    def delete(self, key: str) -> None:
        """Remove a hint if present."""
        self._data.pop(str(key), None)

    def keys(self) -> Iterator[str]:
        """Iterate over hint names."""
        return iter(sorted(self._data))

    def __contains__(self, key: str) -> bool:
        return str(key) in self._data

    def __len__(self) -> int:
        return len(self._data)

    def copy(self) -> "Info":
        """A shallow copy."""
        return Info(dict(self._data))

    def get_int(self, key: str, default: int = 0) -> int:
        """Fetch a hint converted to ``int`` (``default`` when absent); a
        value that is not an integer raises :class:`InvalidHint`."""
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise InvalidHint(str(key), raw, "an integer") from None

    def validate(self) -> None:
        """Parse every typed hint present (:data:`repro.core.registry.HINTS`),
        so a bad value fails where it is given rather than at the first call
        that reads it."""
        for hint in HINTS:
            if hint.type is bool:
                self.get_bool(hint.name)
            else:
                self.get_int(hint.name)

    #: Spellings accepted by :meth:`get_bool` (ROMIO accepts the same set).
    _TRUE_WORDS = frozenset({"true", "1", "yes", "on", "enable", "enabled"})
    _FALSE_WORDS = frozenset({"false", "0", "no", "off", "disable", "disabled"})

    def get_bool(self, key: str, default: Optional[bool] = False) -> Optional[bool]:
        """Fetch a boolean hint (``default`` when absent); a value outside the
        recognised true/false spellings raises :class:`InvalidHint`.

        Pass ``default=None`` to distinguish "absent" from an explicit
        setting.
        """
        raw = self.get(key)
        if raw is None:
            return default
        word = raw.strip().lower()
        if word in self._TRUE_WORDS:
            return True
        if word in self._FALSE_WORDS:
            return False
        raise InvalidHint(str(key), raw, "true or false")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Info({self._data!r})"
