"""Central registry of atomicity strategies, and the table of Info hints.

The one way to select a strategy by name.  A strategy class declares its
capabilities (``provides_atomicity``, ``requires_locks``) and registers
itself once; every consumer — the MPI-IO layer's Info hints, the benchmark
grid, machine-applicability filtering — queries the registry instead of
hard-coding names.

Adding a new strategy is therefore local to one module::

    from repro.core.registry import register_strategy
    from repro.core.strategies import AtomicityStrategy

    @register_strategy
    class MyStrategy(AtomicityStrategy):
        name = "my-strategy"
        ...

and it is immediately constructible via ``default_registry.create(name)``,
listed by ``default_registry.names()`` (registration order: the paper's
strategies first, later entries such as the adaptive ``auto`` tuner of
:mod:`repro.core.autotune` after them) and swept by the Figure 8 grid
defaults and the CI smoke benchmark.

:data:`HINTS` declares every typed Info hint once: its name, its type and,
for a strategy tunable, the constructor keyword it sets.  A strategy built
from hints receives exactly the tunables its constructor accepts.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, TypeVar

__all__ = [
    "HINTS",
    "Hint",
    "StrategyRegistry",
    "default_registry",
    "register_strategy",
]

C = TypeVar("C", bound=type)


class Hint(NamedTuple):
    """One typed Info hint: ``type`` is ``int`` or ``bool``; ``keyword`` is
    the strategy constructor keyword it sets (``None``: the file reads it)."""

    name: str
    type: type
    keyword: Optional[str] = None


#: Every typed hint, in the order ``Info.validate`` parses them.  The
#: ``atomicity_strategy`` hint is a registered name, which ``MPIFile``
#: checks against the registry.
HINTS: Tuple[Hint, ...] = (
    Hint("cb_nodes", int, "num_aggregators"),
    Hint("cb_buffer_size", int, "cb_buffer_size"),
    Hint("cb_ppn", int, "ranks_per_node"),
    Hint("striping_unit", int),
    Hint("provenance_base", int),
    Hint("read_ahead_pages", int),
    Hint("read_ahead", bool),
    Hint("plan_cache", bool, "plan_cache"),
)


@functools.cache
def _tunables(cls: type) -> Tuple[Hint, ...]:
    """The strategy hints whose keyword ``cls``'s constructor accepts
    (cached: every ``MPIFile`` open builds its strategy through here)."""
    parameters = inspect.signature(cls).parameters
    return tuple(h for h in HINTS if h.keyword is not None and h.keyword in parameters)


class StrategyRegistry:
    """Name → strategy-class mapping with capability queries."""

    def __init__(self) -> None:
        self._classes: Dict[str, type] = {}

    # -- registration ----------------------------------------------------------

    def register(self, cls: C) -> C:
        """Register ``cls`` under its ``name`` attribute (decorator-friendly)."""
        name = getattr(cls, "name", None)
        if not name or not isinstance(name, str) or name == "abstract":
            raise ValueError(f"{cls!r} must define a non-empty string `name`")
        existing = self._classes.get(name)
        if existing is not None and existing is not cls:
            # A redefinition of the same class (module reload, notebook
            # re-execution) replaces the old registration; a *different*
            # class squatting on the name is an error.
            same_definition = (
                existing.__module__ == cls.__module__
                and existing.__qualname__ == cls.__qualname__
            )
            if not same_definition:
                raise ValueError(
                    f"strategy name {name!r} is already registered to {existing.__name__}"
                )
        self._classes[name] = cls
        return cls

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> type:
        """The registered class for ``name`` (raises ``KeyError`` if unknown)."""
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(
                f"unknown strategy {name!r}; known: {sorted(self._classes)}"
            ) from None

    def create(self, name: str, **kwargs):
        """Instantiate the strategy registered under ``name``."""
        return self.get(name)(**kwargs)

    def create_tuned(self, name: str, hints: Mapping[str, Any]):
        """Instantiate ``name`` with the values of ``hints`` (hint name →
        value, ``None`` for absent) whose keyword its constructor accepts."""
        cls = self.get(name)
        tunables = {h.keyword: hints.get(h.name) for h in _tunables(cls)}
        return cls(**{k: v for k, v in tunables.items() if v is not None})

    def create_from_info(self, name: str, info):
        """Instantiate ``name`` configured from an MPI-IO ``Info`` hint bag,
        parsing only the tunables its constructor accepts; a non-positive
        integer hint counts as absent."""
        hints = {}
        for hint in _tunables(self.get(name)):
            if hint.type is bool:
                hints[hint.name] = info.get_bool(hint.name, None)
            else:
                value = info.get_int(hint.name)
                hints[hint.name] = value if value > 0 else None
        return self.create_tuned(name, hints)

    # -- queries ---------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """All registered names, in registration order."""
        return tuple(self._classes)

    def atomic_names(self) -> Tuple[str, ...]:
        """Names of strategies that guarantee MPI atomicity."""
        return tuple(n for n, cls in self._classes.items() if cls.provides_atomicity)

    def read_capable_names(self) -> Tuple[str, ...]:
        """Names of strategies implementing the collective read pipeline:
        every registered one, since the one strategy base implements both
        directions."""
        return self.names()

    def supported_on(self, name: str, supports_locking: bool) -> bool:
        """Whether the named strategy can run on a machine with/without
        byte-range lock support.  The single encoding of the capability rule:
        both the registry queries and the benchmark harness filter use it."""
        cls = self.get(name)
        return supports_locking or not cls.requires_locks

    def names_for_machine(self, supports_locking: bool) -> List[str]:
        """Atomic strategies runnable on a machine with/without lock support."""
        return [n for n in self.atomic_names() if self.supported_on(n, supports_locking)]


#: The process-wide registry every consumer uses.
default_registry = StrategyRegistry()

#: Decorator alias: ``@register_strategy`` above a strategy class.
register_strategy = default_registry.register
