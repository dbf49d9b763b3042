"""Central registry of atomicity strategies.

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
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type, TypeVar

__all__ = [
    "StrategyRegistry",
    "default_registry",
    "register_strategy",
]

C = TypeVar("C", bound=type)


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

    def create_from_info(self, name: str, info=None):
        """Instantiate ``name`` configured from an MPI-IO ``Info`` hint bag.

        Dispatches to the class's ``from_info`` constructor (see
        :meth:`repro.core.strategies.AtomicityStrategy.from_info`), which is
        how ``cb_nodes`` / ``cb_buffer_size`` and friends reach aggregator
        election without the MPI-IO layer knowing any strategy's tunables.
        With no ``info`` this is plain :meth:`create`.
        """
        cls = self.get(name)
        return cls() if info is None else cls.from_info(info)

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
