"""Per-rank virtual clocks.

Performance in this reproduction is measured in *virtual time*: every rank
owns a :class:`VirtualClock` that the file-system substrate and the MPI
runtime charge with the simulated cost of each operation (see
``DESIGN.md`` §4).  Synchronising operations (barriers, collective
completions, lock grants) advance a rank's clock to the maximum of the
participating clocks, which is how serialisation — the phenomenon the paper
measures — becomes visible in the reported bandwidth numbers.

Clocks are plain mutable objects owned by exactly one rank's thread; shared
resources keep their own "next free time" and the *maximum* rule is applied
at the interaction points, so no locking of the clock itself is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["VirtualClock", "synchronize_clocks"]


@dataclass
class VirtualClock:
    """A monotonically non-decreasing virtual clock (seconds)."""

    now: float = 0.0
    #: Cumulative time spent waiting (lock waits, barrier waits); useful for
    #: the per-strategy breakdowns in the benchmark reports.
    waited: float = field(default=0.0, compare=False)

    def advance(self, seconds: float) -> float:
        """Add ``seconds`` of busy time; returns the new time."""
        if seconds < 0:
            raise ValueError("cannot advance a clock by a negative duration")
        self.now += seconds
        return self.now

    def advance_to(self, when: float, *, waiting: bool = False) -> float:
        """Move the clock forward to ``when`` (no-op if already later).

        With ``waiting=True`` the skipped span is accounted as wait time.
        """
        if when > self.now:
            if waiting:
                self.waited += when - self.now
            self.now = when
        return self.now

    def reset(self) -> None:
        """Zero the clock (used between benchmark repetitions)."""
        self.now = 0.0
        self.waited = 0.0


def synchronize_clocks(clocks: Sequence[VirtualClock], costs: Sequence[float]) -> float:
    """Settle the clocks of one collective: the rule both drivers share.

    Every clock syncs to the latest arrival, the gap counted as wait, and is
    then charged its own rank's cost, ``costs[i]`` for ``clocks[i]``.  One
    pass over all clocks, with no call per clock.  Returns the synchronised
    time (0.0 for no clocks).
    """
    latest = max((clock.now for clock in clocks), default=0.0)
    for clock, cost in zip(clocks, costs):
        if latest > clock.now:
            clock.waited += latest - clock.now
        clock.now = latest + cost
    return latest
