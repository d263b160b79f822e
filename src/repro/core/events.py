"""Event record types for temporal networks.

Following Section 2 of the paper, a temporal network ``G(V, E)`` is a set of
nodes ``V`` and a time-ordered list of events ``E``.  Each event is a 4-tuple
``(u, v, t, dt)`` — source node, target node, start time, duration.  Because
inter-event times dominate durations in practically all of the paper's
datasets, the paper (and this library's default path) uses the 3-tuple form
``(u, v, t)``; the durative form is kept for the Hulovatyy model, which is
the one model that incorporates durations (Section 4.2).

Events compare by ``(t, index-of-insertion)`` once inside a
:class:`repro.core.temporal_graph.TemporalGraph`; as free-standing records
they compare lexicographically ``(t, u, v)`` so sorted event lists are
deterministic.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class Event(NamedTuple):
    """A temporal edge ``(u, v, t)``: ``u`` contacts ``v`` at time ``t``.

    ``u`` and ``v`` are hashable node identifiers (typically ``int``);
    ``t`` is a number (seconds in all paper datasets, resolution 1 s).
    """

    u: int
    v: int
    t: float

    @property
    def edge(self) -> tuple[int, int]:
        """The static projection ``(u, v)`` of this event."""
        return (self.u, self.v)

    @property
    def nodes(self) -> tuple[int, int]:
        """Both endpoints, source first."""
        return (self.u, self.v)

    def reversed(self) -> "Event":
        """The same contact with source and target swapped."""
        return Event(self.v, self.u, self.t)

    def shifted(self, delta: float) -> "Event":
        """A copy of this event translated in time by ``delta``."""
        return Event(self.u, self.v, self.t + delta)

    def is_loop(self) -> bool:
        """True when source equals target (self-loop)."""
        return self.u == self.v


class DurativeEvent(NamedTuple):
    """A temporal edge with a duration, the full 4-tuple of Section 2.

    The Hulovatyy model measures temporal adjacency from the *end* of the
    earlier event to the *start* of the later one; :attr:`end` exists for
    that computation.
    """

    u: int
    v: int
    t: float
    duration: float

    @property
    def edge(self) -> tuple[int, int]:
        """The static projection ``(u, v)`` of this event."""
        return (self.u, self.v)

    @property
    def end(self) -> float:
        """The time at which this event finishes, ``t + duration``."""
        return self.t + self.duration

    def without_duration(self) -> Event:
        """Drop the duration, yielding the 3-tuple convention."""
        return Event(self.u, self.v, self.t)


def check_timestamp(ev: Event) -> None:
    """Reject a negative or non-finite (NaN, ±inf) event timestamp.

    A NaN compares false against everything, so it would slip past every
    ordering check and poison a stream clock; one chained comparison
    catches it with the negative and infinite cases.
    """
    if not 0 <= ev.t < math.inf:
        kind = "negative" if ev.t < 0 else "non-finite"
        raise ValueError(f"event {ev} has a {kind} timestamp")


def validate_events(events: Iterable[Event], *, allow_loops: bool = False) -> list[Event]:
    """Validate and normalize an iterable of events into a sorted list.

    Events are sorted by ``(t, u, v)``.  Raises :class:`ValueError` on
    negative or non-finite (NaN, ±inf) timestamps or (by default)
    self-loops, since none of the four motif models in the paper admits
    self-loops.

    Parameters
    ----------
    events:
        Any iterable of :class:`Event` or plain 3-tuples.
    allow_loops:
        Permit ``u == v`` events (disabled by default).
    """
    out: list[Event] = []
    inf = math.inf
    for raw in events:
        ev = raw if isinstance(raw, Event) else Event(*raw)
        if not 0 <= ev.t < inf:
            check_timestamp(ev)  # raises; inlined test keeps the loop call-free
        if ev.is_loop() and not allow_loops:
            raise ValueError(f"event {ev} is a self-loop; motif models exclude loops")
        out.append(ev)
    out.sort(key=lambda e: (e.t, e.u, e.v))
    return out


def interevent_times(events: list[Event]) -> list[float]:
    """Time gaps between consecutive events of a time-sorted event list.

    This is the quantity whose median appears in Table 2 (column m(Δt));
    it guides the choice of ΔC / ΔW per dataset.
    """
    return [b.t - a.t for a, b in zip(events, events[1:])]


def strip_durations(events: Iterable[DurativeEvent]) -> list[Event]:
    """Project durative events to the instantaneous 3-tuple convention."""
    return [ev.without_duration() for ev in events]
