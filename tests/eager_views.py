"""An eager multi-view reference and the seeded scenarios that drive it.

:class:`EagerViews` is a deliberately naive model of the online
multi-view contract that shares no bookkeeping with
:mod:`repro.online`: instances come from a batch
:func:`~repro.algorithms.enumeration.enumerate_instances` over the whole
stream, and every view owns three ``Counter`` s plus an anchor-keyed
min-heap.  Each arrival first expires every view at ``now - W``, then
folds the arrival's completions into every view that accepts them; a
counter key is deleted the moment its count reaches zero, so
``Counter`` insertion order *is* the contract's key order.  A
backfilled view replays the retained ledger in discovery order with the
horizon interleaved at each entry's completion time.

:func:`run_scenario` drives either this reference or a real
:class:`~repro.online.MultiViewCensus` through the same schedule of
pushes, view adds/drops/degrades, prunes and clock advances, and records
every view's full census and ``view_counts`` bookkeeping at fixed read
points.  :func:`digest_records` condenses a recording into one sha256
per view, which ``tests/test_view_oracle.py`` pins against golden
values.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter

from repro.algorithms.enumeration import enumerate_instances
from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import classify_pair
from repro.core.events import Event
from repro.core.notation import canonical_code
from repro.core.temporal_graph import TemporalGraph

CONSTRAINTS = TimingConstraints(delta_c=3.0, delta_w=6.0)
N_EVENTS = 3
MAX_NODES = 3


def seeded_stream(seed: int = 1414, n: int = 420, n_nodes: int = 6) -> list[Event]:
    """A sorted, tie-heavy stream with repeated edges."""
    rng = random.Random(seed)
    t = 0.0
    events = []
    for _ in range(n):
        t += rng.choice([0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 2.0, 4.0])
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes - 1)
        if v >= u:
            v += 1
        events.append(Event(u, v, t))
    events.sort(key=lambda e: (e.t, e.u, e.v))
    return events


def anchor_even(graph, instance) -> bool:
    """Restriction used by the scenarios: the anchor's source is even."""
    return graph.storage.event_at(instance[0]).u % 2 == 0


class _Entry:
    __slots__ = ("anchor_t", "seq", "t_last", "code", "pair_seq", "nodes", "events")

    def __init__(self, anchor_t, seq, t_last, code, pair_seq, nodes, events) -> None:
        self.anchor_t = anchor_t
        self.seq = seq
        self.t_last = t_last
        self.code = code
        self.pair_seq = pair_seq
        self.nodes = nodes
        self.events = events


class _EagerView:
    def __init__(self, window, nodes, predicate) -> None:
        self.window = window
        self.nodes = nodes
        self.predicate = predicate
        self.mode = "exact"
        self.codes: Counter = Counter()
        self.pairs: Counter = Counter()
        self.pair_seqs: Counter = Counter()
        self.heap: list = []
        self.discovered = 0
        self.expired = 0

    def accepts(self, entry: _Entry, horizon: float, graph: TemporalGraph) -> bool:
        if entry.anchor_t < horizon:
            return False
        if self.nodes is not None and not self.nodes.issuperset(entry.nodes):
            return False
        return self.predicate is None or self.predicate(graph, entry.events)

    def fold(self, entry: _Entry) -> None:
        self.codes[entry.code] += 1
        for ptype in entry.pair_seq:
            self.pairs[ptype] += 1
        self.pair_seqs[entry.pair_seq] += 1
        self.discovered += 1
        heapq.heappush(self.heap, (entry.anchor_t, entry.seq, entry))

    def expire(self, horizon: float) -> None:
        heap = self.heap
        while heap and heap[0][0] < horizon:
            entry = heapq.heappop(heap)[2]
            for counter, keys in (
                (self.codes, (entry.code,)),
                (self.pairs, entry.pair_seq),
                (self.pair_seqs, (entry.pair_seq,)),
            ):
                for key in keys:
                    counter[key] -= 1
                    if not counter[key]:
                        del counter[key]
            self.expired += 1


class EagerViews:
    """The reference: batch-discovered instances, eager per-view counters.

    Mirrors the public surface of :class:`~repro.online.MultiViewCensus`
    that :func:`run_scenario` uses.  ``events`` is the whole stream the
    scenario will push, in order.
    """

    def __init__(self, events, retention: float) -> None:
        self._events = list(events)
        self._retention = retention
        # The reference evaluates predicates against the whole stream;
        # the scenario's predicate reads only the instance's own events.
        self._graph = TemporalGraph(self._events, backend="list")
        by_last: dict[int, list] = {}
        for inst in enumerate_instances(self._graph, N_EVENTS, CONSTRAINTS, max_nodes=MAX_NODES):
            by_last.setdefault(inst[-1], []).append(inst)
        self._by_last = by_last
        self._pos = 0
        self._now = None
        self._seq = 0
        self._ledger: list = []
        self._views: dict[str, _EagerView] = {}

    def add_view(self, name, window, *, predicate=None, nodes=None, backfill=True):
        view = _EagerView(window, None if nodes is None else frozenset(nodes), predicate)
        self._views[name] = view
        if backfill:
            for _a, _s, entry in sorted(self._ledger, key=lambda item: item[1]):
                if view.nodes is not None and not view.nodes.issuperset(entry.nodes):
                    continue
                horizon = entry.t_last - window
                view.expire(horizon)
                if entry.anchor_t >= horizon:
                    view.fold(entry)
            if self._now is not None:
                view.expire(self._now - window)
        return view

    def drop_view(self, name) -> bool:
        return self._views.pop(name, None) is not None

    def degrade_view(self, name, *, q=0.25, seed=None) -> None:
        view = self._views[name]
        view.mode = "estimate"
        view.heap = []
        view.codes, view.pairs, view.pair_seqs = Counter(), Counter(), Counter()

    def view_names(self):
        return tuple(self._views)

    def prune(self) -> int:
        return 0

    def _retire(self, now: float) -> None:
        self._now = now
        horizon = now - self._retention
        while self._ledger and self._ledger[0][0] < horizon:
            heapq.heappop(self._ledger)
        for view in self._views.values():
            if view.mode == "exact":
                view.expire(now - view.window)

    def advance_to(self, now: float) -> int:
        self._retire(now)
        return 0

    def push(self, event) -> list:
        idx = self._pos
        assert tuple(event) == tuple(self._events[idx]), "scenario stream mismatch"
        self._pos += 1
        t = self._events[idx].t
        self._retire(t)
        out = []
        for inst in sorted(self._by_last.get(idx, ())):
            evs = [self._events[i] for i in inst]
            if evs[0].t < t - self._retention:
                continue
            edges = tuple(ev.edge for ev in evs)
            nodes: tuple = ()
            for ev in evs:
                for node in (ev.u, ev.v):
                    if node not in nodes:
                        nodes += (node,)
            pair_seq = tuple(classify_pair(a, b) for a, b in zip(edges, edges[1:]))
            entry = _Entry(evs[0].t, self._seq, t, canonical_code(edges), pair_seq, nodes, inst)
            self._seq += 1
            heapq.heappush(self._ledger, (entry.anchor_t, entry.seq, entry))
            out.append(inst)
            for view in self._views.values():
                if view.mode == "exact" and view.accepts(entry, t - view.window, self._graph):
                    view.fold(entry)
        return out

    def census_items(self, name) -> tuple:
        """Same shape as :func:`engine_census_items`."""
        view = self._views[name]
        return (
            list(view.codes.items()),
            list(view.pairs.items()),
            list(view.pair_seqs.items()),
            sum(view.codes.values()),
        )

    def bookkeeping(self, name) -> tuple:
        """Same shape as :func:`engine_bookkeeping`."""
        view = self._views[name]
        return (view.mode, view.window, view.discovered, view.expired)


def engine_census_items(engine, name) -> tuple:
    """``(codes, pairs, pair_seqs, total)`` of one engine view, in key order."""
    census = engine.census(name)
    return (
        list(census.code_counts.items()),
        list(census.pair_counts.items()),
        list(census.pair_sequence_counts.items()),
        census.total,
    )


def engine_bookkeeping(engine, name) -> tuple:
    """``(mode, window, discovered, expired)`` of one engine view."""
    info = engine.describe()["views"][name]
    if info["mode"] == "exact":
        info = engine.view_counts(name)
    return (info["mode"], info["window"], info["discovered"], info["expired"])


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
#: Views registered before the first push: (name, window, options).
INITIAL_VIEWS = (
    ("w15", 15.0, {}),
    ("w7", 7.0, {}),
    ("w3", 3.0, {}),
    ("slice-a", 7.0, {"nodes": (0, 1, 2, 3)}),
    ("slice-b", 15.0, {"nodes": (2, 3, 4, 5)}),
    ("pred", 7.0, {"predicate": anchor_even, "backfill": False}),
)

#: Operations applied right after the push at the given stream position.
SCHEDULE = {
    60: [("prune",)],
    110: [
        ("add", "late-plain", 7.0, {}),
        ("add", "late-slice", 15.0, {"nodes": (0, 1, 4, 5)}),
        ("add", "cold", 15.0, {"backfill": False}),
        ("add", "cold-slice", 7.0, {"nodes": (1, 2, 3, 5), "backfill": False}),
        ("add", "cold-pred", 15.0, {"predicate": anchor_even, "backfill": False}),
    ],
    150: [("advance", 0.25), ("prune",)],
    190: [("degrade", "w7"), ("prune",), ("prune",)],
    230: [("drop", "slice-a"), ("drop", "late-plain")],
    240: [("add", "late-plain", 3.0, {})],
    280: [("advance", 4.0), ("degrade", "cold-slice")],
    320: [("drop", "cold-slice"), ("add", "slice-a", 15.0, {"nodes": (0, 2, 4, 5)})],
    360: [("prune",), ("advance", 0.0)],
}

READ_EVERY = 7


def _pairs(items) -> list:
    """Make pair-type keys digest-stable (enum members -> their letters)."""
    return [
        (tuple(None if p is None else p.value for p in k) if isinstance(k, tuple)
         else (None if k is None else k.value), v)
        for k, v in items
    ]


def run_scenario(engine, events, *, census_items, bookkeeping, schedule=SCHEDULE):
    """Drive ``engine`` through the schedule; return ``{view: [records]}``.

    ``census_items(engine, name)`` returns ``(codes, pairs, pair_seqs,
    total)`` item lists for an exact view, and ``bookkeeping(engine,
    name)`` returns ``(mode, window, discovered, expired)``.  The
    ``"__core__"`` record list holds every push's returned instances.
    """
    records: dict[str, list] = {"__core__": []}
    modes: dict[str, str] = {}
    for name, window, options in INITIAL_VIEWS:
        engine.add_view(name, window, **options)
        modes[name] = "exact"
    for pos, ev in enumerate(events):
        out = engine.push(ev)
        records["__core__"].append((pos, [tuple(inst) for inst in out]))
        for op in schedule.get(pos, ()):
            if op[0] == "prune":
                engine.prune()
            elif op[0] == "advance":
                nxt = events[pos + 1].t if pos + 1 < len(events) else ev.t
                engine.advance_to(ev.t + min(op[1], nxt - ev.t))
            elif op[0] == "add":
                engine.add_view(op[1], op[2], **op[3])
                modes[op[1]] = "exact"
            elif op[0] == "drop":
                engine.drop_view(op[1])
                modes.pop(op[1])
            elif op[0] == "degrade":
                engine.degrade_view(op[1], q=1.0, seed=3)
                modes[op[1]] = "estimate"
        if pos % READ_EVERY and pos != len(events) - 1:
            continue
        for name in engine.view_names():
            rec: tuple = (pos, bookkeeping(engine, name))
            if modes[name] == "exact":
                codes, pairs, pair_seqs, total = census_items(engine, name)
                rec += (codes, _pairs(pairs), _pairs(pair_seqs), total)
            records.setdefault(name, []).append(rec)
    return records


def digest_records(records: dict[str, list]) -> dict[str, str]:
    """One sha256 per recorded view (and the core push log)."""
    return {
        name: hashlib.sha256(repr(recs).encode()).hexdigest()
        for name, recs in sorted(records.items())
    }



def facade_record(engine) -> tuple:
    """One :class:`~repro.online.OnlineCensus` read: census + bookkeeping."""
    census = engine.census()
    assert list(engine.counts().items()) == list(census.code_counts.items())
    return (
        engine.now,
        engine.pushed,
        engine.discovered,
        engine.expired,
        engine.live_instances,
        list(census.code_counts.items()),
        _pairs(census.pair_counts.items()),
        _pairs(census.pair_sequence_counts.items()),
        census.total,
    )


def run_facade(engine, events) -> list:
    """Push ``events`` into a solo engine, recording after every push."""
    records = []
    for ev in events:
        out = engine.push(ev)
        records.append(([tuple(inst) for inst in out], facade_record(engine)))
    return records
