"""Multi-view online serving: many trailing windows over one stream.

:class:`MultiViewCensus` generalizes the single-window
:class:`~repro.online.census.OnlineCensus` to *thousands* of concurrent
views over one arrival stream.  The expensive state is paid once,
shared by every view:

* the retained **graph tail** (storage-backend append path + prune
  rebase, exactly as in the single-view engine),
* the node-bucketed **prefix store** of live partial instances,
* the compiled **plan/kernel** pair from :mod:`repro.engine`, and
* the **ledger** — every discovered instance (anchor time, canonical
  code, pair sequence, node set) inside the retention horizon, kept
  sorted by ``(anchor_t, discovery seq)``.

A view is a *horizon* over a ledger: its live instances are exactly the
entries it accepted whose anchor satisfies ``anchor_t >= now - W``,
which is one bisect away.  Nothing is expired eagerly, so a moving
clock costs no per-view work.  One ``push(event)`` runs discovery once
and fans each completed instance out to the views that accept it:

* **plain window views** (no node slice, no predicate, registered from
  the start or backfilled) read the shared ledger directly: an accepted
  instance satisfies ``anchor_t >= t_discovery - W`` and
  ``t_discovery <= now``, so the shared ledger's ``now - W`` suffix is
  precisely what the view accepted.  They are kept sorted by ``W``
  descending so the fan-out loop stops at the first view whose window
  no longer reaches the instance's anchor;
* **node-sliced views** (``nodes=``) count only instances whose node
  set lies inside the view's node set; a node -> views index routes
  each instance to the few views watching its nodes;
* **restricted views** (``predicate=``) apply their restriction at
  discovery time against the shared graph, with the same
  offset-translation and stability caveats as the single-view engine.

Sliced, restricted and cold-start (``backfill=False`` on a running
stream) views hold a private ledger of the entries they accepted — the
same sorted representation, read the same way.

**Key order.**  The counters a view reports are ordered the way an
eagerly expiring ``Counter`` would order them: a key sits where it was
last re-inserted after its count fell to zero.  At fold time a view
updates one *run* map per counter family (code, pair type, pair
sequence), ``{key: max_anchor}`` in dict order; a key whose latest
anchor already lies outside the window (``max_anchor < t - W``) is dead
— an eager counter would have deleted it — so it is moved to the end.
Reads count the live suffix and order its keys by the run maps, which
keeps every counter bit-identical, key order included, to an engine
that expires each instance the moment its anchor leaves the window.

``retention`` bounds everything: it is the largest window any view may
use, the prefix store's gap bound and the ledger's horizon.  Pass
``math.inf`` for an unbounded ledger (every view added later backfills
to exact from-start parity, at the price of unbounded memory).

Views can be **degraded** under load (:meth:`degrade_view`): a degraded
view leaves the exact fan-out path entirely and answers
:meth:`view_counts` with the PR 5 root-sampling estimator over the
window slice, with per-code Horvitz–Thompson ``stderr`` bars — the same
shape the census service's overflow policy produces for queries.

:class:`~repro.online.census.OnlineCensus` is a facade over a
single-view ``MultiViewCensus`` with ``retention == window``, so there
is exactly one implementation of the push/expire/prune arithmetic.
"""

from __future__ import annotations

import bisect
import math
import time
import warnings
from collections import Counter
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import repro.obs as _obs
from repro.algorithms.counting import MotifCensus
from repro.algorithms.enumeration import Instance, enumerate_instances
from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import pair_sequence_of_code
from repro.core.events import Event
from repro.core.notation import canonical_code
from repro.core.temporal_graph import TemporalGraph
from repro.engine import compile_plan

Predicate = Callable[[TemporalGraph, Instance], bool]

__all__ = ["MultiViewCensus"]

#: A ledger compacts once this many retired entries lead it *and* they
#: are at least half of it, so retiring stays amortized O(1).
_COMPACT_MIN = 1024

_code_of = attrgetter("code")
_pair_seq_of = attrgetter("pair_seq")


class _LedgerEntry:
    """One discovered instance, shared by every ledger that holds it.

    Self-contained (anchor/last timestamps, canonical code, pair
    sequence, node tuple, global event indices) so views never resolve
    anything against the graph.  ``keys`` lists every counter key the
    instance bumps — its code, each pair type, its pair sequence — in
    fold order; the three families never collide in one dict (codes
    have at least two characters, pair types one, sequences are tuples).
    """

    __slots__ = ("anchor_t", "seq", "code", "pair_seq", "nodes", "t_last", "events", "keys")

    def __init__(self, anchor_t, seq, code, pair_seq, nodes, t_last, events) -> None:
        self.anchor_t = anchor_t
        self.seq = seq
        self.code = code
        self.pair_seq = pair_seq
        self.nodes = nodes
        self.t_last = t_last
        self.events = events
        self.keys = (code, *pair_seq, pair_seq)


class _Ledger:
    """Entries sorted by ``(anchor_t, seq)``; retired from the front.

    ``anchors`` parallels ``entries`` so a horizon is one float bisect.
    Retiring advances the start index ``lo``; the retired head is cut
    off in bulk once it dominates the list.  Inserts land at the tail
    (anchors trail discovery by at most δ), after any equal anchor, so
    ties keep discovery order.
    """

    __slots__ = ("anchors", "entries", "lo")

    def __init__(self) -> None:
        self.anchors: list[float] = []
        self.entries: list[_LedgerEntry] = []
        self.lo = 0

    def __len__(self) -> int:
        return len(self.anchors) - self.lo

    def insert(self, entry: _LedgerEntry) -> None:
        anchors = self.anchors
        anchor = entry.anchor_t
        if not anchors or anchor >= anchors[-1]:
            anchors.append(anchor)
            self.entries.append(entry)
        else:
            i = bisect.bisect_right(anchors, anchor, self.lo)
            anchors.insert(i, anchor)
            self.entries.insert(i, entry)

    def start(self, horizon: float) -> int:
        """Index of the first entry anchored at or after ``horizon``."""
        return bisect.bisect_left(self.anchors, horizon, self.lo)

    def live(self, horizon: float) -> int:
        """How many entries are anchored at or after ``horizon``."""
        return len(self.anchors) - self.start(horizon)

    def since(self, horizon: float) -> list[_LedgerEntry]:
        """The entries anchored at or after ``horizon``, in ledger order."""
        return self.entries[self.start(horizon):]

    def retire(self, horizon: float) -> int:
        """Drop every entry anchored below ``horizon``; return how many."""
        i = self.start(horizon)
        retired = i - self.lo
        if retired:
            self.lo = i
            if i >= _COMPACT_MIN and 2 * i >= len(self.anchors):
                del self.anchors[:i]
                del self.entries[:i]
                self.lo = 0
        return retired


def _ordered(runs: dict, counts: Counter) -> Counter:
    """``counts`` re-keyed in run order (the eager counter's key order)."""
    return Counter({key: counts[key] for key in runs if key in counts})


class _ViewState:
    """Everything one registered view owns: a ledger and a run map.

    ``ledger`` is the engine's shared ledger for plain views and a
    private one otherwise.  ``runs`` maps every counter key the view has
    counted (codes, pair types and pair sequences together) to the
    largest anchor of its current run, in the order an eager counter
    would hold the key (see the module docstring).  ``expired`` is only stored once a
    view degrades; exact views derive it as ``discovered - live``.
    """

    __slots__ = (
        "name",
        "window",
        "predicate",
        "nodes",
        "vseq",
        "mode",
        "q",
        "seed",
        "ledger",
        "runs",
        "discovered",
        "expired",
        "dropped",
        "collect",
        "just_counted",
    )

    def __init__(self, name, window, predicate, nodes, vseq, ledger) -> None:
        self.name = name
        self.window = window
        self.predicate = predicate
        self.nodes = nodes
        self.vseq = vseq
        self.mode = "exact"
        self.q: float | None = None
        self.seed: int | None = None
        self.ledger: _Ledger | None = ledger
        self.runs: dict = {}
        self.discovered = 0
        self.expired = 0
        self.dropped = False
        self.collect = False
        self.just_counted: list[Instance] = []


class MultiViewCensus:
    """Exact trailing-window motif counts for many views over one stream.

    Parameters
    ----------
    n_events:
        Events per motif instance, shared by every view.
    constraints:
        ΔC / ΔW timing bounds, shared by every view.
    retention:
        The largest window any view may use, and how long discovered
        instances stay in the backfill ledger.  ``math.inf`` keeps the
        ledger unbounded.
    max_nodes:
        Optional distinct-node cap per instance, shared by every view.
    backend / prune_every:
        As on :class:`~repro.online.census.OnlineCensus`; pruning uses
        the reach ``min(δ, retention)``, widened to the largest
        *degraded* view's window — degraded views estimate over the
        retained window slice at read time, so their whole window must
        survive pruning even when the timing bound δ is shorter.
    registry:
        Metrics registry to record into (``None`` = the process-global
        :data:`repro.obs.ACTIVE` recorder at construction time).  The
        census service passes its own server registry here so stream
        metrics surface in ``stats``.

    Notes
    -----
    Views sharing one engine must share ``(n_events, constraints,
    max_nodes)`` — those parameters shape the prefix store and the
    compiled kernel.  Views differ in window length, node slice and
    restriction predicate, and can be added or dropped live
    (:meth:`add_view` / :meth:`drop_view`).
    """

    def __init__(
        self,
        n_events: int,
        constraints: TimingConstraints,
        retention: float,
        *,
        max_nodes: int | None = None,
        backend: str | None = None,
        prune_every: int | None = None,
        registry=None,
    ) -> None:
        # Local import: census.py imports this module's class for the
        # facade, so the store helpers are pulled lazily to keep the
        # module import order a plain DAG at call time.
        from repro.online.census import _PrefixStore

        if n_events < 1:
            raise ValueError("n_events must be >= 1")
        if not (retention > 0) or math.isnan(retention):
            raise ValueError("retention must be positive (math.inf = unbounded)")
        if prune_every is not None and prune_every < 1:
            raise ValueError("prune_every must be a positive event count (or None)")
        self._n_events = n_events
        self._constraints = constraints
        self._retention = float(retention)
        self._max_nodes = max_nodes
        self._node_cap = n_events + 1 if max_nodes is None else max_nodes
        self._prune_every = prune_every
        self._delta = constraints.loose_timespan_bound(n_events) if n_events > 1 else 0.0
        bounds = [
            b
            for b in (constraints.delta_c, constraints.delta_w, self._retention)
            if b is not None and math.isfinite(b)
        ]
        self._prefixes = _PrefixStore(min(bounds) if bounds else math.inf)
        self._graph = TemporalGraph((), backend=backend)
        self._plan = compile_plan(
            n_events, constraints, None, self._graph.storage, max_nodes=max_nodes
        )
        self._bind_kernel()
        self._offset = 0
        self._now: float | None = None
        self._last_event_t: float | None = None
        self._saw_tie = False
        self._pushed = 0
        self._discovered = 0
        self._since_prune = 0
        self._seq = 0
        self._ledger = _Ledger()
        self._unwarned_sensitive: list[_ViewState] = []
        # View registries: every view by name, the plain (unsliced)
        # exact views sorted by window descending for the early-exit
        # fan-out loop, and the node -> sliced-views routing index.
        self._views: dict[str, _ViewState] = {}
        self._flat: list[_ViewState] = []
        self._node_index: dict[int, list[_ViewState]] = {}
        self._collecting: list[_ViewState] = []
        self._vseq = 0
        self._obs = registry if registry is not None else _obs.ACTIVE

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalGraph:
        """The shared live graph (the retained tail after pruning)."""
        return self._graph

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def constraints(self) -> TimingConstraints:
        return self._constraints

    @property
    def retention(self) -> float:
        """Upper bound on view windows == the ledger horizon."""
        return self._retention

    @property
    def now(self) -> float | None:
        return self._now

    @property
    def pushed(self) -> int:
        return self._pushed

    @property
    def discovered(self) -> int:
        """Instances ever discovered by the shared core (view-independent)."""
        return self._discovered

    @property
    def live_prefixes(self) -> int:
        return len(self._prefixes)

    @property
    def ledger_depth(self) -> int:
        """Discovered instances still inside the retention horizon."""
        return len(self._ledger)

    def view_names(self) -> tuple[str, ...]:
        """Registered view names, in registration order."""
        return tuple(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    # ------------------------------------------------------------------
    # view lifecycle
    # ------------------------------------------------------------------
    def add_view(
        self,
        name: str,
        window: float,
        *,
        predicate: Predicate | None = None,
        nodes: Iterable[int] | None = None,
        backfill: bool = True,
    ) -> _ViewState:
        """Register a view; live on a running stream.

        Parameters
        ----------
        window:
            The view's trailing-window length; must not exceed
            ``retention``.
        predicate:
            Optional restriction, same contract as the single-view
            engine's.  Predicate views cannot backfill (the verdict must
            run at discovery time, against the graph as it then was) —
            pass ``backfill=False`` explicitly to start one cold.
        nodes:
            Optional node slice: the view counts only instances whose
            node set is contained in this set.
        backfill:
            Replay the retained ledger through the new view so its
            counters match an engine that watched the stream from the
            start (exactly, for anchors inside the retention horizon).
            ``False`` starts the view empty, counting only instances
            discovered after registration.

        Returns the view's state record; read its counts through
        :meth:`counts` / :meth:`census` / :meth:`view_counts`.
        """
        if not isinstance(name, str) or not name:
            raise ValueError("view name must be a non-empty string")
        if name in self._views:
            raise ValueError(f"view {name!r} already registered")
        if not (window > 0 and math.isfinite(window)):
            raise ValueError("window must be positive and finite")
        if window > self._retention:
            raise ValueError(
                f"view window {window!r} exceeds the engine retention "
                f"{self._retention!r}; raise retention at construction"
            )
        if predicate is not None and backfill:
            raise ValueError(
                "restriction predicates run at discovery time and cannot be "
                "applied to already-discovered ledger entries; pass "
                "backfill=False to start a restricted view cold"
            )
        node_set = None if nodes is None else frozenset(nodes)
        # A plain view reads the shared ledger; any view that may have
        # skipped a ledger entry inside its window keeps its own.
        shared = node_set is None and predicate is None and (backfill or not self._ledger)
        ledger = self._ledger if shared else _Ledger()
        view = _ViewState(name, float(window), predicate, node_set, self._vseq, ledger)
        self._vseq += 1
        self._views[name] = view
        if node_set is None:
            self._flat.append(view)
            self._flat.sort(key=lambda v: (-v.window, v.vseq))
        else:
            for node in node_set:
                self._node_index.setdefault(node, []).append(view)
        if predicate is not None and getattr(
            predicate, "tick_boundary_sensitive", False
        ):
            if self._saw_tie:
                self._warn_ties(view)
            else:
                self._unwarned_sensitive.append(view)
        if backfill and self._ledger:
            self._backfill(view)
        rec = self._obs
        if rec is not None:
            rec.inc("online.view.added")
            rec.set_gauge("online.view.live", len(self._views))
        return view

    def drop_view(self, name: str) -> bool:
        """Unregister a view; returns whether it existed."""
        view = self._views.pop(name, None)
        if view is None:
            return False
        view.dropped = True
        self._unroute(view)
        if view in self._collecting:
            self._collecting.remove(view)
        rec = self._obs
        if rec is not None:
            rec.inc("online.view.dropped")
            rec.set_gauge("online.view.live", len(self._views))
        return True

    def degrade_view(self, name: str, *, q: float = 0.25, seed: int | None = None) -> None:
        """Switch a view to sampling-estimate mode (overload degradation).

        The view leaves the exact fan-out path entirely — its run maps
        and private ledger are released, and its ``discovered`` /
        ``expired`` figures freeze — and :meth:`view_counts` answers
        with the root-sampling estimator over the current window slice,
        with per-code Horvitz–Thompson standard errors.  Requires NumPy
        at read time.  A degraded view's restriction predicate (if any)
        is *not* applied to estimates.  Degradation is one-way; drop and
        re-add the view to return to exact counting.
        """
        view = self._require_view(name)
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        if view.mode == "estimate":
            view.q = float(q)
            view.seed = seed
            return
        view.expired = self._expired(view)
        view.mode = "estimate"
        view.q = float(q)
        view.seed = seed
        view.ledger = None
        view.runs = {}
        self._unroute(view)
        rec = self._obs
        if rec is not None:
            rec.inc("online.view.degraded")

    def _unroute(self, view: _ViewState) -> None:
        """Remove a view from the fan-out structures (drop/degrade)."""
        if view.nodes is None:
            if view in self._flat:
                self._flat.remove(view)
        else:
            # Membership-guarded: drop_view after degrade_view unroutes
            # twice, and a shared node bucket may still hold other views.
            for node in view.nodes:
                routed = self._node_index.get(node)
                if routed is not None and view in routed:
                    routed.remove(view)
                    if not routed:
                        del self._node_index[node]

    def _require_view(self, name: str) -> _ViewState:
        view = self._views.get(name)
        if view is None:
            raise KeyError(f"no view named {name!r} (have: {list(self._views)})")
        return view

    def _backfill(self, view: _ViewState) -> None:
        """Replay the retained ledger through a newly registered view.

        Entries are replayed in discovery order, each judged at its own
        completion time — the fold sequence a from-start engine would
        have run over these entries, so counts (and, when no live key's
        history predates the retention horizon, counter key order too)
        match an independent :class:`OnlineCensus` of the same window.
        """
        window = view.window
        nodes = view.nodes
        ledger = self._ledger
        for entry in sorted(ledger.entries[ledger.lo:], key=attrgetter("seq")):
            if nodes is not None and not nodes.issuperset(entry.nodes):
                continue
            horizon = entry.t_last - window
            if entry.anchor_t >= horizon:
                self._count(view, entry, horizon)

    # ------------------------------------------------------------------
    # the stream interface
    # ------------------------------------------------------------------
    def push(self, event: Event | tuple) -> list[Instance]:
        """Feed one arrival to every view; return the new core instances.

        The returned instances are global event-index tuples of every
        instance the shared core discovered (before any per-view window
        /slice/predicate filtering); per-view acceptance shows up in the
        views' counters.
        """
        rec = self._obs
        if rec is None:
            return self._push(event)
        start = time.perf_counter()
        out = self._push(event)
        rec.observe("online.multiview.push.seconds", time.perf_counter() - start)
        if out:
            rec.inc("online.multiview.push.instances", len(out))
        rec.set_gauge("online.prefix_store.entries", self._prefixes.entries)
        rec.set_gauge("online.multiview.ledger.depth", len(self._ledger))
        return out

    def _push(self, event: Event | tuple) -> list[Instance]:
        ev = event if isinstance(event, Event) else Event(*event)
        if self._now is not None and ev.t < self._now:
            raise ValueError(
                f"push requires non-decreasing times: got t={ev.t} "
                f"after the stream clock reached t={self._now}"
            )
        local = self._graph.append(ev)
        gidx = local + self._offset
        t_a = ev.t
        if t_a == self._last_event_t:
            self._note_tie()
        self._last_event_t = t_a
        self._now = t_a
        self._pushed += 1
        self._retire_ledger(t_a - self._retention)
        for view in self._collecting:
            view.just_counted = []

        out: list[Instance] = []
        k = self._n_events
        core_horizon = t_a - self._retention
        completions: list[tuple[Instance, tuple, float, tuple]] = []
        if k == 1:
            completions.append(((gidx,), (ev.edge,), t_a, (ev.u, ev.v)))
        else:
            u, v = ev.u, ev.v
            from repro.online.census import _Prefix

            candidates = self._prefixes.candidates(u, v, t_a)
            for pos, _idx, new_nodes in self._kernel.extend_frontier(
                candidates, local, local + 1
            ):
                prefix = candidates[pos]
                if prefix.t_root < core_horizon:
                    # Anchored before every window any view may hold:
                    # nothing grown from this prefix can ever be counted.
                    continue
                seq = prefix.seq + (gidx,)
                edges = prefix.edges + (ev.edge,)
                if len(seq) == k:
                    completions.append((seq, edges, prefix.t_root, new_nodes))
                else:
                    self._prefixes.add(
                        _Prefix(seq, edges, new_nodes, prefix.t_root, t_a)
                    )
            completions.sort(key=lambda item: item[0])
        if completions:
            self._count_completions(completions, t_a, out)
        if k > 1:
            from repro.online.census import _Prefix

            self._prefixes.add(
                _Prefix((gidx,), (ev.edge,), (ev.u, ev.v), t_a, t_a)
            )
            self._prefixes.maybe_sweep(t_a)

        self._since_prune += 1
        if self._prune_every is not None and self._since_prune >= self._prune_every:
            self.prune()
        return out

    def _count_completions(self, completions, t_a: float, out: list) -> None:
        """Build ledger entries for this push's completions and fan out."""
        flat = self._flat
        # One horizon per plain view, computed once per completing push
        # with the same ``now - W`` subtraction every read uses.
        horizons = [t_a - view.window for view in flat]
        node_index = self._node_index
        ledger = self._ledger
        fold = self._fold
        for seq, edges, t_root, nodes in completions:
            code = canonical_code(edges)
            pair_seq = pair_sequence_of_code(code)
            entry = _LedgerEntry(t_root, self._seq, code, pair_seq, nodes, t_a, seq)
            self._seq += 1
            self._discovered += 1
            ledger.insert(entry)
            out.append(seq)
            for i, view in enumerate(flat):
                horizon = horizons[i]
                if t_root < horizon:
                    # Views are sorted by window descending, so every
                    # remaining window is shorter and rejects too.
                    break
                fold(view, entry, horizon)
            if node_index:
                routed = self._route_sliced(nodes)
                for view in routed:
                    horizon = t_a - view.window
                    if t_root >= horizon:
                        fold(view, entry, horizon)

    def _route_sliced(self, nodes: tuple) -> list[_ViewState]:
        """Sliced views whose node set covers every node of the instance."""
        index = self._node_index
        candidates = index.get(nodes[0])
        if not candidates:
            return ()
        if len(nodes) == 1:
            return candidates
        out = [
            view
            for view in candidates
            if view.nodes.issuperset(nodes)
        ]
        return out

    def _fold(self, view: _ViewState, entry: _LedgerEntry, horizon: float) -> None:
        """Count one instance the view's window accepts (``horizon = t - W``)."""
        if view.predicate is not None:
            offset = self._offset
            local_inst = tuple(i - offset for i in entry.events)
            if not view.predicate(self._graph, local_inst):
                return
        self._count(view, entry, horizon)
        if view.collect:
            view.just_counted.append(entry.events)

    def _count(self, view: _ViewState, entry: _LedgerEntry, horizon: float) -> None:
        """Record an accepted instance in the view's ledger and run map.

        A key is *dead* when its latest anchor lies below ``horizon``:
        an eager counter would have deleted it, so it re-enters at the
        end of the run order.
        """
        ledger = view.ledger
        if ledger is not self._ledger:
            ledger.retire(horizon)
            ledger.insert(entry)
        view.discovered += 1
        anchor = entry.anchor_t
        runs = view.runs
        for key in entry.keys:
            last = runs.get(key)
            if last is None:
                runs[key] = anchor
            elif last < horizon:
                del runs[key]
                runs[key] = anchor
            elif anchor > last:
                runs[key] = anchor

    def advance_to(self, now: float) -> int:
        """Move the stream clock forward without an event.

        Returns the total instances that left the exact views' windows.
        """
        if not math.isfinite(now):
            raise ValueError(f"cannot advance to a non-finite time t={now}")
        if self._now is not None and now < self._now:
            raise ValueError(
                f"cannot advance backward: clock is at t={self._now}, got t={now}"
            )
        exact = [view for view in self._views.values() if view.mode == "exact"]
        before = sum(self._live(view) for view in exact)
        self._now = now
        self._retire_ledger(now - self._retention)
        return before - sum(self._live(view) for view in exact)

    def drain(
        self, events: Iterable[Event | tuple]
    ) -> Iterator[tuple[int, list[Instance]]]:
        """Push a whole (time-sorted) stream lazily, as ``(index, new)``."""
        for event in events:
            idx = self._offset + len(self._graph)
            yield idx, self.push(event)

    # ------------------------------------------------------------------
    # horizons
    # ------------------------------------------------------------------
    def _retire_ledger(self, horizon: float) -> None:
        """Drop shared-ledger entries anchored below the retention horizon.

        Every view's window is at most ``retention``, so a retired entry
        has already left (or never entered) every view's window.  The
        ``online.expire.retired`` counter counts these retirements; for
        a solo unrestricted engine (``retention == window``) that is
        exactly the view's ``expired``.
        """
        retired = self._ledger.retire(horizon)
        if retired and self._obs is not None:
            self._obs.inc("online.expire.retired", retired)

    def _live(self, view: _ViewState) -> int:
        """The exact view's live instance count: one bisect."""
        if self._now is None:
            return 0
        return view.ledger.live(self._now - view.window)

    def _expired(self, view: _ViewState) -> int:
        """Instances the view counted that have left its window."""
        if view.mode != "exact":
            return view.expired
        return view.discovered - self._live(view)

    def _live_entries(self, view: _ViewState) -> list[_LedgerEntry]:
        """The exact view's live instances, in ``(anchor_t, seq)`` order."""
        if self._now is None:
            return []
        horizon = self._now - view.window
        ledger = view.ledger
        if ledger is not self._ledger:
            ledger.retire(horizon)
        return ledger.since(horizon)

    def _exact_view(self, name: str) -> _ViewState:
        view = self._require_view(name)
        if view.mode != "exact":
            raise ValueError(
                f"view {name!r} is degraded to estimate mode and keeps no "
                "exact counters; use view_counts()"
            )
        return view

    # ------------------------------------------------------------------
    # tick-boundary-sensitive restrictions
    # ------------------------------------------------------------------
    def _note_tie(self) -> None:
        """Record a timestamp tie; warn any pending tick-sensitive views."""
        self._saw_tie = True
        pending = self._unwarned_sensitive
        if pending:
            self._unwarned_sensitive = []
            for view in pending:
                if not view.dropped:
                    self._warn_ties(view)

    def _warn_ties(self, view: _ViewState) -> None:
        """Warn once when a tick-sensitive predicate meets timestamp ties.

        Predicates marked ``tick_boundary_sensitive`` (the consecutive-
        events and CDG restrictions) can flip an already committed
        verdict when a *later* arrival shares the boundary timestamp, so
        their online counts may diverge from a batch recount on streams
        with ties.  The engine surfaces that loudly instead of silently
        diverging.
        """
        predicate = view.predicate
        warnings.warn(
            f"view {view.name!r} uses a tick-boundary-sensitive restriction "
            f"({getattr(predicate, '__name__', predicate)!r}) on a stream "
            "with timestamp ties: a same-tick arrival after discovery can "
            "flip a committed verdict, so online counts may diverge from a "
            "batch recount of the window (see the OnlineCensus predicate "
            "contract)",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counts(self, name: str) -> Counter:
        """Per-code counts of one exact view (a copy)."""
        view = self._exact_view(name)
        return _ordered(view.runs, Counter(map(_code_of, self._live_entries(view))))

    def census(self, name: str) -> MotifCensus:
        """One exact view's counters as a :class:`MotifCensus` snapshot."""
        view = self._exact_view(name)
        live = self._live_entries(view)
        pair_seqs = Counter(map(_pair_seq_of, live))
        pairs: Counter = Counter()
        for pair_seq, count in pair_seqs.items():
            for ptype in pair_seq:
                pairs[ptype] += count
        return MotifCensus(
            n_events=self._n_events,
            constraints=self._constraints,
            code_counts=_ordered(view.runs, Counter(map(_code_of, live))),
            pair_counts=_ordered(view.runs, pairs),
            pair_sequence_counts=_ordered(view.runs, pair_seqs),
            total=len(live),
        )

    def proportions(self, name: str) -> dict[str, float]:
        return self.census(name).proportions()

    def view_counts(self, name: str) -> dict:
        """One view's counts as a wire-ready dict (exact or estimated).

        Exact views return ``{"exact": True, "codes": {...}, "total": n,
        ...}``; degraded views return ``{"exact": False, "codes":
        {code: estimate}, "stderr": {...}, "q": q, "method":
        "root_sampling"}`` computed on demand over the current window
        slice (requires NumPy).
        """
        view = self._require_view(name)
        base = {
            "view": name,
            "window": view.window,
            "mode": view.mode,
            "discovered": view.discovered,
            "expired": self._expired(view),
        }
        if view.mode == "exact":
            live = self._live_entries(view)
            codes = Counter(map(_code_of, live))
            base.update(
                exact=True,
                codes={key: codes[key] for key in view.runs if key in codes},
                total=len(live),
            )
            return base
        codes, stderr = self._estimate_view(view)
        base.update(
            exact=False,
            codes=codes,
            stderr=stderr,
            q=view.q,
            method="root_sampling",
        )
        return base

    def _estimate_view(self, view: _ViewState) -> tuple[dict, dict]:
        """Root-sampling estimate over the view's current window slice."""
        from repro.core._optional import import_numpy

        np = import_numpy()
        if not np:
            raise RuntimeError(
                "degraded views estimate via root sampling, which requires NumPy"
            )
        if self._now is None:
            return {}, {}
        from repro.algorithms.sampling import estimate_counts_root_sampling

        window_graph = self._graph.slice(self._now - view.window, self._now)
        if view.nodes is not None:
            nodes = view.nodes
            kept = tuple(
                ev
                for ev in window_graph.events
                if ev.u in nodes and ev.v in nodes
            )
            window_graph = TemporalGraph(kept)
        q = view.q or 0.25
        estimates = estimate_counts_root_sampling(
            window_graph,
            self._n_events,
            self._constraints,
            q,
            max_nodes=self._max_nodes,
            rng=np.random.default_rng(view.seed),
        )
        # Horvitz–Thompson per-code standard error: raw sampled count n
        # has variance n(1-q)/q^2 around the estimate n/q.
        stderr = {
            code: (max(est * q, 0.0) * (1.0 - q)) ** 0.5 / q
            for code, est in estimates.items()
        }
        return estimates, stderr

    def describe(self) -> dict:
        """Engine + per-view summary (what the service's ``stats`` shows)."""
        return {
            "retention": self._retention,
            "now": self._now,
            "pushed": self._pushed,
            "discovered": self._discovered,
            "ledger": len(self._ledger),
            "prefixes": len(self._prefixes),
            "views": {
                name: {
                    "window": view.window,
                    "mode": view.mode,
                    "live": self._live(view) if view.mode == "exact" else 0,
                    "discovered": view.discovered,
                    "expired": self._expired(view),
                    "sliced": view.nodes is not None,
                    "restricted": view.predicate is not None,
                }
                for name, view in self._views.items()
            },
        }

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Drop retained events no future arrival or view can touch."""
        rec = self._obs
        if rec is None:
            return self._prune()
        start = time.perf_counter()
        dropped = self._prune()
        rec.observe("online.prune.seconds", time.perf_counter() - start)
        if dropped:
            rec.inc("online.prune.dropped", dropped)
            rec.inc("online.prune.rebases")
        return dropped

    def _prune(self) -> int:
        from repro.online.census import _PRUNE_SLACK

        if self._now is None:
            return 0
        # Exact views only need the timing bound δ of tail (completed
        # instances live in the ledgers), but degraded views re-read
        # graph.slice(now - window, now) at estimate time — keep the
        # largest degraded window's worth of events alive.
        reach = self._delta
        for view in self._views.values():
            if view.mode == "estimate" and view.window > reach:
                reach = view.window
        if reach > self._retention:
            reach = self._retention
        cutoff = self._now - reach
        if math.isfinite(cutoff):
            cutoff -= _PRUNE_SLACK * math.ulp(abs(cutoff) + 1.0)
        storage = self._graph.storage
        kept = storage.slice_time(cutoff, math.inf).to_events()
        dropped = len(storage) - len(kept)
        self._since_prune = 0
        if dropped <= 0:
            return 0
        rebuilt = type(storage).from_events(kept, presorted=True)
        self._graph = TemporalGraph._from_storage(rebuilt, name=self._graph.name)
        self._bind_kernel()
        self._offset += dropped
        return dropped

    def _bind_kernel(self) -> None:
        """(Re)bind the plan's kernel to the current retained storage."""
        self._kernel = self._plan.bind(self._graph.storage)

    # ------------------------------------------------------------------
    # checkpoints (the single-view format; see repro.online.checkpoint)
    # ------------------------------------------------------------------
    def _solo_view(self) -> _ViewState:
        if len(self._views) != 1:
            raise ValueError(
                f"checkpoints hold one view; this engine has {len(self._views)}"
            )
        (view,) = self._views.values()
        return view

    def checkpoint_state(self) -> dict:
        """The stream state a single-view checkpoint records.

        ``ledger`` lists the view's live instances as ``(anchor_t, code,
        pair_seq)`` in ``(anchor_t, seq)`` order.
        """
        view = self._solo_view()
        live = self._live_entries(view)
        return {
            "now": self._now,
            "offset": self._offset,
            "pushed": self._pushed,
            "discovered": view.discovered,
            "expired": view.discovered - len(live),
            "total": len(live),
            "ledger": [(e.anchor_t, e.code, e.pair_seq) for e in live],
        }

    def resume(
        self,
        graph: TemporalGraph,
        *,
        now: float | None,
        offset: int,
        pushed: int,
        discovered: int,
        ledger: Iterable[tuple[float, str, tuple]],
    ) -> None:
        """Install a checkpointed stream into a fresh single-view engine.

        ``graph`` is the retained tail (already on this engine's storage
        backend), ``ledger`` the view's live instances as ``(anchor_t,
        code, pair_seq)`` in anchor order — each counted without
        re-running the view's predicate, whose verdict was committed at
        discovery — and ``discovered`` the view's lifetime count.  The
        prefix store is regrown from the tail.
        """
        view = self._solo_view()
        if self._pushed or self._ledger:
            raise ValueError("resume() needs a fresh engine")
        self._graph = graph
        self._bind_kernel()
        self._offset = offset
        self._now = self._last_event_t = now
        self._pushed = pushed
        horizon = -math.inf if now is None else now - view.window
        for anchor_t, code, pair_seq in ledger:
            # Node tuples and event indices are fan-out-time data (slice
            # routing, predicate verdicts); a resumed solo engine never
            # re-folds these entries, so they stay empty.
            entry = _LedgerEntry(anchor_t, self._seq, code, pair_seq, (), anchor_t, ())
            self._seq += 1
            self._ledger.insert(entry)
            self._count(view, entry, horizon)
        view.discovered = self._discovered = discovered
        self._rebuild_prefixes()

    def _rebuild_prefixes(self) -> None:
        """Regrow the prefix store from the retained tail (restore path)."""
        from repro.online.census import _Prefix

        if self._n_events == 1 or self._now is None:
            return
        graph = self._graph
        now = self._now
        horizon = now - self._retention
        event_at = graph.storage.event_at
        offset = self._offset
        rebuilt: list[_Prefix] = []
        for j in range(1, self._n_events):
            for inst in enumerate_instances(
                graph, j, self._constraints, max_nodes=self._node_cap
            ):
                first = event_at(inst[0])
                last = event_at(inst[-1])
                if first.t < horizon:
                    continue
                if now > self._constraints.next_event_deadline(first.t, last.t):
                    continue
                edges = tuple(event_at(i).edge for i in inst)
                nodes: tuple[int, ...] = ()
                for idx in inst:
                    ev = event_at(idx)
                    for n in (ev.u, ev.v):
                        if n not in nodes:
                            nodes = nodes + (n,)
                rebuilt.append(
                    _Prefix(
                        tuple(i + offset for i in inst),
                        edges,
                        nodes,
                        first.t,
                        last.t,
                    )
                )
        rebuilt.sort(key=lambda p: (p.t_last, p.seq))
        for prefix in rebuilt:
            self._prefixes.add(prefix)
        self._prefixes._sweep_clock = now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MultiViewCensus {self._n_events}-event "
            f"{self._constraints.describe()} retention={self._retention:g}: "
            f"{len(self._views)} views, {self._pushed} events pushed, "
            f"{len(self._ledger)} ledger entries>"
        )
