"""Counting APIs: the one-pass motif census and its projections.

Most experiments in the paper need several summaries of the same instance
set (counts per motif code, event-pair counts, pair-sequence matrices,
timespans, intermediate-event positions).  :func:`run_census` collects
all of them into a :class:`MotifCensus` in a single enumeration pass, so
each experiment costs one scan.  It is the one fold behind every counting
entry point: :func:`count_motifs`, :func:`count_event_pairs` and
:func:`total_instances` each return one field of its census.

The fold keys every instance on its canonical motif code alone.  An
instance's event-pair sequence is a function of its code
(:func:`~repro.core.eventpairs.pair_sequence_of_code`), so pair types are
read once per distinct code, never classified per instance.  A census
runs on one of three paths, bit-identical to each other (counter key
order included): the sharded engine (:mod:`repro.parallel`) for several
workers or out-of-core storage, the batched block fold
(:mod:`repro.algorithms.batched`) when the kernel streams instance
blocks, and otherwise a loop over the enumerated instance tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.algorithms import batched
from repro.algorithms.enumeration import Instance, enumerate_instances
from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import CW_GROUP, RPIO_GROUP, pair_sequence_of_code
from repro.core.notation import canonical_code
from repro.core.temporal_graph import TemporalGraph
from repro.engine import ExecutionPlan, compile_plan, run_plan_blocks

Predicate = Callable[[TemporalGraph, Instance], bool]

#: Default cap on per-code sample lists (timespans, positions) to bound memory.
DEFAULT_SAMPLE_CAP = 200_000


def _parallel_jobs(jobs: int | None) -> int:
    """Resolve the effective worker count (argument > session default > env)."""
    from repro.parallel.executor import resolve_jobs

    return resolve_jobs(jobs)


def _route_sharded(graph: TemporalGraph, jobs: int | None, roots_sorted: bool) -> bool:
    """Whether a counting call goes through the sharded engine.

    Two triggers: more than one worker (the classic parallel path), or a
    storage backend that prefers sharded execution even serially — the
    out-of-core partitioned directory, whose bounded-memory guarantee
    depends on never entering the serial loop's whole-stream
    materialization.  Sorted roots remain a precondition either way
    (per-shard merges reproduce the serial order only then).
    """
    if not roots_sorted:
        return False
    if _parallel_jobs(jobs) > 1:
        return True
    return graph.storage.prefers_sharded_execution


def _normalize_roots(roots: Iterable[int] | None) -> tuple[list[int] | None, bool]:
    """Materialize a roots iterable; report whether it is non-decreasing.

    The sharded parallel path merges per-shard results in ascending
    anchor order, so it reproduces the serial pass bit-for-bit only when
    the requested roots are already sorted (the sampling estimators'
    shape).  Unsorted roots simply stay on the serial path.
    """
    if roots is None:
        return None, True
    root_list = list(roots)
    return root_list, all(a <= b for a, b in zip(root_list, root_list[1:]))


def count_motifs(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    max_nodes: int | None = None,
    node_counts: Iterable[int] | None = None,
    predicate: Predicate | None = None,
    jobs: int | None = None,
    roots: Iterable[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> Counter:
    """Count motif instances per canonical code (the census's ``code_counts``).

    Parameters
    ----------
    node_counts:
        Keep only motifs with a number of distinct nodes in this collection
        (e.g. ``{3}`` for the paper's 3n3e family).  ``max_nodes`` prunes
        during the search; ``node_counts`` filters the result.
    predicate:
        Optional restriction (consecutive-events, CDG, inducedness, or a
        model's validity check).
    jobs:
        Worker processes for a sharded count (``None`` = session default /
        ``REPRO_JOBS`` / serial; ``<= 0`` = one per CPU).  The result is
        bit-identical to the serial count, including key order.  Sorted
        ``roots`` shard alongside the full search (the sampling
        estimators route here); unsorted roots stay serial.
    roots:
        Restrict to instances anchored at these event indices (see
        :func:`~repro.algorithms.enumeration.enumerate_instances`).
    plan:
        Precompiled :class:`~repro.engine.plan.ExecutionPlan` (advanced;
        see :func:`repro.engine.compile_plan`).
    """
    census = run_census(
        graph,
        n_events,
        constraints,
        max_nodes=max_nodes,
        predicate=predicate,
        jobs=jobs,
        roots=roots,
        plan=plan,
    )
    return _with_node_counts(census.code_counts, node_counts)


def _with_node_counts(counts: Counter, node_counts: Iterable[int] | None) -> Counter:
    """``counts`` restricted to codes whose distinct-node count is wanted."""
    if node_counts is None:
        return counts
    wanted = set(node_counts)
    return Counter({code: n for code, n in counts.items() if len(set(code)) in wanted})


def count_event_pairs(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    jobs: int | None = None,
    roots: Iterable[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> Counter:
    """Count event-pair types across all consecutive pairs of all instances.

    This is the quantity of Table 5 (the census's ``pair_counts``): each
    ``m``-event instance contributes ``m − 1`` pair observations.
    Disjoint consecutive pairs (possible only in 4-node motifs) are
    counted under ``None``.
    """
    return run_census(
        graph,
        n_events,
        constraints,
        max_nodes=max_nodes,
        predicate=predicate,
        jobs=jobs,
        roots=roots,
        plan=plan,
    ).pair_counts


@dataclass
class MotifCensus:
    """All per-instance summaries of one enumeration pass.

    Attributes
    ----------
    code_counts:
        instances per canonical motif code.
    pair_counts:
        event-pair observations per :class:`PairType` (``None`` = disjoint).
    pair_sequence_counts:
        instances per ordered tuple of pair types (Figure 6 heat maps).
    timespans:
        per code, sampled list of instance timespans (Figure 5).
    intermediate_positions:
        per code, sampled list of ``(event_position, relative_time)`` where
        ``event_position`` is 1-based among intermediate events and
        ``relative_time`` is ``(t_i − t_1)/(t_m − t_1)`` (Figure 4).
    total:
        total instance count.
    """

    n_events: int
    constraints: TimingConstraints
    code_counts: Counter = field(default_factory=Counter)
    pair_counts: Counter = field(default_factory=Counter)
    pair_sequence_counts: Counter = field(default_factory=Counter)
    timespans: dict[str, list[float]] = field(default_factory=dict)
    intermediate_positions: dict[str, list[tuple[int, float]]] = field(
        default_factory=dict
    )
    total: int = 0

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def codes_with_nodes(self, n_nodes: int) -> Counter:
        """Sub-counter of codes with exactly ``n_nodes`` distinct nodes."""
        return Counter(
            {c: n for c, n in self.code_counts.items() if len(set(c)) == n_nodes}
        )

    def pair_group_counts(self) -> dict[str, int]:
        """Counts of the Table-5 motif groups.

        A motif is an **R,P,I,O motif** when *all* of its event pairs are
        bursty/local types (repetition, ping-pong, in-burst, out-burst) and
        a **C,W motif** when all pairs are transfer types (convey,
        weakly-connected); motifs mixing both groups land in ``"mixed"``
        and motifs with a disjoint consecutive pair in ``"disjoint"``.
        Pure C,W motifs are causal chains, which is why the paper finds
        them better preserved under ΔC (Table 5).
        """
        out = {"RPIO": 0, "CW": 0, "mixed": 0, "disjoint": 0}
        for seq, n in self.pair_sequence_counts.items():
            if any(p is None for p in seq):
                out["disjoint"] += n
            elif all(p in RPIO_GROUP for p in seq):
                out["RPIO"] += n
            elif all(p in CW_GROUP for p in seq):
                out["CW"] += n
            else:
                out["mixed"] += n
        return out

    def proportions(self) -> dict[str, float]:
        """Each code's share of the total instance count."""
        total = sum(self.code_counts.values())
        if total == 0:
            return {}
        return {code: n / total for code, n in self.code_counts.items()}


def run_census(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    collect_timespans: bool = False,
    collect_positions: bool = False,
    timespan_codes: Sequence[str] | None = None,
    position_codes: Sequence[str] | None = None,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
    jobs: int | None = None,
    roots: Iterable[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> MotifCensus:
    """Enumerate once and collect every summary the experiments need.

    Parameters
    ----------
    collect_timespans / collect_positions:
        Enable the per-code sample lists (memory proportional to
        instances, capped at ``sample_cap`` per code).
    timespan_codes / position_codes:
        Restrict sample collection to specific codes (e.g. only ``010102``
        for Figure 5) — ``None`` collects for every code.
    jobs:
        Worker processes for a sharded census; the merged census is
        bit-identical to the serial one (counter key order and sample
        lists included).
    roots:
        Restrict to instances anchored at these event indices.
    plan:
        Precompiled :class:`~repro.engine.plan.ExecutionPlan` (advanced;
        see :func:`repro.engine.compile_plan`).
    """
    roots, roots_sorted = _normalize_roots(roots)
    if _route_sharded(graph, jobs, roots_sorted):
        from repro.parallel import parallel_run_census

        return parallel_run_census(
            graph,
            n_events,
            constraints,
            jobs=jobs,
            max_nodes=max_nodes,
            predicate=predicate,
            collect_timespans=collect_timespans,
            collect_positions=collect_positions,
            timespan_codes=timespan_codes,
            position_codes=position_codes,
            sample_cap=sample_cap,
            roots=roots,
            plan=plan,
        )
    census = MotifCensus(n_events=n_events, constraints=constraints)
    span_filter = set(timespan_codes) if timespan_codes is not None else None
    pos_filter = set(position_codes) if position_codes is not None else None

    # Block lane: when the engine can stream instance *blocks* (a kernel
    # with ``expand_block`` — the numpy kernel — and banded arrays
    # ready) and the motif size fits the batched fold, the whole census
    # folds as array ops — bit-identical to the tuple loop below,
    # counter key order included.
    if batched.available() and 2 <= n_events <= batched.MAX_BATCH_EVENTS:
        if plan is None:  # compiled once here, so the tuple path reuses it
            plan = compile_plan(
                n_events, constraints, predicate, graph.storage, max_nodes=max_nodes
            )
        arrays = getattr(graph.storage, "extension_arrays", lambda: None)()
        blocks = None if arrays is None else run_plan_blocks(plan, graph, roots=roots)
        if blocks is not None:
            census.total = batched.fold_census_blocks(
                census,
                blocks,
                arrays["t"],
                arrays["u"],
                arrays["v"],
                collect_timespans=collect_timespans,
                collect_positions=collect_positions,
                span_filter=span_filter,
                pos_filter=pos_filter,
                sample_cap=sample_cap,
            )
            return census

    times = graph.times
    # Resolve each event's (u, v) pair once up front: the fold reads a
    # motif's edges per instance, and instances outnumber events.
    edge_of = [ev.edge for ev in graph.events]
    code_counts = census.code_counts
    pair_counts = census.pair_counts
    pair_sequence_counts = census.pair_sequence_counts
    total = 0

    for inst in enumerate_instances(
        graph,
        n_events,
        constraints,
        max_nodes=max_nodes,
        predicate=predicate,
        roots=roots,
        jobs=1,
        plan=plan,
    ):
        edges = [edge_of[i] for i in inst]
        code = canonical_code(edges)
        code_counts[code] += 1
        total += 1
        pair_seq = pair_sequence_of_code(code)
        for ptype in pair_seq:
            pair_counts[ptype] += 1
        pair_sequence_counts[pair_seq] += 1

        if collect_timespans and (span_filter is None or code in span_filter):
            bucket = census.timespans.setdefault(code, [])
            if len(bucket) < sample_cap:
                bucket.append(times[inst[-1]] - times[inst[0]])

        if collect_positions and (pos_filter is None or code in pos_filter):
            t_first = times[inst[0]]
            span = times[inst[-1]] - t_first
            if span > 0:
                bucket2 = census.intermediate_positions.setdefault(code, [])
                # Strict cap (never exceeded), so capped lists are exact
                # prefixes — the invariant sharded merges rely on.
                for pos, idx in enumerate(inst[1:-1], start=1):
                    if len(bucket2) >= sample_cap:
                        break
                    bucket2.append((pos, (times[idx] - t_first) / span))
    census.total = total
    return census


def total_instances(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    jobs: int | None = None,
    roots: Iterable[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> int:
    """Total number of instances (the census's ``total``)."""
    return run_census(
        graph,
        n_events,
        constraints,
        max_nodes=max_nodes,
        predicate=predicate,
        jobs=jobs,
        roots=roots,
        plan=plan,
    ).total


def merge_counters(counters: Iterable[Counter]) -> Counter:
    """Sum counters, preserving first-appearance key order across inputs.

    The one reduction primitive behind every chunked/parallel count:
    :func:`repro.parallel.merge.merge_counts` is this function (re-exported
    for compatibility).  Key order matters — mapping iteration order is
    part of the storage contract, and seeded randomized consumers depend
    on merged counters coming out exactly as a single serial pass would
    have filled them.
    """
    out: Counter = Counter()
    for counter in counters:
        out.update(counter)
    return out
