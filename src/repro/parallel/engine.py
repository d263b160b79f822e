"""The sharded execution engine behind ``jobs=`` throughout the library.

Each entry point plans shards for the graph (time shards when the
predicate is shard-safe and the constraints bound the motif window; root
shards otherwise), ships one self-contained :class:`_ShardTask` per shard
to the executor, and reduces the per-shard results with the merge helpers
— in shard order, so every output is bit-identical to the serial run.

Shard-safety of predicates
--------------------------

A restriction predicate runs against the *shard subgraph*, so it may only
consult events inside the instance's time window (which the shard is
guaranteed to contain, including same-timestamp boundary events).  The
bundled window-local restrictions are pre-marked; mark your own with
:func:`mark_shard_safe`.  Unmarked predicates are automatically routed to
root shards — every worker then reconstructs the full graph, trading
memory for unconditional correctness.
"""

from __future__ import annotations

import bisect
import math
import pickle
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

import repro.obs as _obs
from repro.core.constraints import TimingConstraints
from repro.obs import MetricsRegistry
from repro.core.temporal_graph import TemporalGraph
from repro.engine import ExecutionPlan, compile_plan
from repro.engine import is_shard_safe as is_shard_safe  # re-export (one copy)
from repro.parallel.executor import get_executor, resolve_jobs
from repro.parallel.merge import merge_censuses, merge_instances
from repro.parallel.shards import Shard, plan_root_shards, plan_shards, shard_graph
from repro.storage import get_backend

T = TypeVar("T")
R = TypeVar("R")

Instance = tuple[int, ...]
Predicate = Callable[[TemporalGraph, Instance], bool]


def mark_shard_safe(predicate: Predicate) -> Predicate:
    """Declare that a predicate only consults the instance's time window.

    Shard-safe predicates answer identically on a time shard and on the
    full graph, so the engine may use the cheaper time-sharded plan
    (:func:`repro.engine.is_shard_safe` reads the mark at plan-compile
    time).
    """
    predicate.shard_safe = True  # type: ignore[attr-defined]
    return predicate


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs, picklable and self-contained.

    ``payload`` is whatever the parent storage's
    :meth:`~repro.storage.base.GraphStorage.shard_payload` produced for
    the shard's event range — an event tuple on the generic path, column
    array slices on array-backed engines — and the worker rebuilds its
    subgraph through ``from_shard_payload`` on the same backend class,
    skipping the per-event boxing round-trip.  ``plan`` is the parent's
    compiled :class:`~repro.engine.plan.ExecutionPlan`: workers bind it
    to the shard storage instead of re-deriving deadlines, node caps and
    kernel capability per shard.  ``local_roots`` overrides the shard's
    owned anchor range when the caller restricted the search to explicit
    roots (the sampling estimators).
    """

    kind: str
    payload: Any
    backend: str
    name: str
    shard: Shard
    n_events: int
    constraints: TimingConstraints
    max_nodes: int | None
    predicate: Predicate | None
    plan: ExecutionPlan | None = None
    local_roots: Sequence[int] | None = None
    options: dict = field(default_factory=dict)
    #: Observability handshake: when the parent's registry is active the
    #: worker runs under a fresh local registry and ships its snapshot
    #: back alongside the shard result (merged by ``_execute`` exactly
    #: like ``merge_counts`` folds shard counters).  ``submitted`` is the
    #: parent's ``time.monotonic()`` at task construction — comparable
    #: across fork workers on the same host — from which the worker
    #: derives its queue wait.
    obs: bool = False
    submitted: float | None = None


def _run_shard(task: _ShardTask):
    if not task.obs:
        return _run_shard_inner(task)
    queue_wait = 0.0 if task.submitted is None else time.monotonic() - task.submitted
    parent = _obs.ACTIVE
    local = MetricsRegistry()
    _obs.ACTIVE = local
    try:
        start = time.perf_counter()
        result = _run_shard_inner(task)
        elapsed = time.perf_counter() - start
    finally:
        _obs.ACTIVE = parent
    local.observe("parallel.shard.seconds", elapsed)
    local.observe("parallel.shard.queue_wait_seconds", max(queue_wait, 0.0))
    local.observe("parallel.shard.events", task.shard.ev_hi - task.shard.ev_lo)
    return result, local.snapshot()


def _run_shard_inner(task: _ShardTask):
    # Deferred import: counting/enumeration lazily import this package on
    # their jobs= paths, so the engine must not import them at module level.
    from repro.algorithms import counting, enumeration

    storage = get_backend(task.backend).from_shard_payload(task.payload)
    graph = TemporalGraph._from_storage(storage, name=task.name)
    roots = task.local_roots if task.local_roots is not None else task.shard.local_roots
    common: dict[str, Any] = {
        "max_nodes": task.max_nodes,
        "predicate": task.predicate,
        "roots": roots,
        "plan": task.plan,
        "jobs": 1,  # never nest pools inside a worker
    }
    if task.kind == "census":
        return counting.run_census(
            graph,
            task.n_events,
            task.constraints,
            **common,
            **task.options,
        )
    if task.kind == "instances":
        common.pop("jobs")  # enumerate_instances parallelizes via this engine
        instances = enumeration.enumerate_instances(
            graph,
            task.n_events,
            task.constraints,
            **common,
        )
        return [task.shard.to_global(inst) for inst in instances]
    raise ValueError(f"unknown shard task kind {task.kind!r}")


def _execute(
    kind: str,
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    jobs: int | None,
    max_nodes: int | None,
    predicate: Predicate | None,
    roots: Sequence[int] | None = None,
    plan: ExecutionPlan | None = None,
    options: dict | None = None,
) -> tuple[list[Shard], list]:
    n_jobs = resolve_jobs(jobs)
    if roots is not None and any(a > b for a, b in zip(roots, roots[1:])):
        raise ValueError(
            "sharded enumeration requires non-decreasing roots (anchors "
            "partition by shard order); sort them or run serially"
        )
    # One compiled plan for the whole run: deadlines, node cap, shard
    # safety and kernel capability resolve here, then ship to workers.
    # A caller-supplied plan (forced kernels, precompiled reuse) is
    # shipped as-is instead of recompiled.
    if plan is None:
        plan = compile_plan(
            n_events, constraints, predicate, graph.storage, max_nodes=max_nodes
        )
    # Out-of-core backends ask for at least one shard per partition
    # (shard_count_hint) so each worker's rebuilt subgraph stays roughly
    # one δ-overlapped partition wide; in-memory backends hint 0 and get
    # the one-shard-per-worker plan as before.
    n_shards = max(n_jobs, graph.storage.shard_count_hint())
    if plan.shard_safe and math.isfinite(plan.delta):
        shards = plan_shards(graph, plan.delta, n_shards)
    else:
        shards = plan_root_shards(graph, n_shards)
    storage = graph.storage
    rec = _obs.ACTIVE
    submitted = time.monotonic() if rec is not None else None
    tasks = [
        _ShardTask(
            kind=kind,
            payload=storage.shard_payload(shard.ev_lo, shard.ev_hi),
            backend=graph.backend,
            name=graph.name,
            shard=shard,
            n_events=n_events,
            constraints=constraints,
            max_nodes=max_nodes,
            predicate=predicate,
            plan=plan,
            local_roots=_owned_roots(shard, roots),
            options=options or {},
            obs=rec is not None,
            submitted=submitted,
        )
        for shard in shards
    ]
    if rec is not None:
        rec.inc(_obs.labeled("parallel.execute.calls", kind=kind))
        rec.set_gauge("parallel.jobs", n_jobs)
        rec.set_gauge("parallel.shards", len(tasks))
        for task in tasks:
            rec.observe(
                "parallel.shard.payload_bytes",
                len(pickle.dumps(task.payload, pickle.HIGHEST_PROTOCOL)),
            )
    results = get_executor(n_jobs).map(_run_shard, tasks)
    if rec is not None:
        unwrapped = []
        for result, snapshot in results:
            rec.merge_snapshot(snapshot)
            unwrapped.append(result)
        results = unwrapped
    return shards, results


def _owned_roots(shard: Shard, roots: Sequence[int] | None) -> list[int] | None:
    """Shard-local indices of the explicitly requested roots it owns.

    ``roots`` must be non-decreasing (the counting entry points only
    route sorted roots here), so each shard's slice is one bisection and
    the shard-order concatenation reproduces the serial root order.
    """
    if roots is None:
        return None
    lo = bisect.bisect_left(roots, shard.root_lo)
    hi = bisect.bisect_left(roots, shard.root_hi)
    ev_lo = shard.ev_lo
    return [r - ev_lo for r in roots[lo:hi]]


def parallel_count_motifs(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    jobs: int | None = None,
    max_nodes: int | None = None,
    node_counts: Iterable[int] | None = None,
    predicate: Predicate | None = None,
    roots: Sequence[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> Counter:
    """Sharded :func:`repro.algorithms.counting.count_motifs`.

    ``roots`` (non-decreasing event indices) restricts the count to
    instances anchored there — each shard enumerates only the owned
    roots it is handed, so a sampled census shards exactly like a full
    one.
    """
    from repro.algorithms.counting import _with_node_counts

    census = parallel_run_census(
        graph,
        n_events,
        constraints,
        jobs=jobs,
        max_nodes=max_nodes,
        predicate=predicate,
        sample_cap=0,
        roots=roots,
        plan=plan,
    )
    return _with_node_counts(census.code_counts, node_counts)


def parallel_count_event_pairs(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    jobs: int | None = None,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    roots: Sequence[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> Counter:
    """Sharded :func:`repro.algorithms.counting.count_event_pairs`."""
    return parallel_run_census(
        graph,
        n_events,
        constraints,
        jobs=jobs,
        max_nodes=max_nodes,
        predicate=predicate,
        sample_cap=0,
        roots=roots,
        plan=plan,
    ).pair_counts


def parallel_total_instances(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    jobs: int | None = None,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    roots: Sequence[int] | None = None,
    plan: ExecutionPlan | None = None,
) -> int:
    """Sharded :func:`repro.algorithms.counting.total_instances`."""
    return parallel_run_census(
        graph,
        n_events,
        constraints,
        jobs=jobs,
        max_nodes=max_nodes,
        predicate=predicate,
        sample_cap=0,
        roots=roots,
        plan=plan,
    ).total


def parallel_run_census(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    jobs: int | None = None,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    collect_timespans: bool = False,
    collect_positions: bool = False,
    timespan_codes: Sequence[str] | None = None,
    position_codes: Sequence[str] | None = None,
    sample_cap: int,
    roots: Sequence[int] | None = None,
    plan: ExecutionPlan | None = None,
):
    """Sharded :func:`repro.algorithms.counting.run_census`.

    Each shard caps its sample lists at the same ``sample_cap``; the merge
    re-caps the concatenation, which reproduces the serial pass exactly
    (capped lists are prefixes, and concatenation preserves prefixes).
    """
    options = {
        "collect_timespans": collect_timespans,
        "collect_positions": collect_positions,
        "timespan_codes": timespan_codes,
        "position_codes": position_codes,
        "sample_cap": sample_cap,
    }
    _shards, results = _execute(
        "census",
        graph,
        n_events,
        constraints,
        jobs=jobs,
        max_nodes=max_nodes,
        predicate=predicate,
        roots=roots,
        plan=plan,
        options=options,
    )
    return merge_censuses(results, sample_cap=sample_cap)


def parallel_enumerate(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    jobs: int | None = None,
    max_nodes: int | None = None,
    predicate: Predicate | None = None,
    plan: ExecutionPlan | None = None,
) -> list[Instance]:
    """Sharded instance enumeration, in the exact serial yield order.

    Returns a list (not a generator): all shards must complete before the
    merged, anchor-deduplicated sequence is known to be serial-identical.
    """
    shards, results = _execute(
        "instances",
        graph,
        n_events,
        constraints,
        jobs=jobs,
        max_nodes=max_nodes,
        predicate=predicate,
        plan=plan,
    )
    return merge_instances(shards, results)


def parallel_map(
    fn: Callable[[T], R],
    payloads: Iterable[T],
    *,
    jobs: int | None = None,
) -> list[R]:
    """Order-preserving fan-out of arbitrary picklable payloads.

    The generic escape hatch for embarrassingly parallel work that is not
    a shard census — e.g. null-model shuffle-ensemble replicas, where each
    payload carries a graph's events and a seed.
    """
    return get_executor(jobs).map(fn, payloads)


__all__ = [
    "is_shard_safe",
    "mark_shard_safe",
    "parallel_count_event_pairs",
    "parallel_count_motifs",
    "parallel_enumerate",
    "parallel_map",
    "parallel_run_census",
    "parallel_total_instances",
    "shard_graph",
]
