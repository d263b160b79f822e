"""The native (JIT) kernel tier and the batched census fold.

Four layers of guarantees on top of the engine differential suite in
``test_engine.py``:

* **batched encoder units** — the array relabel of
  :mod:`repro.algorithms.batched` against the serial
  :func:`~repro.core.notation.canonical_code` oracle;
* **consumer bit-identity under the block lane** — ``run_census``
  (sample lists, caps, filters included) and ``total_instances`` with
  the native kernel forced, against the generic path;
* **demotion** — numba-less builds resolve ``"native"`` down the
  fallback chain exactly once per session (pinned in the
  ``engine.kernel.demote`` obs counter), stale plans re-resolve at bind
  time, runtime tail-pending fallback is counted, and
  :func:`~repro.engine.clear_plan_cache` invalidates the capability
  memo;
* **multi-view parity** — the fan-out engine behaves identically with
  the native kernel registered.

Everything here runs without numba: the ``@njit`` functions fall back
to plain Python over the same arrays, which is the point — the
algorithm, not the compiler, is under test.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.algorithms import batched
from repro.algorithms.counting import run_census, total_instances
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.notation import canonical_code
from repro.core.temporal_graph import TemporalGraph
from repro.engine import (
    KERNELS,
    clear_plan_cache,
    compile_plan,
    has_kernel,
    resolve_kernel_name,
    run_plan,
    run_plan_blocks,
)
from repro.engine.native import NativeExtensionKernel, warm_up
from repro.online import MultiViewCensus, OnlineCensus
from repro.storage import available_backends

np = pytest.importorskip("numpy")

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="the numpy storage backend is not registered",
)

CONSTRAINTS = TimingConstraints(delta_c=3.0, delta_w=8.0)


@contextmanager
def registered_native():
    """Force-register the native kernel for one test body (see test_engine)."""
    added = "native" not in KERNELS
    if added:
        KERNELS["native"] = NativeExtensionKernel
    clear_plan_cache()
    try:
        yield
    finally:
        if added:
            del KERNELS["native"]
        clear_plan_cache()


@pytest.fixture(autouse=True)
def _fresh_resolution():
    """Every test starts and ends with pristine plan/capability caches."""
    clear_plan_cache()
    obs.disable()
    yield
    clear_plan_cache()
    obs.disable()


def event_lists(max_nodes=5, max_events=18):
    """Tie- and burst-heavy sorted event lists (the admission corners)."""
    step = st.tuples(
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 5.0]),
    ).filter(lambda e: e[0] != e[1])

    def build(steps):
        t = 0.0
        events = []
        for u, v, dt in steps:
            t += dt
            events.append(Event(u, v, t))
        events.sort(key=lambda e: (e.t, e.u, e.v))
        return events

    return st.lists(step, min_size=1, max_size=max_events).map(build)


endpoint_blocks = st.integers(2, 6).flatmap(
    lambda k: st.lists(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=k,
            max_size=k,
        ),
        min_size=1,
        max_size=24,
    )
)


# ----------------------------------------------------------------------
# batched encoder units vs the serial oracles
# ----------------------------------------------------------------------
class TestBatchedEncoders:
    @settings(max_examples=120, deadline=None)
    @given(endpoint_blocks)
    def test_encode_block_codes_matches_canonical_code(self, rows):
        k = len(rows[0])
        us = np.array([[u for u, _ in row] for row in rows], dtype=np.int64)
        vs = np.array([[v for _, v in row] for row in rows], dtype=np.int64)
        keys = batched.encode_block_codes(us, vs)
        for row, key in zip(rows, keys.tolist()):
            assert str(key).zfill(2 * k) == canonical_code(row)

    def test_encoder_raises_on_self_loops_like_the_serial_path(self):
        us = np.array([[0, 1]], dtype=np.int64)
        vs = np.array([[0, 2]], dtype=np.int64)
        with pytest.raises(ValueError, match="self-loop"):
            batched.encode_block_codes(us, vs)


# ----------------------------------------------------------------------
# consumer bit-identity through the block lane
# ----------------------------------------------------------------------
class TestBlockLaneParity:
    @settings(max_examples=40, deadline=None)
    @given(event_lists(), st.sampled_from([2, 3, 4]), st.sampled_from([None, 3]))
    def test_run_census_with_samples_bit_identical(self, events, n_events, max_nodes):
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            kwargs = dict(
                max_nodes=max_nodes,
                collect_timespans=True,
                collect_positions=True,
                sample_cap=5,  # small enough that the strict cap is exercised
            )
            generic_plan = compile_plan(
                n_events, CONSTRAINTS, None, graph.storage,
                max_nodes=max_nodes, kernel="generic",
            )
            reference = run_census(
                graph, n_events, CONSTRAINTS, plan=generic_plan, **kwargs
            )
            native = run_census(graph, n_events, CONSTRAINTS, **kwargs)
            assert dict(native.code_counts) == dict(reference.code_counts)
            assert list(native.code_counts) == list(reference.code_counts)
            assert dict(native.pair_counts) == dict(reference.pair_counts)
            assert list(native.pair_counts) == list(reference.pair_counts)
            assert native.pair_sequence_counts == reference.pair_sequence_counts
            assert list(native.pair_sequence_counts) == list(
                reference.pair_sequence_counts
            )
            assert native.timespans == reference.timespans
            assert list(native.timespans) == list(reference.timespans)
            assert native.intermediate_positions == reference.intermediate_positions
            assert native.total == reference.total

    def test_sample_values_are_python_scalars(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 0, 4.0)]
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            census = run_census(
                graph, 3, CONSTRAINTS, collect_timespans=True, collect_positions=True
            )
            for bucket in census.timespans.values():
                assert all(type(x) is float for x in bucket)
            for bucket in census.intermediate_positions.values():
                assert all(
                    type(pos) is int and type(rel) is float for pos, rel in bucket
                )

    def test_sample_code_filters_apply(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (1, 0, 3.5), (2, 0, 4.0)]
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            full = run_census(graph, 3, CONSTRAINTS, collect_timespans=True)
            target = next(iter(full.timespans))
            filtered = run_census(
                graph, 3, CONSTRAINTS, collect_timespans=True,
                timespan_codes=[target],
            )
            assert set(filtered.timespans) == {target}
            assert filtered.timespans[target] == full.timespans[target]

    @settings(max_examples=30, deadline=None)
    @given(event_lists(), st.sampled_from([2, 3, 4]))
    def test_total_instances_parity(self, events, n_events):
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            reference = total_instances(
                TemporalGraph(events, backend="list"), n_events, CONSTRAINTS
            )
            assert total_instances(graph, n_events, CONSTRAINTS) == reference

    @pytest.mark.parametrize("max_nodes", [1, 2])
    def test_degenerate_node_caps(self, max_nodes):
        # A root always carries two nodes, so max_nodes=1 exceeds the cap
        # from the start; only zero-new-node extensions may be admitted.
        events = [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 2.5), (1, 2, 3.0), (0, 1, 4.0)]
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            native_plan = compile_plan(
                3, CONSTRAINTS, None, graph.storage, max_nodes=max_nodes
            )
            generic_plan = compile_plan(
                3, CONSTRAINTS, None, graph.storage,
                max_nodes=max_nodes, kernel="generic",
            )
            assert native_plan.kernel_name == "native"
            assert list(run_plan(native_plan, graph)) == list(
                run_plan(generic_plan, graph)
            )

    def test_run_plan_blocks_contract(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0)]
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            plan = compile_plan(3, CONSTRAINTS, None, graph.storage)
            blocks = run_plan_blocks(plan, graph)
            assert blocks is not None
            rows = [tuple(row) for block in blocks for row in block.tolist()]
            assert rows == list(run_plan(plan, graph))
            # The lane refuses what it cannot serve bit-identically.
            assert run_plan_blocks(
                compile_plan(1, CONSTRAINTS, None, graph.storage), graph
            ) is None
            restricted = compile_plan(
                3, CONSTRAINTS, lambda g, i: True, graph.storage
            )
            assert run_plan_blocks(restricted, graph) is None

    def test_sharded_census_reresolves_native_plan_in_workers(self):
        # Plans pickle by kernel *name*: a plan compiled where "native"
        # is registered must demote cleanly inside numba-less workers.
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0), (1, 3, 5.0)]
        with registered_native():
            graph = TemporalGraph(events, backend="numpy")
            plan = compile_plan(3, CONSTRAINTS, None, graph.storage)
            assert plan.kernel_name == "native"
            serial = run_census(graph, 3, CONSTRAINTS, plan=plan)
            sharded = run_census(graph, 3, CONSTRAINTS, plan=plan, jobs=2)
            assert dict(sharded.code_counts) == dict(serial.code_counts)
            assert list(sharded.code_counts) == list(serial.code_counts)
            assert sharded.total == serial.total


# ----------------------------------------------------------------------
# demotion: countable, memoized, invalidated with the plan cache
# ----------------------------------------------------------------------
class TestDemotion:
    def test_native_resolves_down_the_chain_and_counts_once(self, monkeypatch):
        has_kernel("native")  # force the one-shot import probe first
        monkeypatch.delitem(KERNELS, "native", raising=False)
        clear_plan_cache()
        registry = obs.enable()
        storage = TemporalGraph(
            [(0, 1, 1.0)], backend="numpy"
        ).storage
        plan = compile_plan(3, CONSTRAINTS, None, storage)
        assert plan.kernel_name == "numpy"
        key = "engine.kernel.demote{from=native,to=numpy}"
        assert registry.counters[key] == 1
        # The capability memo makes the next compile free *and* silent.
        compile_plan(4, CONSTRAINTS, None, storage)
        assert registry.counters[key] == 1

    def test_stale_plan_demotes_at_bind_time(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        graph = TemporalGraph(events, backend="numpy")
        with registered_native():
            plan = compile_plan(3, CONSTRAINTS, None, graph.storage)
            assert plan.kernel_name == "native"
        # The registry no longer has "native", but the plan object lives
        # on (a worker unpickling it, a caller holding it): binding must
        # re-resolve, not crash or silently go generic.
        registry = obs.enable()
        kernel = plan.bind(graph.storage)
        assert kernel.kernel_name == "numpy"
        assert (
            registry.counters["engine.kernel.demote{from=native,to=numpy}"] == 1
        )
        assert list(run_plan(plan, graph)) == list(
            run_plan(
                compile_plan(3, CONSTRAINTS, None, graph.storage, kernel="generic"),
                graph,
            )
        )

    def test_clear_plan_cache_invalidates_capability_resolution(self):
        storage = TemporalGraph([(0, 1, 1.0)], backend="numpy").storage
        with registered_native():
            assert compile_plan(3, CONSTRAINTS, None, storage).kernel_name == "native"
            del KERNELS["native"]
            # Without invalidation both memo layers would happily serve
            # the unregistered name forever.
            clear_plan_cache()
            assert compile_plan(3, CONSTRAINTS, None, storage).kernel_name == "numpy"
            KERNELS["native"] = NativeExtensionKernel  # context-exit symmetry

    def test_tail_pending_fallback_is_counted_and_correct(self):
        with registered_native():
            graph = TemporalGraph([(0, 1, 1.0), (1, 2, 2.0)], backend="numpy")
            graph.append(Event(0, 2, 3.0))  # lands in the un-banded tail
            plan = compile_plan(3, CONSTRAINTS, None, graph.storage)
            assert plan.kernel_name == "native"
            # The block lane refuses while the banded arrays are pending.
            assert run_plan_blocks(plan, graph) is None
            registry = obs.enable()
            native = list(run_plan(plan, graph))
            key = "engine.kernel.demote{from=native,to=generic}"
            assert registry.counters[key] >= 1
            obs.disable()
            generic_plan = compile_plan(
                3, CONSTRAINTS, None, graph.storage, kernel="generic"
            )
            assert native == list(run_plan(generic_plan, graph))

    def test_resolve_kernel_name_walks_unknown_names_to_generic(self):
        assert resolve_kernel_name("definitely-not-a-kernel") == "generic"
        assert resolve_kernel_name("generic") == "generic"

    def test_warm_up_runs_on_every_build(self):
        # Without numba this exercises the plain-Python fallbacks; with
        # numba it forces compilation (benchmarks time it separately).
        warm_up()


# ----------------------------------------------------------------------
# online / multi-view parity under the native kernel
# ----------------------------------------------------------------------
class TestOnlineParity:
    @settings(max_examples=20, deadline=None)
    @given(event_lists(max_events=14), st.sampled_from([3.0, 7.0]))
    def test_multiview_fanout_parity_under_native(self, events, window):
        with registered_native():
            engine = MultiViewCensus(
                3, CONSTRAINTS, window, max_nodes=3, backend="numpy", prune_every=5
            )
            engine.add_view("w", window)
            oracle = OnlineCensus(
                3, CONSTRAINTS, window, max_nodes=3, backend="list", prune_every=5
            )
            for event in events:
                engine.push(event)
                oracle.push(event)
                assert list(engine.counts("w").items()) == list(
                    oracle.counts().items()
                )
