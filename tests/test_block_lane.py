"""The numpy kernel's block lane against the generic kernel.

:meth:`~repro.engine.kernels.NumpyExtensionKernel.expand_block` grows
whole root blocks with the frontier held as arrays, and the counting
entry points fold its instance blocks with
:mod:`repro.algorithms.batched`.  Every suite here forces the same
configuration through ``compile_plan(..., kernel="generic")`` — the
Partial-object reference — and demands bit-identical output: instance
order, counter contents *and key order*, frontier histograms.

Nothing here needs numba; the lane is plain NumPy.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.algorithms.counting import (
    count_event_pairs,
    count_motifs,
    run_census,
    total_instances,
)
from repro.algorithms.restrictions import satisfies_consecutive_events
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.engine import (
    NumpyExtensionKernel,
    clear_plan_cache,
    compile_plan,
    run_plan,
    run_plan_blocks,
)
from repro.storage import available_backends

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="the numpy storage backend is not registered",
)


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plan_cache()
    obs.disable()
    yield
    clear_plan_cache()
    obs.disable()


def event_lists(max_nodes=5, max_events=20):
    """Tie- and burst-heavy sorted event lists (the admission corners)."""
    step = st.tuples(
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 5.0]),
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


constraint_choices = st.sampled_from(
    [
        TimingConstraints(delta_c=2.0, delta_w=6.0),
        TimingConstraints(delta_c=3.0, delta_w=8.0),
        TimingConstraints.only_w(10.0),
        TimingConstraints(delta_c=4.0),
    ]
)
n_events_choices = st.integers(2, 5)
max_nodes_choices = st.sampled_from([1, 2, 3, 4, None])


def _plans(graph, n_events, constraints, max_nodes, predicate=None):
    lane = compile_plan(n_events, constraints, predicate, graph.storage, max_nodes=max_nodes)
    generic = compile_plan(
        n_events, constraints, predicate, graph.storage, max_nodes=max_nodes, kernel="generic"
    )
    assert lane.kernel_name == "numpy"
    return lane, generic


def _same_counter(got: Counter, want: Counter) -> None:
    assert list(got.items()) == list(want.items())


class TestEnumerationParity:
    @settings(max_examples=60, deadline=None)
    @given(event_lists(), n_events_choices, constraint_choices, max_nodes_choices)
    def test_run_plan_and_blocks_match_generic(self, events, n_events, constraints, max_nodes):
        graph = TemporalGraph(events, backend="numpy")
        lane, generic = _plans(graph, n_events, constraints, max_nodes)
        reference = list(run_plan(generic, graph))
        assert list(run_plan(lane, graph)) == reference
        blocks = run_plan_blocks(lane, graph)
        assert blocks is not None
        assert [tuple(r) for b in blocks for r in b.tolist()] == reference

    @settings(max_examples=60, deadline=None)
    @given(
        event_lists(),
        n_events_choices,
        constraint_choices,
        max_nodes_choices,
        st.data(),
    )
    def test_unsorted_duplicate_roots_and_early_stop(
        self, events, n_events, constraints, max_nodes, data
    ):
        graph = TemporalGraph(events, backend="numpy")
        lane, generic = _plans(graph, n_events, constraints, max_nodes)
        roots = data.draw(st.lists(st.integers(0, len(events) - 1), max_size=3 * len(events)))
        cap = data.draw(st.one_of(st.none(), st.integers(0, 12)))
        reference = list(run_plan(generic, graph, roots=roots, max_instances=cap))
        assert list(run_plan(lane, graph, roots=roots, max_instances=cap)) == reference
        if cap is None:
            blocks = run_plan_blocks(lane, graph, roots=roots)
            assert [tuple(r) for b in blocks for r in b.tolist()] == reference

    @settings(max_examples=40, deadline=None)
    @given(event_lists(), n_events_choices, constraint_choices, max_nodes_choices)
    def test_restriction_predicate_through_run_plan(self, events, n_events, constraints, max_nodes):
        graph = TemporalGraph(events, backend="numpy")
        lane, generic = _plans(
            graph, n_events, constraints, max_nodes, satisfies_consecutive_events
        )
        # Predicated plans stay off the raw block stream but still expand
        # through the lane inside run_plan, filtering row by row.
        assert run_plan_blocks(lane, graph) is None
        assert list(run_plan(lane, graph)) == list(run_plan(generic, graph))


class TestCountingParity:
    @settings(max_examples=40, deadline=None)
    @given(
        event_lists(),
        n_events_choices,
        constraint_choices,
        max_nodes_choices,
        st.sampled_from([None, {2}, {3}, {2, 4}, {5}]),
    )
    def test_count_motifs_and_event_pairs_key_order(
        self, events, n_events, constraints, max_nodes, node_counts
    ):
        graph = TemporalGraph(events, backend="numpy")
        lane, generic = _plans(graph, n_events, constraints, max_nodes)
        args = (graph, n_events, constraints)
        _same_counter(
            count_motifs(*args, max_nodes=max_nodes, node_counts=node_counts),
            count_motifs(*args, max_nodes=max_nodes, node_counts=node_counts, plan=generic),
        )
        _same_counter(
            count_event_pairs(*args, max_nodes=max_nodes),
            count_event_pairs(*args, max_nodes=max_nodes, plan=generic),
        )
        assert total_instances(*args, max_nodes=max_nodes) == total_instances(
            *args, max_nodes=max_nodes, plan=generic
        )

    @settings(max_examples=30, deadline=None)
    @given(event_lists(), n_events_choices, constraint_choices, max_nodes_choices)
    def test_run_census_key_order(self, events, n_events, constraints, max_nodes):
        graph = TemporalGraph(events, backend="numpy")
        lane, generic = _plans(graph, n_events, constraints, max_nodes)
        kwargs = dict(
            max_nodes=max_nodes,
            collect_timespans=True,
            collect_positions=True,
            sample_cap=4,
        )
        got = run_census(graph, n_events, constraints, **kwargs)
        want = run_census(graph, n_events, constraints, plan=generic, **kwargs)
        _same_counter(got.code_counts, want.code_counts)
        _same_counter(got.pair_counts, want.pair_counts)
        _same_counter(got.pair_sequence_counts, want.pair_sequence_counts)
        assert list(got.timespans.items()) == list(want.timespans.items())
        assert got.intermediate_positions == want.intermediate_positions
        assert got.total == want.total


class TestLaneMechanics:
    @settings(max_examples=30, deadline=None)
    @given(event_lists(), n_events_choices, constraint_choices, max_nodes_choices)
    def test_frontier_histograms_match_the_partial_path(
        self, events, n_events, constraints, max_nodes
    ):
        graph = TemporalGraph(events, backend="numpy")
        lane, _ = _plans(graph, n_events, constraints, max_nodes)

        def histograms():
            registry = obs.enable()
            try:
                instances = list(run_plan(lane, graph))
            finally:
                obs.disable()
            snap = registry.snapshot()["histograms"]
            return instances, {k: v for k, v in snap.items() if "frontier" in k}

        block_instances, block_hist = histograms()
        with mock.patch.object(NumpyExtensionKernel, "block_ready", lambda self: False):
            partial_instances, partial_hist = histograms()
        assert block_instances == partial_instances
        assert set(block_hist) == {
            "engine.frontier.partials{kernel=numpy}",
            "engine.frontier.extensions{kernel=numpy}",
        }
        assert block_hist == partial_hist

    def test_tail_pending_graph_refuses_the_lane_and_stays_exact(self):
        graph = TemporalGraph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)], backend="numpy")
        graph.append(Event(2, 0, 4.0))  # lands in the un-banded tail
        graph.append(Event(1, 0, 5.0))
        constraints = TimingConstraints(delta_c=3.0, delta_w=8.0)
        lane, generic = _plans(graph, 3, constraints, None)
        assert run_plan_blocks(lane, graph) is None
        reference = list(run_plan(generic, graph))
        assert reference  # the tail events do complete instances
        registry = obs.enable()
        try:
            assert list(run_plan(lane, graph)) == reference
        finally:
            obs.disable()
        # The refusal is the one runtime demotion, counted once per run.
        demotions = {k: v for k, v in registry.counters.items() if "demote" in k}
        assert demotions == {"engine.kernel.demote{from=numpy,to=generic}": 1}
        assert registry.counters["engine.run_plan.calls{kernel=numpy}"] == 1
        want = run_census(graph, 3, constraints, plan=generic)
        got = run_census(graph, 3, constraints)
        _same_counter(got.code_counts, want.code_counts)
        _same_counter(
            count_motifs(graph, 3, constraints),
            count_motifs(graph, 3, constraints, plan=generic),
        )

    def test_expand_block_level_arrays(self):
        graph = TemporalGraph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0)], backend="numpy")
        plan = compile_plan(3, TimingConstraints.only_w(10.0), None, graph.storage)
        kernel = plan.bind(graph.storage)
        assert kernel.block_ready()
        rows, level_partials, level_ext = kernel.expand_block([0, 1])
        assert rows.shape[1] == 3
        assert [tuple(r) for r in rows.tolist()] == list(run_plan(plan, graph, roots=[0, 1]))
        assert level_partials.tolist()[0] == 2
        assert level_ext.tolist()[-1] == len(rows)
