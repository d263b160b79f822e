"""Property-based tests (hypothesis) on the core invariants.

These pin the invariants the counting code and the other suites take as
given: notation canonicality, the pair-sequence bijection (and that an
instance's pair types are a function of its motif code, which the census
folds rely on), timing-constraint monotonicity, restriction-as-filter
subset relations, and shuffle conservation laws.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import count_motifs
from repro.algorithms.enumeration import enumerate_instances, is_instance
from repro.algorithms.restrictions import (
    is_static_induced,
    satisfies_cdg,
    satisfies_consecutive_events,
)
from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import (
    ALL_PAIR_TYPES,
    classify_pair,
    code_of_pair_sequence,
    pair_sequence_of_code,
)
from repro.core.notation import (
    all_motif_codes,
    canonical_code,
    is_valid_code,
    parse_code,
)
from repro.core.temporal_graph import TemporalGraph
from repro.randomization.shuffles import link_shuffle, permuted_timestamps

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - no-numpy fallback leg
    HAVE_NUMPY = False

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="shuffles are numpy-seeded")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def small_graphs(max_nodes=5, max_events=14, max_time=40):
    """Random small temporal graphs with integer timestamps."""
    event = st.tuples(
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.integers(0, max_time),
    ).filter(lambda e: e[0] != e[1])
    return st.lists(event, min_size=1, max_size=max_events).map(
        lambda evs: TemporalGraph.from_tuples([(u, v, float(t)) for u, v, t in evs])
    )


pair_sequences = st.lists(st.sampled_from(ALL_PAIR_TYPES), min_size=1, max_size=4)


# ----------------------------------------------------------------------
# notation
# ----------------------------------------------------------------------
@given(pair_sequences)
def test_pair_sequence_roundtrip(sequence):
    """code_of_pair_sequence is a right inverse of pair_sequence_of_code."""
    code = code_of_pair_sequence(sequence)
    assert pair_sequence_of_code(code) == tuple(sequence)
    assert is_valid_code(code)
    assert len({d for d in code}) <= 3


@st.composite
def loop_free_edge_lists(draw):
    """1–6 self-loop-free events over at most ten arbitrary node ids."""
    pool = draw(st.lists(st.integers(-(10**12), 10**12), min_size=2, max_size=10, unique=True))
    pick = st.sampled_from(pool)
    edge = st.tuples(pick, pick).filter(lambda e: e[0] != e[1])
    return draw(st.lists(edge, min_size=1, max_size=6))


@given(loop_free_edge_lists())
def test_pair_sequence_is_a_function_of_the_code(edges):
    """An instance's pair types are its code's: the census folds read
    them once per distinct code instead of classifying every instance."""
    expected = tuple(map(classify_pair, edges, edges[1:]))
    assert pair_sequence_of_code(canonical_code(edges)) == expected


@given(st.sampled_from(all_motif_codes(3, 3) + all_motif_codes(4, 4)))
def test_parse_canonical_roundtrip(code):
    """Every generated code re-canonicalizes to itself."""
    assert canonical_code(parse_code(code)) == code


@given(small_graphs())
def test_enumerated_instances_have_canonical_codes(graph):
    constraints = TimingConstraints(delta_c=15, delta_w=30)
    for inst in enumerate_instances(graph, 3, constraints):
        code = canonical_code([graph.events[i].edge for i in inst])
        assert is_valid_code(code)


# ----------------------------------------------------------------------
# event pairs
# ----------------------------------------------------------------------
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e[0] != e[1]),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e[0] != e[1]),
)
def test_classification_total_and_deterministic(first, second):
    """Sharing a node ⇔ classified; classification is a function."""
    ptype = classify_pair(first, second)
    shares = bool(set(first) & set(second))
    assert (ptype is not None) == shares
    assert classify_pair(first, second) is ptype


# ----------------------------------------------------------------------
# timing constraints
# ----------------------------------------------------------------------
@given(small_graphs(), st.integers(2, 12), st.integers(2, 12))
@settings(max_examples=40)
def test_smaller_delta_c_yields_subset(graph, dc_small, dc_big):
    dc_lo, dc_hi = sorted((dc_small, dc_big))
    small = set(enumerate_instances(graph, 3, TimingConstraints.only_c(dc_lo)))
    big = set(enumerate_instances(graph, 3, TimingConstraints.only_c(dc_hi)))
    assert small <= big


@given(small_graphs(), st.integers(2, 20), st.integers(2, 20))
@settings(max_examples=40)
def test_smaller_delta_w_yields_subset(graph, dw_small, dw_big):
    dw_lo, dw_hi = sorted((dw_small, dw_big))
    small = set(enumerate_instances(graph, 3, TimingConstraints.only_w(dw_lo)))
    big = set(enumerate_instances(graph, 3, TimingConstraints.only_w(dw_hi)))
    assert small <= big


@given(small_graphs())
@settings(max_examples=40)
def test_both_constraints_intersect(graph):
    """ΔC ∧ ΔW instances = only-ΔC instances ∩ only-ΔW instances."""
    only_c = set(enumerate_instances(graph, 3, TimingConstraints.only_c(8)))
    only_w = set(enumerate_instances(graph, 3, TimingConstraints.only_w(20)))
    both = set(
        enumerate_instances(graph, 3, TimingConstraints(delta_c=8, delta_w=20))
    )
    assert both == only_c & only_w


@given(small_graphs())
@settings(max_examples=40)
def test_every_enumerated_instance_satisfies_definition(graph):
    constraints = TimingConstraints(delta_c=10, delta_w=25)
    for inst in enumerate_instances(graph, 3, constraints, max_nodes=3):
        assert is_instance(graph, inst, constraints, max_nodes=3)


# ----------------------------------------------------------------------
# restrictions are filters
# ----------------------------------------------------------------------
@given(small_graphs())
@settings(max_examples=30)
def test_restrictions_only_remove_instances(graph):
    constraints = TimingConstraints(delta_c=12, delta_w=30)
    vanilla = count_motifs(graph, 3, constraints, max_nodes=3)
    for predicate in (
        satisfies_consecutive_events,
        satisfies_cdg,
        is_static_induced,
    ):
        restricted = count_motifs(
            graph, 3, constraints, max_nodes=3, predicate=predicate
        )
        for code, n in restricted.items():
            assert n <= vanilla.get(code, 0)


@given(small_graphs())
@settings(max_examples=30)
def test_global_inducedness_implies_window_inducedness(graph):
    constraints = TimingConstraints(delta_c=12, delta_w=30)
    for inst in enumerate_instances(graph, 3, constraints, max_nodes=3):
        if is_static_induced(graph, inst, scope="global"):
            assert is_static_induced(graph, inst, scope="window")


# ----------------------------------------------------------------------
# shuffles
# ----------------------------------------------------------------------
@requires_numpy
@given(small_graphs(), st.integers(0, 2**16))
@settings(max_examples=30)
def test_permuted_timestamps_conserves_structure(graph, seed):
    shuffled = permuted_timestamps(graph, seed=seed)
    assert sorted(shuffled.times) == sorted(graph.times)
    assert sorted(ev.edge for ev in shuffled.events) == sorted(
        ev.edge for ev in graph.events
    )


@requires_numpy
@given(small_graphs(), st.integers(0, 2**16))
@settings(max_examples=30)
def test_link_shuffle_conserves_time_lists(graph, seed):
    shuffled = link_shuffle(graph, seed=seed)
    assert len(shuffled) == len(graph)
    original = sorted(
        tuple(graph.times[i] for i in idxs) for idxs in graph.edge_events.values()
    )
    new = sorted(
        tuple(shuffled.times[i] for i in idxs)
        for idxs in shuffled.edge_events.values()
    )
    assert original == new


# ----------------------------------------------------------------------
# cross-checking the taxonomy against enumeration
# ----------------------------------------------------------------------
def test_dense_burst_realizes_many_codes():
    """A dense all-pairs burst realizes every 2-event code and all its
    3-event instances carry valid codes from the ≤4-node universe."""
    events = []
    t = 0.0
    for u, v in itertools.permutations(range(4), 2):
        events.append((u, v, t))
        t += 1.0
    events.append((0, 1, t))  # one repeated edge so 0101 is realizable
    graph = TemporalGraph.from_tuples(events)
    constraints = TimingConstraints(delta_c=30, delta_w=30)
    codes = {
        canonical_code([graph.events[i].edge for i in inst])
        for inst in enumerate_instances(graph, 2, constraints)
    }
    assert set(all_motif_codes(2, 3)) <= codes
    universe = set(all_motif_codes(3, 4))
    for inst in enumerate_instances(graph, 3, constraints, max_nodes=4):
        code = canonical_code([graph.events[i].edge for i in inst])
        assert code in universe
