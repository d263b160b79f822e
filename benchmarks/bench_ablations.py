"""Ablation benchmarks for three choices the reproduction's cost or accuracy
rests on:

* sampling accuracy/speed trade-off (root sampling vs exact counting),
* the cost of the ΔW bound relative to ΔC (window pruning effectiveness),
* resolution degrading's effect on counts (the Table 4 preamble: ~80 %
  count loss at 300 s in message networks, much less on Q&A sites).
"""

import numpy as np
import pytest

from repro.algorithms.counting import count_motifs
from repro.algorithms.sampling import (
    estimate_counts_root_sampling,
    relative_error,
)
from repro.core.constraints import TimingConstraints
from repro.datasets.registry import get_dataset

CONSTRAINTS = TimingConstraints(delta_c=1500, delta_w=3000)


@pytest.fixture(scope="module")
def sms():
    return get_dataset("sms-copenhagen", scale=0.25)


def test_exact_counting_baseline(benchmark, sms):
    counts = benchmark(lambda: count_motifs(sms, 3, CONSTRAINTS, max_nodes=3))
    assert sum(counts.values()) > 0


def test_sampled_counting_q01(benchmark, sms):
    """Root sampling at q=0.1 — the speed side of the trade-off."""
    rng_seed = [0]

    def sample():
        rng_seed[0] += 1
        return estimate_counts_root_sampling(
            sms,
            3,
            CONSTRAINTS,
            q=0.1,
            max_nodes=3,
            rng=np.random.default_rng(rng_seed[0]),
        )

    estimate = benchmark(sample)
    exact = count_motifs(sms, 3, CONSTRAINTS, max_nodes=3)
    # accuracy side: a single q=0.1 sample lands within 60 % relative error
    # on this workload (averaging samples tightens it; see tests).
    assert relative_error(exact, estimate) < 0.6


def test_delta_w_pruning_effectiveness(benchmark, sms):
    """Adding ΔW on top of ΔC should not be slower than only-ΔC (it only
    tightens the search deadline)."""
    only_c = TimingConstraints.only_c(1500)

    def run_both():
        a = count_motifs(sms, 3, only_c, max_nodes=3)
        b = count_motifs(sms, 3, CONSTRAINTS, max_nodes=3)
        return a, b

    a, b = benchmark.pedantic(run_both, rounds=1, iterations=1)
    # ΔW=3000 with ΔC=1500 and m=3 is the only-ΔC regime: identical counts.
    assert a == b


def test_resolution_degrading_count_loss(benchmark, bench_scale):
    """Table 4 preamble: degrading message networks to 300 s loses most
    motifs; networks with large inter-event times (bitcoin: m(Δt) in the
    thousands of seconds) lose far less."""
    del bench_scale

    def measure():
        out = {}
        for name in ("sms-copenhagen", "bitcoin-otc"):
            g = get_dataset(name, scale=0.5)
            fine = sum(
                count_motifs(g, 3, TimingConstraints.only_c(1500),
                             max_nodes=3, node_counts={3}).values()
            )
            coarse = sum(
                count_motifs(g.degrade_resolution(300), 3,
                             TimingConstraints.only_c(1500),
                             max_nodes=3, node_counts={3}).values()
            )
            out[name] = coarse / max(fine, 1)
        return out

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print("survival after 300s degrading:", ratios)
    # the dense message network loses more than the sparse ratings network
    assert ratios["sms-copenhagen"] < ratios["bitcoin-otc"]


def test_fast_two_node_counter_vs_engine(benchmark, sms):
    """Paranjape-style DP vs the generic engine on two-node motifs.

    The DP must agree exactly and is expected to be substantially faster
    (it skips instance materialization entirely).
    """
    from collections import Counter

    from repro.algorithms.fast2node import count_two_node_motifs

    delta_w = 3000.0
    fast = benchmark(lambda: count_two_node_motifs(sms, 3, delta_w))
    engine = Counter(
        count_motifs(
            sms,
            3,
            TimingConstraints.only_w(delta_w),
            max_nodes=2,
            node_counts={2},
        )
    )
    assert fast == engine
