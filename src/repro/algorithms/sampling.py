"""Approximate motif counting by root sampling.

The survey's related work (Section 3) cites Liu, Benson & Charikar (WSDM
2019), who estimate temporal motif counts up to two orders of magnitude
faster by sampling time intervals, counting exactly inside each sample, and
reweighting.  We implement the cleanest member of that family: **root
sampling**.  Every motif instance has exactly one *root* (its earliest
event), so sampling each event as a root independently with probability
``q`` and enumerating only instances rooted at sampled events gives a
Horvitz–Thompson estimator ``count / q`` that is unbiased for every motif
code simultaneously.

A windowed variant (:func:`estimate_counts_window_sampling`) samples
contiguous time windows instead, trading some bias control for better
locality — closer to the paper's interval sampling.
"""

from __future__ import annotations

import math

from repro.core._optional import import_numpy

np = import_numpy()

from repro.algorithms.counting import count_motifs
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph


def estimate_counts_root_sampling(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    q: float,
    *,
    max_nodes: int | None = None,
    rng: np.random.Generator | None = None,
    jobs: int | None = None,
) -> dict[str, float]:
    """Unbiased per-code count estimates via root sampling.

    Parameters
    ----------
    q:
        Root inclusion probability in ``(0, 1]``.  ``q = 1`` degenerates to
        exact counting.
    rng:
        NumPy generator for reproducibility (seeded fresh when omitted).
    jobs:
        Worker processes for the sampled enumeration.  Routed through the
        parallel engine exactly like :func:`run_census` — argument, then
        session default, then ``REPRO_JOBS``, else serial — and the
        estimate is bit-identical to the serial run (the sampled roots
        are ascending, so shards partition them exactly).

    Returns
    -------
    Motif code → estimated count (``raw / q``).
    """
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    rng = rng if rng is not None else np.random.default_rng()
    # len(graph), not len(graph.events): the events view would box every
    # event of an array backend (and load every out-of-core partition).
    m = len(graph)
    if m == 0:
        return {}
    roots = np.flatnonzero(rng.random(m) < q).tolist()
    raw = count_motifs(
        graph, n_events, constraints, max_nodes=max_nodes, roots=roots, jobs=jobs
    )
    return {code: count / q for code, count in raw.items()}


def estimate_counts_window_sampling(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    window: float,
    q: float,
    max_nodes: int | None = None,
    rng: np.random.Generator | None = None,
    jobs: int | None = None,
) -> dict[str, float]:
    """Per-code estimates by sampling root *windows* of fixed length.

    The timeline is partitioned into consecutive windows of length
    ``window``; each window is kept with probability ``q`` and instances
    whose root falls in a kept window are enumerated.  Because each
    instance has exactly one root and each root lies in exactly one
    window, the ``raw / q`` estimator stays unbiased; sampling whole
    windows preserves the burst locality exploited by interval samplers.
    ``jobs`` shards the sampled enumeration exactly like
    :func:`estimate_counts_root_sampling`.
    """
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    if window <= 0:
        raise ValueError("window must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    if not len(graph):
        return {}
    t0 = graph.times[0]
    n_windows = int(math.floor((graph.times[-1] - t0) / window)) + 1
    keep = rng.random(n_windows) < q
    roots = [
        i
        for i, t in enumerate(graph.times)
        if keep[int((t - t0) // window)]
    ]
    raw = count_motifs(
        graph, n_events, constraints, max_nodes=max_nodes, roots=roots, jobs=jobs
    )
    return {code: count / q for code, count in raw.items()}


def relative_error(exact: dict[str, int], estimate: dict[str, float]) -> float:
    """Total-variation-style relative error between exact and estimated counts.

    ``sum(|exact - est|) / sum(exact)``; codes missing from either side
    count as zero.  Used by tests and the sampling ablation bench.
    """
    total = sum(exact.values())
    if total == 0:
        return 0.0 if not estimate else math.inf
    codes = set(exact) | set(estimate)
    err = sum(abs(exact.get(c, 0) - estimate.get(c, 0.0)) for c in codes)
    return err / total
