"""Benchmark configuration.

Every paper table/figure has a ``bench_<id>.py`` file whose benchmark runs
the experiment once (``rounds=1`` — these are end-to-end reproductions, not
micro-benchmarks), prints the reproduced artifact, and asserts the paper's
shape claims for it: signs of change, orderings and dominant types, the
findings the synthetic dataset analogues are built to reproduce (their
absolute counts differ from the paper's real datasets).  Kernel
benchmarks (enumeration, census, streaming, sampling) use normal
multi-round timing on smaller inputs.

Set ``REPRO_BENCH_SCALE`` to trade fidelity for speed (default 0.5; the
paper-shape assertions are calibrated to hold at ≥ 0.5).
"""

from __future__ import annotations

import os

import pytest

#: Dataset scale for the table/figure reproductions.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


def run_once(benchmark, func):
    """Run an end-to-end experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
