"""Self-tests of the benchmark, on tiny inputs (about a minute).

    python3 -m pytest perfbench/selftest.py -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that a corrupted oracle makes ``failed`` non-zero instead of
passing, and that traced self times never sum past the traced wall.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_environment("numpy")

import workloads  # noqa: E402

WORKLOADS = ("paper", "census", "stream", "serve")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def outputs():
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(outputs, workload, trace):
    _report, result = outputs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    from repro.experiments import runner

    assert list(runner.EXPERIMENTS) == list(run.EXPERIMENT_IDS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_stay_within_the_wall(outputs, workload):
    report, result = outputs[(workload, 1)]
    times = report["self_times"]
    covered = sum(v for k, v in times.items() if k not in ("uncovered_s", "traced_wall_s"))
    assert covered <= times["traced_wall_s"] + 1e-9
    assert times["uncovered_s"] >= 0
    assert result["metrics"]["obs.trace_overhead"]["value"] > 0


def test_tracer_self_time_excludes_children():
    from spans import Tracer

    tracer = Tracer("t")
    outer = tracer._open("a.outer")
    inner = tracer._open("b.inner")
    tracer._close(inner)
    tracer._close(outer)
    self_t = tracer.self_times()
    wall = tracer.spans[outer][2]
    assert self_t["a.outer"] + self_t["b.inner"] == pytest.approx(wall)
    assert self_t["a.outer"] <= wall


def _failed_with(monkeypatch, name: str, corrupt) -> int:
    wl = workloads.WORKLOADS[name](seed=3, size="tiny")
    try:
        wl.setup()
        phase = wl.measure(0.5)
        corrupt(monkeypatch, wl)
        _attempted, failed = wl.check(phase)
    finally:
        wl.close()
    return failed


def test_corrupted_paper_reference_fails(monkeypatch):
    def corrupt(mp, _wl):
        real = workloads.load_reference()
        bad = {scale: {eid: "0" * 64 for eid in d} for scale, d in real.items()}
        mp.setattr(workloads, "load_reference", lambda: bad)

    assert _failed_with(monkeypatch, "paper", corrupt) > 0


def test_corrupted_generic_kernel_oracle_fails(monkeypatch):
    def corrupt(mp, _wl):
        mp.setattr(workloads.Census, "root_sample_matches", lambda self, graph, n: False)

    assert _failed_with(monkeypatch, "census", corrupt) > 0


def test_corrupted_online_oracle_fails(monkeypatch):
    from repro.online import OnlineCensus

    def corrupt(mp, _wl):
        real = OnlineCensus.counts
        mp.setattr(OnlineCensus, "counts", lambda self: real(self) + Counter({"bogus": 1}))

    assert _failed_with(monkeypatch, "stream", corrupt) > 0


def test_corrupted_service_oracle_fails(monkeypatch):
    def corrupt(mp, wl):
        real = workloads.Serve._read_oracle
        mp.setattr(
            workloads.Serve,
            "_read_oracle",
            lambda self, op, params: {**real(self, op, params), "total": -1},
        )

    assert _failed_with(monkeypatch, "serve", corrupt) > 0
