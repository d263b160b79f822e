"""Run one workload of the census-system benchmark and print its metrics.

    python3 perfbench/run.py --workload census --seed 3 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the workload untraced, then again with spans and the ``repro.obs``
registry on, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the provenance, the workload-specific figures, tail
percentiles and the reason for every per-layer metric a workload does
not exercise.  Spans of a traced run are written to
``perfbench/.out/``.

``--size tiny`` runs the same code on inputs small enough for the
self-tests; ``--record-reference`` rewrites the paper digests on the
``list`` reference backend.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

EXPERIMENT_IDS = (
    "table1", "figure1", "table2", "table3", "table4", "table5", "figure3",
    "figure4", "figure5", "figure6", "table6", "table7", "nullmodels",
    "stream", "figure7", "figure8", "figure9", "figure10", "figure11",
)

#: Workload-specific figures, measured in the untraced phase.
FIGURES = {
    "paper_s": "s",
    "census_serial_events_per_s": "1/s",
    "census_parallel_events_per_s": "1/s",
    "census_4e_events_per_s": "1/s",
    "stream_events_per_s": "1/s",
    "stream_push_p50_us": "us",
    "stream_push_tail_us": "us",
    "serve_qps": "1/s",
    "serve_read_p50_ms": "ms",
    "serve_read_tail_ms": "ms",
    "serve_push_p50_ms": "ms",
}

SERVICE_OPS = ("window", "count", "estimate", "push", "view_counts")

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = {
    **FIGURES,
    "failed_share": "share",
    **{f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS},
    "datasets.generate.calls": "count",
    "datasets.generate_s": "s",
    "storage.build_s": "s",
    "storage.window_batch.queries": "count",
    "storage.adjacent_events_between.candidates": "count",
    "storage.slice_time.calls": "count",
    "storage.compact.calls": "count",
    "engine.compile.calls": "count",
    "engine.plan.cache_hit_ratio": "ratio",
    "engine.expand_s": "s",
    "engine.frontier.partials": "count",
    "engine.frontier.extensions": "count",
    "engine.extension_yield": "ratio",
    "engine.instances": "count",
    "engine.kernel.demotions": "count",
    "algorithms.fold_s": "s",
    "algorithms.census.calls": "count",
    "algorithms.count.calls": "count",
    "models.count_s": "s",
    "models.count.calls": "count",
    "parallel.shards": "count",
    "parallel.shard.payload_bytes": "bytes",
    "parallel.shard.max_s": "s",
    "parallel.shard.queue_wait_s": "s",
    "parallel.fanout_s": "s",
    "parallel.efficiency": "ratio",
    "online.push_s": "s",
    "online.prefix_store.peak": "count",
    "online.prune_s": "s",
    "online.prune.max_ms": "ms",
    "online.read_us": "us",
    "online.add_view_s": "s",
    "service.boot_s": "s",
    **{
        f"service.{op}.{kind}_ms": "ms"
        for op in SERVICE_OPS
        for kind in ("roundtrip", "compute", "overhead")
    },
    "service.queue.depth.peak": "count",
    "service.shed": "count",
    "service.reply_bytes": "bytes",
    "obs.trace_overhead": "ratio",
    "obs.traced_wall_s": "s",
    "obs.uncovered_s": "s",
}

#: Layers whose self times the traced run reports next to its wall.
SELF_TIME_METRICS = (
    "datasets.generate_s",
    "storage.build_s",
    "engine.expand_s",
    "algorithms.fold_s",
    "models.count_s",
    "online.push_s",
)


#: Why a per-layer metric reads 0 on every workload at HEAD.
ABSENT_REASONS = {
    "models.": "no workload calls MotifModel.count: run_all counts through "
    "repro.algorithms and figure1 uses is_valid_instance",
    "storage.window_batch": "the numpy kernel answers extension queries with "
    "array ops, not these storage queries",
    "storage.adjacent_events_between": "the numpy kernel answers extension "
    "queries with array ops, not these storage queries",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper", "census", "stream", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rewrite perfbench/paper_reference.json on the list backend",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare_environment(backend: str) -> None:
    """Pin the backend, keep every temporary file inside the checkout."""
    os.environ["REPRO_STORAGE"] = backend
    for var in ("REPRO_OBS", "REPRO_JOBS"):
        os.environ.pop(var, None)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def provenance(args) -> dict:
    import numpy

    from repro.engine import resolve_kernel_name
    from repro.storage import get_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    backend = os.environ["REPRO_STORAGE"]
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "kernel": resolve_kernel_name(get_backend(backend).extension_kernel),
        "seed": args.seed,
        "trace": bool(args.trace),
        "size": args.size,
        "seconds": args.seconds,
    }


def peak_rss_mb(workload) -> float:
    """Own peak RSS + largest finished child's + the server tree's (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children + workload.extra_rss_kb) / 1024.0


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _counter(snap: dict, prefix: str) -> float:
    return sum(v for k, v in snap.get("counters", {}).items() if k.split("{")[0] == prefix)


def _hist(snap: dict, prefix: str, field: str = "total") -> float:
    hists = [h for k, h in snap.get("histograms", {}).items() if k.split("{")[0] == prefix]
    if not hists:
        return 0.0
    if field == "max":
        return max(h["max"] for h in hists)
    return sum(h[field] for h in hists)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(wl, tracer, snap, base, traced, traced_wall, measure_mark, failed_share):
    """The per-layer metrics of one traced run, plus absent reasons."""
    m: dict[str, float] = {"failed_share": failed_share}
    self_t = tracer.self_times()
    stats = getattr(wl, "stats", None)
    if stats is not None:
        # Server and worker counters (slicing, engine) join the client's.
        from repro.obs import merge_snapshots

        snap = merge_snapshots([snap, stats["metrics"]])

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_t.items() if k.split(".", 1)[0] == layer)

    for name, (value, _unit) in base.figures.items():
        m[name] = value
    passes = traced.extra.get("passes")
    if passes:
        for eid in EXPERIMENT_IDS:
            m[f"experiments.{eid}_s"] = sum(tracer.durations(f"experiments.{eid}")) / passes

    m["datasets.generate.calls"] = tracer.top_level_calls("datasets")
    m["datasets.generate_s"] = layer_self("datasets")
    m["storage.build_s"] = layer_self("storage")
    m["storage.window_batch.queries"] = _hist(snap, "storage.window_batch.queries")
    m["storage.adjacent_events_between.candidates"] = _hist(
        snap, "storage.adjacent_events_between.candidates"
    )
    m["storage.slice_time.calls"] = _counter(snap, "storage.slice_time.calls")
    m["storage.compact.calls"] = _counter(snap, "storage.compact.calls")

    m["engine.compile.calls"] = len(tracer.durations("engine.compile"))
    hits = _counter(snap, "engine.plan.cache_hit")
    misses = _counter(snap, "engine.plan.cache_miss")
    if hits + misses:
        m["engine.plan.cache_hit_ratio"] = hits / (hits + misses)
    m["engine.expand_s"] = layer_self("engine")
    partials = _hist(snap, "engine.frontier.partials")
    extensions = _hist(snap, "engine.frontier.extensions")
    m["engine.frontier.partials"] = partials
    m["engine.frontier.extensions"] = extensions
    if partials:
        m["engine.extension_yield"] = extensions / partials
    m["engine.instances"] = tracer.instances
    m["engine.kernel.demotions"] = _counter(snap, "engine.kernel.demote")

    m["algorithms.fold_s"] = layer_self("algorithms")
    m["algorithms.census.calls"] = len(tracer.durations("algorithms.census"))
    m["algorithms.count.calls"] = len(tracer.durations("algorithms.count")) + len(
        tracer.durations("algorithms.count_event_pairs")
    )
    m["models.count_s"] = layer_self("models")
    m["models.count.calls"] = len(tracer.durations("models.count"))

    shard_n = _hist(snap, "parallel.shard.seconds", "count")
    if shard_n:
        m["parallel.shards"] = shard_n
        m["parallel.shard.payload_bytes"] = _hist(snap, "parallel.shard.payload_bytes")
        m["parallel.shard.max_s"] = _hist(snap, "parallel.shard.seconds", "max")
        m["parallel.shard.queue_wait_s"] = _hist(snap, "parallel.shard.queue_wait_seconds")
        m["parallel.fanout_s"] = _median(wall - slowest for wall, slowest in tracer.parallel_calls)
    walls = base.extra.get("walls")
    if walls:
        m["parallel.efficiency"] = statistics.median(walls["serial"]) / (
            base.extra["jobs"] * statistics.median(walls["parallel"])
        )

    after = tracer.spans[measure_mark:]
    if tracer.durations("online.push"):
        m["online.push_s"] = layer_self("online")
        m["online.prefix_store.peak"] = snap.get("gauges", {}).get(
            "online.prefix_store.entries", 0.0
        )
        m["online.prune_s"] = sum(tracer.durations("online.prune"))
        m["online.prune.max_ms"] = _hist(snap, "online.prune.seconds", "max") * 1e3
        m["online.read_us"] = _median(tracer.durations("online.view_counts")) * 1e6
        m["online.add_view_s"] = sum(r[2] for r in after if r[0] == "online.add_view")

    log = traced.extra.get("log")
    if log is not None:
        stats = stats["metrics"]
        m["service.boot_s"] = wl.boot_s
        for op in SERVICE_OPS:
            rows = [(lat, reply) for o, _i, lat, reply in log if o == op]
            if not rows:
                continue
            roundtrip = [lat * 1e3 for lat, _r in rows]
            m[f"service.{op}.roundtrip_ms"] = _median(roundtrip)
            if op in ("window", "count", "estimate"):
                compute = [r.get("elapsed", 0.0) * 1e3 for _l, r in rows]
                m[f"service.{op}.compute_ms"] = _median(compute)
                m[f"service.{op}.overhead_ms"] = _median(
                    a - b for a, b in zip(roundtrip, compute)
                )
            else:
                # Inline ops: the server's own timing is a histogram, so
                # compare means.
                hist = stats["histograms"].get(f"service.request.seconds{{op={op}}}")
                if hist:
                    mean = hist["total"] / hist["count"] * 1e3
                    m[f"service.{op}.compute_ms"] = mean
                    m[f"service.{op}.overhead_ms"] = statistics.fmean(roundtrip) - mean
        m["service.queue.depth.peak"] = stats.get("gauges", {}).get("service.queue.depth", 0.0)
        m["service.shed"] = _counter(stats, "service.shed")
        m["service.reply_bytes"] = _median(
            len(json.dumps(r, separators=(",", ":"))) for _o, _i, _l, r in log
        )

    m["obs.trace_overhead"] = (traced.wall / traced.ops) / (base.wall / base.ops)
    m["obs.traced_wall_s"] = traced_wall
    m["obs.uncovered_s"] = traced_wall - sum(self_t.values())

    absent = {
        name: next(
            (why for prefix, why in ABSENT_REASONS.items() if name.startswith(prefix)),
            f"not exercised by the {wl.name} workload",
        )
        for name in PER_LAYER
        if not m.get(name) and name != "failed_share"
    }
    self_report = {name: m.get(name, 0.0) for name in SELF_TIME_METRICS}
    self_report["other_layers_s"] = sum(self_t.values()) - sum(self_report.values())
    self_report["uncovered_s"] = m["obs.uncovered_s"]
    self_report["traced_wall_s"] = traced_wall
    return m, absent, self_report


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def record_reference() -> int:
    import workloads

    digests = {
        repr(scale): workloads.paper_digests(scale)
        for scale in sorted({s["paper_scale"] for s in workloads.SIZES.values()})
    }
    payload = {"backend": os.environ["REPRO_STORAGE"], "digests": digests}
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


def result_line(correct, attempted, failed, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment("list" if args.record_reference else "numpy")
    import workloads  # noqa: E402 - after sys.path points at src/

    if args.record_reference:
        return record_reference()

    prov = provenance(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    report: dict = {"workload": args.workload, "provenance": prov}
    try:
        if not args.trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - started)
            phase = wl.measure(args.seconds)
            attempted, failed = wl.check(phase)
            wl.close()
            metrics = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(wl),
                "throughput_per_s": phase.throughput,
                "p50_ms": statistics.median(phase.latencies) * 1e3,
            }
            units = {"setup_s": "s", "peak_rss_mb": "MiB", "throughput_per_s": "1/s", "p50_ms": "ms"}
            report["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in phase.figures.items()}
            report["tail"] = phase.extra.get("tail")
            report["setup_samples_s"] = setups
        else:
            import repro.obs as obs
            from repro.engine import clear_plan_cache
            from spans import Tracer

            wl.setup()
            base = wl.measure(args.seconds)
            a1, f1 = wl.check(base)
            # Kernel resolution is memoized with the plans: drop both so
            # the traced phase resolves (and counts demotions) afresh.
            clear_plan_cache()
            registry = obs.enable()
            tracer = Tracer(run_id=uuid.uuid4().hex)
            tracer.install()
            try:
                started = time.perf_counter()
                wl.setup()
                mark = len(tracer.spans)
                traced = wl.measure(args.seconds)
                traced_wall = time.perf_counter() - started
            finally:
                tracer.uninstall()
                obs.disable()
            snap = registry.snapshot()
            a2, f2 = wl.check(traced)
            wl.close()
            attempted, failed = a1 + a2, f1 + f2
            metrics, absent, self_report = layer_metrics(
                wl, tracer, snap, base, traced, traced_wall, mark, failed / attempted
            )
            for name in PER_LAYER:
                metrics.setdefault(name, 0.0)
            units = PER_LAYER
            report.update(
                figures={k: {"value": v, "unit": u} for k, (v, u) in base.figures.items()},
                tail=base.extra.get("tail"),
                self_times=self_report,
                absent=absent,
            )
            path = OUT / f"trace-{args.workload}-{args.seed}-{tracer.run_id[:8]}.json"
            tracer.dump(str(path), {"workload": args.workload, "provenance": prov})
            report["trace_file"] = str(path.relative_to(ROOT))
    finally:
        wl.close()
    report["failed_share"] = failed / attempted
    print(json.dumps(report))
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
