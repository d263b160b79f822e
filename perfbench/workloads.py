"""The benchmark's four workloads: ``paper``, ``census``, ``stream``, ``serve``.

Each workload is a class with four steps:

* ``setup()`` builds the inputs from the seed (repeated by the runner,
  which reports the median as ``setup_s``);
* ``measure(seconds)`` runs the timed phase and returns a :class:`Phase`;
* ``check(phase)`` compares every output of the timed phase with an
  oracle, outside the timed phase, and returns ``(attempted, failed)``;
* ``close()`` stops whatever ``setup`` started.

The program under test sees only the generated inputs.  ``SIZES`` holds
the full sizes and the tiny ones the self-tests use.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "paper_reference.json"

SIZES = {
    "full": {
        "paper_scale": 0.2,
        "census_events": 50_000,
        "census_4e_events": 12_000,
        "census_root_sample": 300,
        "stream_events": 50_000,
        "stream_views": 1000,
        "serve_events": 20_000,
        "serve_window_span": 30_000.0,
    },
    "tiny": {
        "paper_scale": 0.02,
        "census_events": 3_000,
        "census_4e_events": 1_500,
        "census_root_sample": 50,
        "stream_events": 3_000,
        "stream_views": 24,
        "serve_events": 2_000,
        "serve_window_span": 100_000.0,
    },
}

#: Result keys of the ``stream`` experiment that are timings, not answers.
TIMING_KEYS = frozenset({"seconds", "events_per_sec", "push_latency"})


def nproc() -> int:
    return os.cpu_count() or 1


@dataclass
class Phase:
    """What one timed phase did."""

    wall: float
    #: Operations completed, and the per-operation latencies (seconds)
    #: behind ``p50_ms``.
    ops: int
    latencies: list[float]
    #: Work items per second of wall behind ``throughput_per_s``.
    throughput: float
    #: Workload-specific figures (``paper_s``, ``census_*``, ...), by name.
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Extra data the check and the per-layer metrics need.
    extra: dict = field(default_factory=dict)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; ``(0, 0, n)`` when fewer
    than eleven samples exist.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 0.0, 0.0, n
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n


def canon(obj):
    """A canonical JSON-ready form of ``obj``: mapping keys sorted.

    Key order is left out on purpose: the list and numpy backends agree
    on every value of the paper's results but not on the insertion order
    of some derived mappings (``table3``/``table6`` ``rank_changes``).
    """
    if isinstance(obj, dict):
        pairs = [[canon(k), canon(v)] for k, v in obj.items() if k not in TIMING_KEYS]
        return sorted(pairs, key=lambda pair: json.dumps(pair[0]))
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canon(v) for v in obj), key=repr)
    if isinstance(obj, Enum):
        return canon(obj.value)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "item") and callable(obj.item):  # NumPy scalars
        return canon(obj.item())
    if hasattr(obj, "tolist"):  # NumPy arrays
        return canon(obj.tolist())
    if hasattr(obj, "__dataclass_fields__"):
        return canon({k: getattr(obj, k) for k in obj.__dataclass_fields__})
    return repr(obj)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canon(obj)).encode()).hexdigest()


def ordered_digest(items: list) -> str:
    """Digest of a nested list, every order kept (``repr`` for the rest)."""
    return hashlib.sha256(json.dumps(items, default=repr).encode()).hexdigest()


def wire(payload: dict) -> dict:
    """Normalize a payload the way the wire does (JSON round trip)."""
    return json.loads(json.dumps(payload))


def stream_config(n_events: int, timespan: float = 1_000_000.0):
    """bench_storage's SNAP-like 100k-event stream shape at ``n_events``."""
    from repro.datasets.generators import ActivityConfig

    return ActivityConfig(
        n_nodes=5_000,
        n_events=n_events,
        timespan=timespan,
        p_reply=0.3,
        p_repeat=0.2,
        p_cc=0.2,
        p_forward=0.15,
        p_in_burst=0.1,
    )


def constraints():
    from repro.core.constraints import TimingConstraints

    return TimingConstraints(delta_c=1500, delta_w=3000)


class Workload:
    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SIZES[size]

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Phase:
        raise NotImplementedError

    def check(self, phase: Phase) -> tuple[int, int]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    #: Extra peak RSS (KiB) of processes this workload started itself.
    extra_rss_kb = 0


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------
class Paper(Workload):
    """The full reproduction: ``run_all()``'s loop over every experiment.

    Its inputs are the registry datasets at their fixed seeds, the
    paper's inputs, so every seed runs the same reproduction; the seed
    is recorded only.  The plan memo is cleared before each pass, so
    every pass starts as cold as a fresh ``python -m repro.experiments
    all`` session.
    """

    name = "paper"

    def setup(self) -> None:
        # A user pays interpreter start-up and the experiments import on
        # every CLI run; the reproduction generates its own inputs.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-c", "import repro.experiments.runner"],
            check=True,
            env=env,
        )

    def measure(self, seconds: float) -> Phase:
        from repro.engine import clear_plan_cache
        from repro.experiments import runner

        scale = self.size["paper_scale"]
        latencies: list[float] = []
        pass_walls: list[float] = []
        digests: list[dict[str, str]] = []
        started = time.perf_counter()
        while not pass_walls or time.perf_counter() - started < seconds:
            clear_plan_cache()
            pass_started = time.perf_counter()
            got: dict[str, str] = {}
            for eid in runner.EXPERIMENTS:
                t0 = time.perf_counter()
                result = runner.run_experiment(eid, scale=scale)
                latencies.append(time.perf_counter() - t0)
                got[eid] = digest(result.data)
            pass_walls.append(time.perf_counter() - pass_started)
            digests.append(got)
        wall = time.perf_counter() - started
        return Phase(
            wall=wall,
            ops=len(latencies),
            latencies=latencies,
            throughput=len(latencies) / wall,
            figures={"paper_s": (statistics.median(pass_walls), "s")},
            extra={"digests": digests, "passes": len(pass_walls)},
        )

    def check(self, phase: Phase) -> tuple[int, int]:
        reference = load_reference()[repr(self.size["paper_scale"])]
        failed = sum(
            got != reference.get(eid)
            for digests in phase.extra["digests"]
            for eid, got in digests.items()
        )
        return phase.ops, failed


def paper_digests(scale: float) -> dict[str, str]:
    """One untimed pass: experiment id -> digest of its ``data``."""
    from repro.experiments import runner

    return {
        eid: digest(runner.run_experiment(eid, scale=scale).data)
        for eid in runner.EXPERIMENTS
    }


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["digests"]


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
def census_key(census) -> str:
    """Digest of a census, every counter's key order included."""
    return ordered_digest(
        [
            census.total,
            list(census.code_counts.items()),
            [[None if p is None else p.value, n] for p, n in census.pair_counts.items()],
            list(census.pair_sequence_counts.items()),
        ]
    )


class Census(Workload):
    """One large expansion: 3-event censuses serial and sharded, then 4-event."""

    name = "census"

    def setup(self) -> None:
        from repro.algorithms.counting import run_census
        from repro.datasets.generators import generate

        c = constraints()
        self.graph = generate(stream_config(self.size["census_events"]), seed=self.seed)
        self.graph4 = generate(
            stream_config(self.size["census_4e_events"]), seed=self.seed + 1
        )
        # Lazy index and kernel warm-up on a few roots of each graph.
        run_census(self.graph, 3, c, max_nodes=3, roots=range(64))
        run_census(self.graph4, 4, c, max_nodes=4, roots=range(64))
        self.jobs = max(2, nproc())

    def _runs(self):
        g, g4 = self.graph, self.graph4
        return (
            ("serial", g, 3, 1),
            ("parallel", g, 3, self.jobs),
            ("4e", g4, 4, 1),
        )

    def measure(self, seconds: float) -> Phase:
        from repro.algorithms.counting import run_census

        c = constraints()
        walls: dict[str, list[float]] = {"serial": [], "parallel": [], "4e": []}
        keys: dict[str, list[str]] = {"serial": [], "parallel": [], "4e": []}
        pass_walls: list[float] = []
        events_done = 0
        census_wall = 0.0
        started = time.perf_counter()
        while not pass_walls or time.perf_counter() - started < seconds:
            pass_started = time.perf_counter()
            for kind, graph, n, jobs in self._runs():
                t0 = time.perf_counter()
                census = run_census(graph, n, c, max_nodes=n, jobs=jobs)
                dt = time.perf_counter() - t0
                walls[kind].append(dt)
                keys[kind].append(census_key(census))
                events_done += len(graph)
                census_wall += dt
            pass_walls.append(time.perf_counter() - pass_started)
        wall = time.perf_counter() - started

        def rate(kind: str, graph) -> float:
            return len(graph) / statistics.median(walls[kind])

        return Phase(
            wall=wall,
            ops=len(pass_walls),
            latencies=pass_walls,
            throughput=events_done / census_wall,
            figures={
                "census_serial_events_per_s": (rate("serial", self.graph), "1/s"),
                "census_parallel_events_per_s": (rate("parallel", self.graph), "1/s"),
                "census_4e_events_per_s": (rate("4e", self.graph4), "1/s"),
            },
            extra={"walls": walls, "keys": keys, "jobs": self.jobs},
        )

    def root_sample_matches(self, graph, n: int) -> bool:
        """Default kernel == forced generic kernel on a seeded root sample."""
        from repro.algorithms.counting import run_census
        from repro.engine import compile_plan

        c = constraints()
        rng = random.Random(self.seed)
        k = min(self.size["census_root_sample"], len(graph))
        roots = sorted(rng.sample(range(len(graph)), k))
        default = run_census(graph, n, c, max_nodes=n, roots=roots)
        generic = run_census(
            graph,
            n,
            c,
            max_nodes=n,
            roots=roots,
            plan=compile_plan(n, c, None, graph.storage, max_nodes=n, kernel="generic"),
        )
        return census_key(default) == census_key(generic)

    def check(self, phase: Phase) -> tuple[int, int]:
        keys = phase.extra["keys"]
        serial_ok = self.root_sample_matches(self.graph, 3)
        four_ok = self.root_sample_matches(self.graph4, 4)
        expected = {"serial": keys["serial"][0], "parallel": keys["serial"][0], "4e": keys["4e"][0]}
        oracle_ok = {"serial": serial_ok, "parallel": serial_ok, "4e": four_ok}
        attempted = failed = 0
        for kind, got in keys.items():
            for key in got:
                attempted += 1
                failed += (key != expected[kind]) or not oracle_ok[kind]
        return attempted, failed


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
MAX_GLOBAL_VIEWS = 8
TENANT_NODES = 3
STREAM_PARTS = 5
READ_EVERY = 50
VIEW_CHURN_EVERY = 5_000


class Stream(Workload):
    """One live MultiViewCensus: pushes, reads beside them, view churn.

    The base stream is ``STREAM_PARTS`` independently generated streams
    of equal event density, one after the other, so one timed phase
    averages over several generated traffic patterns instead of riding
    one seed's.  It is replayed in laps, each shifted past the previous
    one, so the timed phase can run as long as asked.
    """

    name = "stream"
    window = 3000.0

    def _view_specs(self, n_views: int, n_nodes: int) -> list[dict]:
        rng = random.Random(self.seed)
        specs = []
        for i in range(min(n_views, MAX_GLOBAL_VIEWS)):
            specs.append(
                {"name": f"global-{i}", "window": self.window * (1.0 - i / (2 * MAX_GLOBAL_VIEWS))}
            )
        for i in range(n_views - len(specs)):
            specs.append(
                {
                    "name": f"tenant-{i}",
                    "window": self.window * (0.5 + 0.5 * rng.random()),
                    "nodes": rng.sample(range(n_nodes), TENANT_NODES),
                }
            )
        return specs

    def _engine(self):
        from repro.online import MultiViewCensus

        engine = MultiViewCensus(
            3, constraints(), self.window, max_nodes=3, prune_every=8192
        )
        for spec in self.specs:
            engine.add_view(spec["name"], spec["window"], nodes=spec.get("nodes"))
        return engine

    def setup(self) -> None:
        from repro.datasets.generators import generate

        config = stream_config(
            self.size["stream_events"] // STREAM_PARTS, 1_000_000.0 / STREAM_PARTS
        )
        self.base = []
        shift = 0.0
        for part in range(STREAM_PARTS):
            events = generate(config, seed=self.seed * STREAM_PARTS + part).events
            shift += 2 * self.window - events[0].t
            self.base.extend((e.u, e.v, e.t + shift) for e in events)
            shift = self.base[-1][2]
        self.lap = self.base[-1][2] - self.base[0][2] + 2 * self.window
        self.n_nodes = config.n_nodes
        self.specs = self._view_specs(self.size["stream_views"], config.n_nodes)
        rng = random.Random(self.seed + 1)
        globals_ = [s for s in self.specs if "nodes" not in s]
        tenants = [s for s in self.specs if "nodes" in s]
        # Checked views: the widest global window and two seeded tenants.
        self.checked = [globals_[0]] + rng.sample(tenants, 2)
        self.engine = self._engine()

    def events(self):
        lap = 0
        while True:
            shift = lap * self.lap
            for u, v, t in self.base:
                yield (u, v, t + shift)
            lap += 1

    def measure(self, seconds: float) -> Phase:
        engine = self.engine
        checked = [s["name"] for s in self.checked]
        churn_rng = random.Random(self.seed + 2)
        push_lat: list[float] = []
        reads: list[tuple[int, str, list]] = []
        added: list[str] = []
        view_ops = 0
        pushed: list[tuple] = []
        perf = time.perf_counter
        started = perf()
        deadline = started + seconds
        for ev in self.events():
            t0 = perf()
            engine.push(ev)
            push_lat.append(perf() - t0)
            pushed.append(ev)
            n = len(pushed)
            if n % READ_EVERY == 0:
                name = checked[(n // READ_EVERY) % len(checked)]
                payload = engine.view_counts(name)
                reads.append((n, name, list(payload["codes"].items())))
                if perf() >= deadline:
                    break
            if n % VIEW_CHURN_EVERY == 0:
                # A mid-stream tenant view with backfill, and the drop of
                # the one added before it.
                name = f"late-{n}"
                engine.add_view(
                    name,
                    self.window * (0.5 + 0.5 * churn_rng.random()),
                    nodes=churn_rng.sample(range(self.n_nodes), TENANT_NODES),
                )
                if added:
                    engine.drop_view(added.pop())
                added.append(name)
                view_ops += 2
        wall = perf() - started
        p50 = statistics.median(push_lat)
        tail_v, tail_pct, samples = tail(push_lat)
        return Phase(
            wall=wall,
            ops=len(push_lat),
            latencies=push_lat,
            throughput=len(push_lat) / wall,
            figures={
                "stream_events_per_s": (len(push_lat) / wall, "1/s"),
                "stream_push_p50_us": (p50 * 1e6, "us"),
                "stream_push_tail_us": (tail_v * 1e6, "us"),
            },
            extra={
                "pushed": pushed,
                "reads": reads,
                "view_ops": view_ops,
                "tail": {"percentile": tail_pct, "samples": samples},
            },
        )

    def _oracle_reads(self, spec: dict, pushed: list, want: dict[int, list]) -> int:
        """Replay one checked view in an independent engine; count mismatches."""
        from repro.online import OnlineCensus

        oracle = OnlineCensus(3, constraints(), spec["window"], max_nodes=3, prune_every=8192)
        nodes = set(spec.get("nodes") or ())
        failed = 0
        for i, (u, v, t) in enumerate(pushed, 1):
            if not nodes or (u in nodes and v in nodes):
                oracle.push((u, v, t))
            else:
                oracle.advance_to(t)
            if i in want:
                failed += list(oracle.counts().items()) != want[i]
        return failed

    def check(self, phase: Phase) -> tuple[int, int]:
        from repro.algorithms.counting import run_census
        from repro.core.temporal_graph import TemporalGraph

        pushed = phase.extra["pushed"]
        reads = phase.extra["reads"]
        failed = 0
        for spec in self.checked:
            want = {n: codes for n, name, codes in reads if name == spec["name"]}
            failed += self._oracle_reads(spec, pushed, want)
        # The widest global view against a batch census of its window.
        widest = self.checked[0]
        now = pushed[-1][2]
        lo = now - widest["window"]
        tail_events = [ev for ev in pushed[-20_000:] if ev[2] >= lo]
        batch = run_census(
            TemporalGraph.from_tuples(tail_events).slice(lo, now), 3, constraints(), max_nodes=3
        )
        view = self.engine.census(widest["name"])
        failed += view.code_counts != batch.code_counts or view.total != batch.total
        attempted = phase.ops + len(reads) + phase.extra["view_ops"] + 1
        return attempted, failed


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
READ_OPS = ("window", "count", "estimate")
N_WINDOWS = 24
PUSH_BATCH = 200
LATER_LAP_CHECKS = 100
ESTIMATE_Q = 0.5


def serialize_census(census) -> dict:
    """The wire form of a census reply (the service's documented schema)."""
    return {
        "total": census.total,
        "codes": dict(census.code_counts),
        "pairs": {
            ("disjoint" if p is None else p.value): n for p, n in census.pair_counts.items()
        },
        "pair_groups": census.pair_group_counts(),
    }


class Serve(Workload):
    """The census service under a closed loop of readers and one writer."""

    name = "serve"
    stream_window = 3000.0

    def setup(self) -> None:
        import tempfile

        from repro.datasets.generators import generate

        self.close()
        c = constraints()
        self.graph = generate(stream_config(self.size["serve_events"]), seed=self.seed)
        self.pages = tempfile.TemporaryDirectory(prefix="perfbench-pages-")
        self.graph.save(self.pages.name)
        self.workers = nproc()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_proc.py"), self.pages.name, str(self.workers)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        hello = json.loads(self.proc.stdout.readline())
        self.port, self.boot_s = hello["port"], hello["boot_s"]
        # Equal-span windows ending at evenly spaced stream positions.
        times = self.graph.times
        span = self.size["serve_window_span"]
        self.windows = []
        for k in range(N_WINDOWS):
            t_hi = times[len(times) // 4 + k * (3 * len(times) // 4 - 1) // N_WINDOWS]
            self.windows.append((max(times[0], t_hi - span), t_hi))
        self.motif = {"delta_c": c.delta_c, "delta_w": c.delta_w, "n_events": 3, "max_nodes": 3}
        push_graph = generate(stream_config(self.size["serve_events"]), seed=self.seed + 1)
        self.push_base = [(e.u, e.v, e.t) for e in push_graph.events]
        self.push_lap = self.push_base[-1][2] - self.push_base[0][2] + 2 * self.stream_window

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is not None:
            if proc.poll() is None:
                proc.stdin.write("stop\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                if line:
                    self.extra_rss_kb = json.loads(line)["tree_peak_rss_kb"]
            proc.wait(timeout=60)
            proc.stdin.close()
            proc.stdout.close()
            self.proc = None
        pages = getattr(self, "pages", None)
        if pages is not None:
            pages.cleanup()
            self.pages = None

    def _read_request(self, i: int) -> tuple[str, dict]:
        op = READ_OPS[i % len(READ_OPS)]
        t_lo, t_hi = self.windows[(i // len(READ_OPS)) % len(self.windows)]
        params = dict(self.motif, t_lo=t_lo, t_hi=t_hi)
        if op == "estimate":
            params.update(q=ESTIMATE_Q, seed=self.seed)
        return op, params

    def _reader(self, index: int, deadline: float, log: list) -> None:
        from repro.service.client import ServiceClient, ServiceError

        i = index * 7
        with ServiceClient("127.0.0.1", self.port) as client:
            while time.perf_counter() < deadline:
                op, params = self._read_request(i)
                t0 = time.perf_counter()
                try:
                    reply = client.call(op, **params)
                except ServiceError as exc:
                    reply = {"error": exc.code}
                log.append((op, i, time.perf_counter() - t0, reply))
                i += 1

    def _writer(self, deadline: float, log: list) -> None:
        from repro.service.client import ServiceClient, ServiceError

        def batches():
            lap = 0
            while True:
                shift = lap * self.push_lap
                for k in range(0, len(self.push_base), PUSH_BATCH):
                    yield [(u, v, t + shift) for u, v, t in self.push_base[k:k + PUSH_BATCH]]
                lap += 1

        config = dict(self.motif, window=self.stream_window)
        pushed = 0
        with ServiceClient("127.0.0.1", self.port) as client:
            for batch in batches():
                if time.perf_counter() >= deadline:
                    break
                t0 = time.perf_counter()
                try:
                    reply = client.call(
                        "push", stream="bench", events=[list(ev) for ev in batch], **config
                    )
                except ServiceError as exc:
                    reply = {"error": exc.code}
                log.append(("push", len(batch), time.perf_counter() - t0, reply))
                pushed += len(batch)
                t0 = time.perf_counter()
                try:
                    reply = client.call("view_counts", stream="bench", view="default")
                except ServiceError as exc:
                    reply = {"error": exc.code}
                log.append(("view_counts", pushed, time.perf_counter() - t0, reply))

    def measure(self, seconds: float) -> Phase:
        readers = max(1, self.workers - 1)
        logs: list[list] = [[] for _ in range(readers + 1)]
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(target=self._reader, args=(i, deadline, logs[i]))
            for i in range(readers)
        ]
        threads.append(threading.Thread(target=self._writer, args=(deadline, logs[-1])))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        from repro.service.client import ServiceClient

        with ServiceClient("127.0.0.1", self.port) as client:
            client.call("stream_close", stream="bench")
            self.stats = client.stats(timeout=30)
        log = [entry for part in logs for entry in part]
        read_lat = [lat for op, _i, lat, _r in log if op in READ_OPS]
        push_lat = [lat for op, _i, lat, _r in log if op == "push"]
        tail_v, tail_pct, samples = tail(read_lat)
        return Phase(
            wall=wall,
            ops=len(log),
            latencies=read_lat,
            throughput=len(log) / wall,
            figures={
                "serve_qps": (len(log) / wall, "1/s"),
                "serve_read_p50_ms": (statistics.median(read_lat) * 1e3, "ms"),
                "serve_read_tail_ms": (tail_v * 1e3, "ms"),
                "serve_push_p50_ms": (statistics.median(push_lat) * 1e3, "ms"),
            },
            extra={
                "log": log,
                "readers": readers,
                "tail": {"percentile": tail_pct, "samples": samples},
            },
        )

    def _read_oracle(self, op: str, params: dict) -> dict:
        import numpy as np

        from repro.algorithms.counting import count_motifs, run_census
        from repro.algorithms.sampling import estimate_counts_root_sampling

        c = constraints()
        view = self.graph.slice(params["t_lo"], params["t_hi"])
        if op == "window":
            return wire(serialize_census(run_census(view, 3, c, max_nodes=3)))
        if op == "count":
            counts = count_motifs(view, 3, c, max_nodes=3)
            return wire({"codes": dict(counts), "total": sum(counts.values())})
        q = params["q"]
        est = estimate_counts_root_sampling(
            view, 3, c, q, max_nodes=3, rng=np.random.default_rng(params["seed"])
        )
        stderr = {
            code: (max(e * q, 0.0) * (1.0 - q)) ** 0.5 / q for code, e in est.items()
        }
        return wire({"codes": est, "stderr": stderr, "q": q, "method": "root_sampling"})

    def _stream_oracle(self, checkpoints: dict[int, dict]) -> int:
        """Count ``view_counts`` replies that differ from their oracle.

        Replies within the first lap of pushes must equal, JSON key order
        included, a local engine fed the same events.  Later laps repeat
        the first one shifted in time, so a full replay would cost as much
        as the timed phase; a seeded sample of their replies is checked
        against a batch census of the view's window instead.
        """
        from repro.algorithms.counting import run_census
        from repro.core.temporal_graph import TemporalGraph
        from repro.online import MultiViewCensus

        engine = MultiViewCensus(3, constraints(), self.stream_window, max_nodes=3, prune_every=8192)
        engine.add_view("default", self.stream_window)
        lap_len = len(self.push_base)
        failed = 0
        for n, ev in enumerate(self.push_base, 1):
            engine.push(ev)
            if n in checkpoints:
                want = wire(engine.view_counts("default"))
                got = {k: v for k, v in checkpoints[n].items() if k != "stream"}
                failed += got != want or list(got["codes"]) != list(want["codes"])
        later = sorted(n for n in checkpoints if n > lap_len)
        rng = random.Random(self.seed)
        for n in rng.sample(later, min(len(later), LATER_LAP_CHECKS)):
            lap, pos = divmod(n - 1, lap_len)
            shift = lap * self.push_lap
            now = self.push_base[pos][2] + shift
            lo = now - self.stream_window
            recent = [
                (u, v, t + shift) for u, v, t in self.push_base[: pos + 1] if t + shift >= lo
            ]
            batch = run_census(
                TemporalGraph.from_tuples(recent).slice(lo, now), 3, constraints(), max_nodes=3
            )
            got = checkpoints[n]
            failed += got["codes"] != wire(dict(batch.code_counts)) or got["total"] != batch.total
        return failed

    def check(self, phase: Phase) -> tuple[int, int]:
        log = phase.extra["log"]
        period = len(READ_OPS) * N_WINDOWS
        oracles = {
            i % period: self._read_oracle(*self._read_request(i % period))
            for op, i, _lat, _reply in log
            if op in READ_OPS
        }
        failed = 0
        checkpoints: dict[int, dict] = {}
        for op, i, _lat, reply in log:
            if "error" in reply:
                failed += 1
            elif op in READ_OPS:
                got = {k: v for k, v in reply.items() if k != "elapsed"}
                want = oracles[i % period]
                failed += got != want or list(got["codes"]) != list(want["codes"])
            elif op == "push":
                failed += reply["accepted"] != i
            else:
                checkpoints[i] = reply
        failed += self._stream_oracle(checkpoints)
        return len(log), failed


WORKLOADS = {cls.name: cls for cls in (Paper, Census, Stream, Serve)}
