"""The census service worker pool: N processes over one shared page directory.

Each worker is a long-lived process that opens the served graph **once**
and then answers compute jobs forever.  When the graph source is a PR 3
page directory, every worker opens the same ``.npy`` pages with
``np.load(mmap_mode="r")`` — N workers share one set of read-only column
pages through the OS page cache, so worker memory stays O(tail) no
matter how large the graph is.  Plan compilation inside a worker goes
through :func:`repro.engine.compile_plan`'s session memo, so a
configuration served a thousand times is compiled once per worker.

Topology: one dispatcher *thread* per worker in the server process, fed
by a per-worker FIFO, speaking to the worker child over a
``multiprocessing`` pipe.  The thread is what makes failure handling
simple — a worker that dies mid-request surfaces as ``EOFError`` on the
pipe, the dispatcher fails that one request with
:class:`WorkerDied`, respawns the child, and the queue drains on.
Workers run with their own observability registry enabled, and return
it on demand (the ``snapshot`` job) so the server's ``stats`` op can
merge per-worker storage/engine counters exactly like the parallel
engine merges shard snapshots.

Workers start via the ``spawn`` context: no state is inherited from the
(multi-threaded, asyncio-running) server process, which keeps fork-
safety out of the picture and the worker's memory image minimal.
Workers are non-daemonic on purpose — a request carrying ``jobs=N``
fans out *inside* the worker through :mod:`repro.parallel`, which
refuses to nest pools under a daemonic parent.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
import traceback
from concurrent.futures import Future
from typing import Any, Mapping

from repro.service.protocol import ProtocolError, _finite_number, constraint_fields

__all__ = ["WorkerDied", "WorkerPool", "open_graph_source"]

#: Default per-request compute budget (seconds) before the worker is
#: presumed wedged, killed, and respawned.
DEFAULT_REQUEST_TIMEOUT = 600.0

_STOP = object()


class WorkerDied(RuntimeError):
    """The worker handling a request exited before replying."""

    def __init__(self, message: str, *, timed_out: bool = False) -> None:
        super().__init__(message)
        self.timed_out = timed_out


# ----------------------------------------------------------------------
# graph sources — how a worker materializes the served graph
# ----------------------------------------------------------------------
def open_graph_source(source: Mapping[str, Any]):
    """Open a graph-source spec (runs inside the worker process).

    A thin veneer over :func:`repro.sources.resolve` — the one
    source-resolution API — kept as the worker-side entry point.  The
    specs the server ships are :meth:`repro.sources.GraphSource.spec`
    wire dicts: ``"pages"`` / ``"partitioned"`` directories (mmap'd
    read-only, shared across workers through the page cache),
    ``"dataset"`` regeneration (deterministic from name/scale/seed, the
    NumPy-less fallback), or inline ``"events"`` (tests and tiny
    deployments).
    """
    from repro.sources import resolve

    return resolve(source).open(mmap=True)


# ----------------------------------------------------------------------
# job execution (worker side)
# ----------------------------------------------------------------------
def _window_view(graph, params: Mapping):
    t_lo = params.get("t_lo")
    t_hi = params.get("t_hi")
    if t_lo is None and t_hi is None:
        return graph
    # Storage-level scalar bounds: O(1) on every backend, including the
    # out-of-core partitioned one (graph.times would materialize it).
    start = graph.storage.start_time
    end = graph.storage.end_time
    lo = _bound(t_lo, "t_lo") if t_lo is not None else (start if start is not None else 0.0)
    hi = _bound(t_hi, "t_hi") if t_hi is not None else (end if end is not None else 0.0)
    if hi < lo:
        raise ProtocolError("bad_request", "t_hi must be >= t_lo")
    return graph.slice(lo, hi)


def _bound(value: Any, key: str) -> float:
    """A window bound as a float; anything but a finite JSON number is refused."""
    number = _finite_number(value)
    if number is None:
        raise ProtocolError("bad_request", f"{key} must be a finite number, got {value!r}")
    return number


def _motif_kwargs(params: Mapping) -> dict:
    from repro.core.constraints import TimingConstraints

    delta_c, delta_w = constraint_fields(params)
    n_events = params.get("n_events", 3)
    if not isinstance(n_events, int) or not 1 <= n_events <= 6:
        raise ProtocolError("bad_request", "n_events must be an integer in [1, 6]")
    max_nodes = params.get("max_nodes")
    if max_nodes is not None and (not isinstance(max_nodes, int) or max_nodes < 1):
        raise ProtocolError("bad_request", "max_nodes must be a positive integer")
    jobs = params.get("jobs")
    if jobs is not None and not isinstance(jobs, int):
        raise ProtocolError("bad_request", "jobs must be an integer")
    return {
        "n_events": n_events,
        "constraints": TimingConstraints(delta_c=delta_c, delta_w=delta_w),
        "max_nodes": max_nodes,
        "jobs": jobs,
    }


def _serialize_census(census) -> dict:
    pairs = {
        ("disjoint" if p is None else p.value): n
        for p, n in census.pair_counts.items()
    }
    return {
        "total": census.total,
        "codes": dict(census.code_counts),
        "pairs": pairs,
        "pair_groups": census.pair_group_counts(),
    }


def _execute(graph, job: Mapping, registry) -> dict:
    """One compute job -> result payload (runs inside the worker)."""
    from repro.algorithms.counting import count_motifs, run_census

    op = job["op"]
    if op == "snapshot":
        return {"snapshot": registry.snapshot()}
    if op == "meta":
        return {
            "events": len(graph),
            "name": graph.name,
            "backend": graph.storage.backend_name,
            "pid": os.getpid(),
        }
    if op == "sleep":
        seconds = float(job.get("seconds", 0.0))
        time.sleep(max(0.0, min(seconds, 3600.0)))
        return {"slept": seconds}

    started = time.perf_counter()
    if op == "window":
        if job.get("t_lo") is None or job.get("t_hi") is None:
            raise ProtocolError("bad_request", "window op requires t_lo and t_hi")
    view = _window_view(graph, job)
    kw = _motif_kwargs(job)
    if op in ("census", "window"):
        census = run_census(
            view,
            kw["n_events"],
            kw["constraints"],
            max_nodes=kw["max_nodes"],
            jobs=kw["jobs"],
        )
        result = _serialize_census(census)
    elif op == "count":
        counts = count_motifs(
            view,
            kw["n_events"],
            kw["constraints"],
            max_nodes=kw["max_nodes"],
            jobs=kw["jobs"],
        )
        result = {"codes": dict(counts), "total": sum(counts.values())}
    elif op == "estimate":
        result = _estimate(view, kw, job)
    else:
        raise ProtocolError("bad_request", f"op {op!r} is not a worker job")
    result["elapsed"] = time.perf_counter() - started
    if job.get("degraded"):
        result["degraded"] = True
    return result


def _estimate(view, kw: Mapping, job: Mapping) -> dict:
    """Root-sampling estimate with per-code standard errors."""
    from repro.core._optional import import_numpy

    np = import_numpy()
    if not np:
        raise ProtocolError(
            "bad_request", "the estimate op requires NumPy on the server"
        )
    from repro.algorithms.sampling import estimate_counts_root_sampling

    q = _finite_number(job.get("q", 0.25))
    if q is None or not 0 < q <= 1:
        raise ProtocolError("bad_request", "q must be a number in (0, 1]")
    seed = job.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ProtocolError("bad_request", "seed must be null or a non-negative integer")
    rng = np.random.default_rng(seed)
    estimates = estimate_counts_root_sampling(
        view,
        kw["n_events"],
        kw["constraints"],
        q,
        max_nodes=kw["max_nodes"],
        rng=rng,
        jobs=kw["jobs"],
    )
    # Horvitz–Thompson per-code standard error: raw sampled count n has
    # variance n(1-q)/q^2 around the estimate n/q.
    stderr = {
        code: (max(est * q, 0.0) * (1.0 - q)) ** 0.5 / q
        for code, est in estimates.items()
    }
    return {
        "codes": estimates,
        "stderr": stderr,
        "q": q,
        "method": "root_sampling",
    }


def _worker_main(conn, source: Mapping[str, Any]) -> None:  # pragma: no cover
    """Worker child: open the graph once, answer jobs until EOF/stop.

    (Covered indirectly — this runs in spawned child processes, outside
    the coverage tracer.)
    """
    import repro.obs as obs

    registry = obs.enable(obs.MetricsRegistry())
    try:
        graph = open_graph_source(source)
    except Exception:
        conn.send({"ok": False, "error": {"code": "internal", "message": traceback.format_exc()}})
        conn.close()
        return
    conn.send({"ok": True, "result": {"pid": os.getpid()}})
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        try:
            reply = {"ok": True, "result": _execute(graph, job, registry)}
        except ProtocolError as exc:
            reply = {"ok": False, "error": {"code": exc.code, "message": exc.message}}
        except Exception:
            reply = {
                "ok": False,
                "error": {"code": "internal", "message": traceback.format_exc()},
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# server-side pool
# ----------------------------------------------------------------------
class _Worker:
    """One worker process + the dispatcher thread that owns its pipe."""

    def __init__(
        self,
        index: int,
        source: Mapping[str, Any],
        ctx,
        *,
        respawn: bool,
        request_timeout: float,
    ) -> None:
        self.index = index
        self._source = source
        self._ctx = ctx
        self._respawn = respawn
        self._timeout = request_timeout
        self.pending = 0  # jobs queued or running on this worker
        self.deaths = 0
        self.completed = 0
        self._lock = threading.Lock()
        self._inbox: queue.Queue = queue.Queue()
        self._spawn()
        self._thread = threading.Thread(
            target=self._run, name=f"census-worker-{index}", daemon=True
        )
        self._thread.start()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._source),
            name=f"census-worker-{self.index}",
            daemon=False,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        # The child's first message is its readiness handshake (or the
        # traceback of a failed graph open, surfaced at pool start).
        hello = self._recv_with_timeout(self._timeout)
        if not hello.get("ok"):
            raise RuntimeError(
                f"worker {self.index} failed to open its graph:\n"
                f"{hello.get('error', {}).get('message', '?')}"
            )
        self.pid = hello["result"]["pid"]

    def _recv_with_timeout(self, timeout: float) -> dict:
        """Receive one reply; on timeout kill the child and raise WorkerDied."""
        if not self._conn.poll(timeout):
            self.process.kill()
            self.process.join()
            raise WorkerDied(
                f"worker {self.index} (pid {self.pid}) exceeded the "
                f"{timeout:.0f}s request budget and was killed",
                timed_out=True,
            )
        return self._conn.recv()

    def submit(self, payload: Mapping, future: Future) -> None:
        with self._lock:
            self.pending += 1
        self._inbox.put((payload, future))

    def stop(self) -> None:
        self._inbox.put(_STOP)

    def join(self, timeout: float) -> None:
        self._thread.join(timeout)
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join()
        self._conn.close()

    def alive(self) -> bool:
        return self.process.is_alive()

    def _run(self) -> None:
        while True:
            item = self._inbox.get()
            if item is _STOP:
                try:
                    self._conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                break
            payload, future = item
            if not future.set_running_or_notify_cancel():
                with self._lock:
                    self.pending -= 1
                continue
            try:
                self._conn.send(payload)
                reply = self._recv_with_timeout(self._timeout)
            except WorkerDied as died:
                self._after_death(future, died)
                continue
            except (EOFError, OSError, BrokenPipeError):
                self.process.join()
                self._after_death(
                    future,
                    WorkerDied(
                        f"worker {self.index} (pid {self.pid}) died mid-request "
                        f"(exit code {self.process.exitcode})"
                    ),
                )
                continue
            self.completed += 1
            with self._lock:
                self.pending -= 1
            future.set_result(reply)

    def _after_death(self, future: Future, died: WorkerDied) -> None:
        self.deaths += 1
        with self._lock:
            self.pending -= 1
        if self._respawn:
            try:
                self._spawn()
            except Exception as exc:  # pragma: no cover - spawn failure
                future.set_exception(
                    WorkerDied(f"{died}; respawn failed: {exc}")
                )
                return
        future.set_exception(died)


class WorkerPool:
    """N census workers over one graph source, with least-loaded dispatch."""

    def __init__(
        self,
        source: Mapping[str, Any],
        workers: int = 2,
        *,
        respawn: bool = True,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        start_method: str = "spawn",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        ctx = multiprocessing.get_context(start_method)
        self._workers = [
            _Worker(
                i,
                source,
                ctx,
                respawn=respawn,
                request_timeout=request_timeout,
            )
            for i in range(workers)
        ]
        self._closed = False

    def __len__(self) -> int:
        return len(self._workers)

    def submit(self, payload: Mapping) -> Future:
        """Queue one job on the least-loaded worker; returns its Future.

        The Future resolves to the worker's reply dict (``{"ok": ...}``)
        or raises :class:`WorkerDied`.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        worker = min(self._workers, key=lambda w: w.pending)
        future: Future = Future()
        worker.submit(dict(payload), future)
        return future

    def outstanding(self) -> int:
        """Jobs queued or running across all workers (the admission depth)."""
        return sum(w.pending for w in self._workers)

    def alive(self) -> int:
        return sum(1 for w in self._workers if w.alive())

    def pids(self) -> list[int]:
        return [w.pid for w in self._workers]

    def stats(self) -> dict:
        return {
            "workers": len(self._workers),
            "alive": self.alive(),
            "outstanding": self.outstanding(),
            "completed": sum(w.completed for w in self._workers),
            "deaths": sum(w.deaths for w in self._workers),
        }

    def snapshots(self, timeout: float = 5.0) -> list[dict]:
        """Observability snapshots from every worker that answers in time.

        Snapshot jobs ride the same FIFO as compute jobs, so a worker
        deep in a long census simply misses the deadline — the merge
        uses whatever arrived (the associative-merge contract makes the
        partial fold well-defined).
        """
        futures = [self.submit({"op": "snapshot"}) for _ in self._workers]
        deadline = time.monotonic() + timeout
        out = []
        for future in futures:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                reply = future.result(timeout=remaining)
            except Exception:
                continue
            if reply.get("ok"):
                out.append(reply["result"]["snapshot"])
        return out

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()
        for worker in self._workers:
            worker.join(timeout)
