"""In-memory span tracing of the census layers, from outside the program.

The tracer wraps public entry points of each layer (named after the
modules under ``src/repro/``) and records one span per call: name,
start, duration, parent span and run id.  Nothing under ``src/``
changes: :meth:`Tracer.install` rebinds the public functions in every
loaded ``repro`` module that imported them by name, and
:meth:`Tracer.uninstall` restores the originals.

Two kinds of span:

* a plain call span covers the call from entry to return;
* a generator span (``run_plan`` and the block generator returned by
  ``run_plan_blocks``) counts only the time spent inside the generator's
  own steps, so the consumer's fold between steps is charged to the
  consumer, not to the engine.

A span's self time is its duration minus the durations of its children
(spans opened while it was the innermost open span on the same thread).
Spans stay in memory; :meth:`Tracer.dump` writes them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

def layer_of(name: str) -> str:
    """A span's layer: the first dotted component of its name."""
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder over monkeypatched layer entry points."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # Span rows: [name, start, duration, parent index, thread id].
        self.spans: list[list] = []
        self.instances = 0
        #: (wall, slowest shard) seconds of each parallel entry-point call.
        self.parallel_calls: list[tuple[float, float]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._main_thread = threading.get_ident()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, threading.get_ident()])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        row = self.spans[idx]
        row[2] = time.perf_counter() - row[1]
        self._stack().pop()

    def call_span(self, name: str, fn):
        """Wrap ``fn`` so every call records one span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def generator_span(self, name: str, gen, *, rows: bool = False):
        """Wrap a generator: one span whose duration is its steps' sum."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, threading.get_ident()])
        row = self.spans[idx]

        def steps():
            while True:
                stack = self._stack()
                stack.append(idx)
                started = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    row[2] += time.perf_counter() - started
                    stack.pop()
                self.instances += len(item) if rows else 1
                yield item

        return steps()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _rebind(self, original, replacement) -> None:
        """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import repro.parallel as parallel
        from repro.algorithms import counting
        from repro.datasets import generators, registry
        from repro.engine import driver, plan
        from repro.experiments import runner
        from repro.models.base import MotifModel
        from repro.online.multiview import MultiViewCensus
        from repro.service.client import ServiceClient
        from repro.storage import available_backends, get_backend

        self._rebind(
            runner.run_experiment, self.named_by_arg("experiments", 0, runner.run_experiment)
        )
        functions = [
            (registry.get_dataset, "datasets.get_dataset"),
            (generators.generate, "datasets.generate"),
            (plan.compile_plan, "engine.compile"),
            (counting.run_census, "algorithms.census"),
            (counting.count_motifs, "algorithms.count"),
            (counting.count_event_pairs, "algorithms.count_event_pairs"),
        ]
        for fn, name in functions:
            self._rebind(fn, self.call_span(name, fn))
        for fn in (
            parallel.parallel_run_census,
            parallel.parallel_count_motifs,
            parallel.parallel_count_event_pairs,
        ):
            self._rebind(fn, self._parallel_wrapper(fn))
        self._rebind(driver.run_plan, self._run_plan_wrapper(driver.run_plan))
        self._rebind(
            driver.run_plan_blocks, self._run_plan_blocks_wrapper(driver.run_plan_blocks)
        )

        for name in available_backends():
            cls = get_backend(name)
            if "from_events" in cls.__dict__:
                func = cls.__dict__["from_events"].__func__
                self._patch_attr(
                    cls, "from_events", classmethod(self.call_span("storage.build", func))
                )
        self._patch_attr(
            MotifModel, "count", self.call_span("models.count", MotifModel.count)
        )
        for method in ("push", "view_counts", "add_view", "prune"):
            self._patch_attr(
                MultiViewCensus,
                method,
                self.call_span(f"online.{method}", MultiViewCensus.__dict__[method]),
            )
        self._patch_attr(
            ServiceClient, "call", self.named_by_arg("service", 1, ServiceClient.call)
        )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _parallel_wrapper(self, fn):
        """A ``parallel.run`` span that also records the call's slowest shard.

        The call records into a registry of its own, merged back into the
        active one afterwards, so its shard histogram holds only its shards.
        """
        import repro.obs as obs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prior = obs.ACTIVE
            local = obs.MetricsRegistry() if prior is not None else None
            if local is not None:
                obs.ACTIVE = local
            idx = self._open("parallel.run")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if local is not None:
                    obs.ACTIVE = prior
                    snap = local.snapshot()
                    prior.merge_snapshot(snap)
                    shards = snap["histograms"].get("parallel.shard.seconds")
                    if shards:
                        self.parallel_calls.append((self.spans[idx][2], shards["max"]))

        return wrapper

    def _run_plan_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.generator_span("engine.expand", fn(*args, **kwargs))

        return wrapper

    def _run_plan_blocks_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open("engine.expand")
            try:
                blocks = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if blocks is None:
                return None
            return self.generator_span("engine.expand", blocks, rows=True)

        return wrapper

    def named_by_arg(self, prefix: str, position: int, fn):
        """Like :meth:`call_span`, named ``prefix.<positional arg>``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(f"{prefix}.{args[position]}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def self_times(self, *, main_thread_only: bool = True) -> dict[str, float]:
        """Self time per span name (duration minus its children's)."""
        child_time = [0.0] * len(self.spans)
        for name, _start, dur, parent, _tid in self.spans:
            if parent >= 0:
                child_time[parent] += dur
        out: dict[str, float] = defaultdict(float)
        for i, (name, _start, dur, _parent, tid) in enumerate(self.spans):
            if main_thread_only and tid != self._main_thread:
                continue
            out[name] += dur - child_time[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [row[2] for row in self.spans if row[0] == name]

    def top_level_calls(self, layer: str) -> int:
        """Calls into ``layer`` from outside it (spans whose parent is another layer)."""
        return sum(
            layer_of(name) == layer and (parent < 0 or layer_of(self.spans[parent][0]) != layer)
            for name, _start, _dur, parent, _tid in self.spans
        )

    def dump(self, path: str, extra: dict) -> None:
        """Write every span (and ``extra``) as one JSON document."""
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "start", "duration", "parent", "thread"],
            "spans": self.spans,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
