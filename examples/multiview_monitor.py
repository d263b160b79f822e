"""Multi-view monitor: many trailing windows over one stream, one engine.

A multi-tenant monitoring story built on
:class:`repro.online.MultiViewCensus`: replay the Copenhagen SMS dataset
as a live stream through ONE shared engine that concurrently maintains

* several **global windows** (a dashboard's hour/half-day/day panes),
* a fleet of **tenant views** — node-set slices watching only the
  conversations among a few hot nodes each,

then exercises the live-operations verbs mid-replay: ``add_view`` (the
new view backfills from the shared discovery ledger), ``drop_view``, and
``degrade_view`` (the overloaded tenant switches to the root-sampling
estimator with error bars instead of exact counters).

The punchline is the cost model: every view shares the graph tail, the
prefix store and the compiled kernel, so the marginal cost of one more
view is counter folds — not another engine.  The final spot check pins
correctness the same way ``tests/test_multiview.py`` does: one view must
be bit-identical to an independent single-window engine.
"""

import random
import time
from collections import Counter

from repro.core.constraints import TimingConstraints
from repro.core.notation import describe_code
from repro.datasets.registry import get_dataset
from repro.online import MultiViewCensus, OnlineCensus

CONSTRAINTS = TimingConstraints(delta_c=1500.0, delta_w=3000.0)

#: The dashboard's global panes: one hour, one working day-ish, wide.
GLOBAL_WINDOWS = {"hour": 3600.0, "shift": 14_400.0, "day": 43_200.0}

N_TENANTS = 12
TENANT_WINDOW = 14_400.0


def main() -> None:
    graph = get_dataset("sms-copenhagen", scale=0.3)
    events = graph.events
    print(
        f"multi-view census over {len(events)} events of {graph.name!r}\n"
        f"(3-event motifs, {CONSTRAINTS.describe()}, one shared engine)\n"
    )

    engine = MultiViewCensus(
        3, CONSTRAINTS, max(GLOBAL_WINDOWS.values()), max_nodes=3, prune_every=4096
    )
    for name, window in GLOBAL_WINDOWS.items():
        engine.add_view(name, window)

    # Tenants: slices around the most talkative nodes of the dataset.
    activity = Counter()
    for ev in events:
        activity[ev.u] += 1
        activity[ev.v] += 1
    hot = [node for node, _ in activity.most_common(14)]
    rng = random.Random(11)
    for i in range(N_TENANTS):
        nodes = rng.sample(hot, 7)
        engine.add_view(f"tenant-{i}", TENANT_WINDOW, nodes=nodes)
    print(f"{len(engine)} views live: {len(GLOBAL_WINDOWS)} global windows + {N_TENANTS} tenants")

    half = len(events) // 2
    started = time.perf_counter()
    for event in events[:half]:
        engine.push(event)

    # Live operations, mid-stream, no replay needed:
    engine.add_view("late-hour", 3600.0)
    backfilled = engine.census("late-hour").total
    print(
        f"\nmid-stream add_view('late-hour'): backfilled {backfilled} live "
        "instances from the shared discovery ledger"
    )
    engine.drop_view("tenant-0")
    engine.degrade_view("tenant-1", q=0.25, seed=7)
    print("dropped tenant-0; tenant-1 degraded to sampling estimates")

    for event in events[half:]:
        engine.push(event)
    elapsed = time.perf_counter() - started
    print(
        f"\nreplayed {len(events)} events into {len(engine)} views in "
        f"{elapsed:.2f}s ({len(events) / elapsed:,.0f} events/sec)"
    )

    print("\nview                 window     mode      live  top motif")
    info = engine.describe()
    for name in sorted(engine.view_names()):
        view = info["views"][name]
        if view["mode"] == "exact":
            top = engine.counts(name).most_common(1)
            label = f"{top[0][0]} x{top[0][1]}" if top else "-"
            live = view["live"]
        else:
            payload = engine.view_counts(name)
            codes = payload["codes"]
            label = (
                "~" + max(codes, key=codes.get) if codes else "-"
            ) + " (estimated)"
            live = round(sum(codes.values()))
        print(
            f"{name:<20} {view['window']:>7.0f}s  {view['mode']:<8} "
            f"{live:>5}  {label}"
        )

    hour = engine.counts("hour").most_common(1)
    if hour:
        code, n = hour[0]
        print(f"\nthe trailing hour is dominated by {code}: {describe_code(code)}")

    # The differential spot check: 'shift' vs an independent engine.
    oracle = OnlineCensus(3, CONSTRAINTS, GLOBAL_WINDOWS["shift"], max_nodes=3)
    for event in events:
        oracle.push(event)
    same = list(engine.counts("shift").items()) == list(oracle.counts().items())
    print(f"parity vs independent engine: {'ok' if same else 'MISMATCH'}")


if __name__ == "__main__":
    main()
