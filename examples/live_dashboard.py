"""Live dashboard: rolling motif mix of an event stream, tick by tick.

An operations view built on the online engine: replay the Copenhagen SMS
dataset as a live stream through :class:`repro.online.OnlineCensus` and,
at a few checkpoints along the replay, print what a wall dashboard would
show — throughput so far, the live instance ledger, push-latency
quantiles from the observability layer, and the rolling motif-mix bar
chart for the trailing window.  The punchline: the mix is available
after *every* event at a per-event cost, no batch recount.

With ``--remote HOST:PORT`` the same dashboard renders a **running
census service** instead: it polls the server's ``stats`` endpoint (the
merged server+worker observability snapshot) and shows request rates,
per-op latency quantiles, queue depth, shed counts, worker liveness and
the live server-side streams — the operations view of the
census-as-a-service deployment::

    python -m repro.experiments serve --datasets sms-copenhagen &
    python examples/live_dashboard.py --remote 127.0.0.1:8737
"""

import argparse
import time

import repro.obs as obs
from repro.analysis import textplot
from repro.core.constraints import TimingConstraints
from repro.core.notation import describe_code
from repro.datasets.registry import get_dataset
from repro.online import OnlineCensus

WINDOW = 12_000.0  # trailing window W: the last ~3.3 hours of traffic
CONSTRAINTS = TimingConstraints(delta_c=1500.0, delta_w=3000.0)


def remote_dashboard(address: str, *, ticks: int, interval: float) -> None:
    """Poll a census server's ``stats`` endpoint and render each snapshot."""
    from repro.obs import summarize_histogram
    from repro.service.client import ServiceClient

    host, _, port = address.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port)) as client:
        health = client.health()
        graph = health.get("graph", {})
        print(
            f"census service at {address}: {health['status']} — "
            f"{graph.get('events', '?')} events of {graph.get('name', '?')!r}, "
            f"{health['alive']}/{health['workers']} workers alive\n"
        )
        previous: dict[str, float] = {}
        for tick in range(1, ticks + 1):
            stats = client.stats(timeout=30)
            service = stats["service"]
            metrics = stats["metrics"]
            counters = metrics.get("counters", {})
            gauges = metrics.get("gauges", {})
            requests = {
                name.split("op=", 1)[1].rstrip("}"): n
                for name, n in counters.items()
                if name.startswith("service.requests{")
            }
            total = sum(requests.values())
            rate = (total - previous.get("total", total)) / interval
            previous["total"] = total
            sheds = sum(
                n for name, n in counters.items() if name.startswith("service.shed")
            )
            print(
                f"--- tick {tick}/{ticks} (uptime {service['uptime_s']:.0f}s, "
                f"{total} requests served, {rate:,.1f} req/sec since last tick) ---"
            )
            print(
                f"pool: {service['pool']['alive']}/{service['pool']['workers']} "
                f"workers, {service['pool']['completed']} jobs completed, "
                f"{service['pool']['deaths']} deaths | "
                f"queue depth {int(gauges.get('service.queue.depth', 0))} "
                f"(max_pending {service['max_pending']}, "
                f"overflow={service['overflow']}, {int(sheds)} shed)"
            )
            for op in sorted(requests):
                hist = metrics.get("histograms", {}).get(
                    f"service.request.seconds{{op={op}}}"
                )
                summary = summarize_histogram(hist) if hist else {}
                if summary.get("count"):
                    print(
                        f"  {op:<12} x{requests[op]:<6} "
                        f"p50={summary['p50'] * 1000:.1f}ms "
                        f"p99={summary['p99'] * 1000:.1f}ms"
                    )
            for name, stream in service.get("streams", {}).items():
                print(
                    f"  stream {name!r}: {stream['pushed']} pushed, "
                    f"{stream['live']} live instances in W={stream['window']:g}s"
                )
            if tick < ticks:
                time.sleep(interval)
        print("\nremote dashboard done (server keeps running)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help="poll a running census service's stats endpoint instead of "
        "replaying the dataset locally",
    )
    parser.add_argument(
        "--ticks", type=int, default=4, help="dashboard refreshes (remote mode)"
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (remote mode)",
    )
    args = parser.parse_args()
    if args.remote:
        remote_dashboard(args.remote, ticks=args.ticks, interval=args.interval)
        return

    graph = get_dataset("sms-copenhagen", scale=0.3)
    events = graph.events
    print(
        f"streaming {len(events)} events of {graph.name!r} through the "
        f"online census\n(3-event motifs, {CONSTRAINTS.describe()}, "
        f"W={WINDOW:g}s)\n"
    )

    # Enable observability *before* building the engine — hot paths bind
    # the recorder at construction time.
    registry = obs.enable(obs.MetricsRegistry())
    engine = OnlineCensus(
        3, CONSTRAINTS, WINDOW, max_nodes=3, prune_every=4096
    )
    checkpoints = {len(events) * k // 4 for k in (1, 2, 3, 4)}
    started = time.perf_counter()
    for i, event in enumerate(events, start=1):
        engine.push(event)
        if i in checkpoints:
            elapsed = time.perf_counter() - started
            rate = i / elapsed if elapsed > 0 else float("inf")
            day = engine.now / 86_400
            print(
                f"--- tick {i}/{len(events)} (stream day {day:.1f}, "
                f"{rate:,.0f} events/sec sustained) ---"
            )
            print(
                f"window holds {engine.live_instances} instances "
                f"({engine.discovered} discovered, {engine.expired} expired, "
                f"{engine.live_prefixes} prefixes live)"
            )
            push = registry.histograms.get("online.push.seconds")
            if push is not None and push.count:
                print(
                    f"push latency so far: "
                    f"p50={push.quantile(0.5) * 1e6:.0f}us "
                    f"p99={push.quantile(0.99) * 1e6:.0f}us "
                    f"max={push.vmax * 1e6:.0f}us "
                    f"({int(registry.gauges.get('online.expiry_heap.depth', 0))} live instances)"
                )
            shares = sorted(
                engine.proportions().items(), key=lambda kv: -kv[1]
            )[:6]
            print(
                textplot.bar_chart(
                    [code for code, _ in shares],
                    [round(100 * share, 1) for _, share in shares],
                    title="rolling motif mix (% of window instances):",
                )
            )
            print()

    top = engine.counts().most_common(3)
    print("final window, dominant motifs:")
    for code, n in top:
        print(f"  {code}  x{n:<5} {describe_code(code)}")

    print()
    print(obs.render_table(registry.snapshot()))
    obs.disable()


if __name__ == "__main__":
    main()
