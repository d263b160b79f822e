"""Event-driven synthetic temporal network generator (the activity model).

The generator substitutes for the paper's nine real datasets (see DESIGN.md
§3).  It is a discrete-event simulation with two layers:

* a **background layer**: events arrive as a Poisson process over the
  configured timespan; sources are drawn from a Zipf-like activity
  distribution and targets from a Zipf-like popularity distribution, and
* a **reaction layer**: every emitted event probabilistically triggers
  follow-up events after short (exponential) delays.  Each reaction type
  plants one of the paper's six event-pair mechanisms:

  - *reply* → ping-pong pairs (two-way conversations in message networks),
  - *repeat* → repetition pairs (resent messages, repeated calls),
  - *cc* → out-burst pairs (carbon copies; optionally at the **same
    timestamp** as the original, reproducing Email's 50.5 % unique-
    timestamp rate in Table 2),
  - *forward* → convey pairs (information passing on),
  - *in-burst* → in-burst pairs (many answerers to one asker, the
    Q&A-site signature).

Reactions may chain with geometrically decaying probability, which yields
the bursty inter-event distributions (low median Δt against a long tail)
that make the ΔC/ΔW trade-off of Section 5.2 visible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from heapq import heappop, heappush

from repro.core._optional import import_numpy

np = import_numpy()

from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph


@dataclass(frozen=True)
class ActivityConfig:
    """Parameters of the activity model.

    Probabilities are per emitted event; a reaction at chain depth ``d``
    fires with probability ``p * chain_decay**d``.
    """

    n_nodes: int
    n_events: int
    timespan: float
    p_reply: float = 0.0
    p_repeat: float = 0.0
    p_cc: float = 0.0
    p_forward: float = 0.0
    p_in_burst: float = 0.0
    cc_max: int = 2
    in_burst_max: int = 2
    cc_same_timestamp: bool = False
    reaction_mean: float = 120.0
    #: probability that a reply/repeat echo is *delayed* — drawn with a mean
    #: ``long_delay_factor`` times larger.  Delayed echoes create the
    #: delayed-repetition motifs (010201) whose suppression by constrained
    #: dynamic graphlets Table 4 measures, and the far-apart R/P pairs that
    #: only-ΔW configurations amplify (Table 5).
    p_delayed_echo: float = 0.0
    long_delay_factor: float = 30.0
    #: conveys (forwards) are promptly causal: their delay mean is scaled by
    #: this factor (< 1 keeps C pairs alive under tight ΔC, the Table 5
    #: asymmetry).
    convey_delay_factor: float = 1.0
    #: probability that a forward returns to the chain's *origin* node,
    #: closing a convey triangle (a→b, b→c, c→a) — the triadic-closure
    #: mechanism behind the pure C,W motifs of Table 5 and the temporal
    #: cycles of the fraud example.
    p_return: float = 0.25
    chain_decay: float = 0.5
    max_chain_depth: int = 3
    activity_exponent: float = 0.9
    popularity_exponent: float = 0.9
    allow_repeated_edges: bool = True
    time_resolution: float = 1.0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.n_events < 1:
            raise ValueError("need at least one event")
        if self.timespan <= 0:
            raise ValueError("timespan must be positive")
        for name in ("p_reply", "p_repeat", "p_cc", "p_forward", "p_in_burst"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.reaction_mean <= 0:
            raise ValueError("reaction_mean must be positive")
        if not 0 <= self.p_delayed_echo <= 1:
            raise ValueError("p_delayed_echo must be a probability")
        if self.long_delay_factor < 1:
            raise ValueError("long_delay_factor must be >= 1")
        if self.convey_delay_factor <= 0:
            raise ValueError("convey_delay_factor must be positive")
        if not 0 <= self.p_return <= 1:
            raise ValueError("p_return must be a probability")
        if not 0 <= self.chain_decay <= 1:
            raise ValueError("chain_decay must be in [0, 1]")
        if self.time_resolution <= 0:
            raise ValueError("time_resolution must be positive")
        if not self.allow_repeated_edges and self.n_events > self.n_nodes * (self.n_nodes - 1):
            # The simulation would never finish: every event needs a new edge.
            raise ValueError("n_events exceeds the distinct edges of n_nodes nodes")

    def scaled(self, scale: float) -> "ActivityConfig":
        """A copy with node and event counts scaled (≥ minimum sizes).

        The timespan is left unchanged so event density — and therefore
        motif counts per window — grows with scale, as it does when moving
        from a subsample to a full dataset.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(
            self,
            n_nodes=max(2, int(round(self.n_nodes * scale))),
            n_events=max(1, int(round(self.n_events * scale))),
        )


class ActivityModel:
    """The simulator.  Use :func:`generate` for the one-call path."""

    def __init__(self, config: ActivityConfig, seed: int | None = None) -> None:
        self.config = config
        self.rng = np.random.default_rng(seed)
        ranks = np.arange(1, config.n_nodes + 1, dtype=float)
        activity = ranks ** (-config.activity_exponent)
        popularity = ranks ** (-config.popularity_exponent)
        # Shuffle so activity and popularity ranks are not the same nodes.
        self.rng.shuffle(popularity)
        # Plain lists: scalar bisect over them picks the same index as
        # np.searchsorted, without an array round trip per draw.
        self._activity_cdf = np.cumsum(activity / activity.sum()).tolist()
        self._popularity_cdf = np.cumsum(popularity / popularity.sum()).tolist()

    # ------------------------------------------------------------------
    # sampling helpers
    # ------------------------------------------------------------------
    def _sample_active_node(self) -> int:
        return bisect_left(self._activity_cdf, self.rng.random())

    def _sample_popular_node(self, exclude: tuple[int, ...] = ()) -> int:
        cdf, random = self._popularity_cdf, self.rng.random
        for _ in range(16):
            node = bisect_left(cdf, random())
            if node not in exclude:
                return node
        # Dense exclusion fallback: uniform over the complement.
        pool = [n for n in range(self.config.n_nodes) if n not in exclude]
        return int(self.rng.choice(pool))

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, *, name: str = "") -> TemporalGraph:
        """Simulate until ``n_events`` events are emitted; return the graph."""
        return TemporalGraph(self._simulate(), name=name)

    def _simulate(self) -> list[Event]:
        """The emitted events, in emission order.

        Pending reactions are heap tuples ``(t, seq, u, v, depth, origin)``;
        ``seq`` is unique, so ties on ``t`` pop in scheduling order.
        """
        cfg = self.config
        rng = self.rng
        random, exponential = rng.random, rng.exponential
        sample_popular = self._sample_popular_node
        background_mean = 1.0 / (cfg.n_events / cfg.timespan)
        res = cfg.time_resolution
        delay_mean = cfg.reaction_mean
        # Reply/repeat echoes are occasionally delayed (heavy-tailed);
        # forwards are promptly causal.
        long_delay_mean = delay_mean * cfg.long_delay_factor
        convey_mean = delay_mean * cfg.convey_delay_factor
        # A cc, forward or in-burst reaction needs a third node.
        has_third = cfg.n_nodes > 2
        # Reaction probabilities per chain depth, ``p * chain_decay**depth``.
        probabilities = [
            tuple(
                p * cfg.chain_decay**depth
                for p in (cfg.p_reply, cfg.p_repeat, cfg.p_cc, cfg.p_forward, cfg.p_in_burst)
            )
            for depth in range(cfg.max_chain_depth)
        ]

        heap: list[tuple[float, int, int, int, int, int]] = []
        seq = 0
        next_background = float(exponential(background_mean))
        emitted: list[Event] = []
        used_edges: set[tuple[int, int]] = set()

        def schedule(u: int, v: int, t: float, depth: int, origin: int) -> None:
            nonlocal seq
            if u != v:
                seq += 1
                heappush(heap, (t, seq, u, v, depth, origin))

        while len(emitted) < cfg.n_events:
            if heap and heap[0][0] <= next_background:
                t, _, u, v, depth, origin = heappop(heap)
            else:
                t = next_background
                next_background += float(exponential(background_mean))
                u = self._sample_active_node()
                v = sample_popular(exclude=(u,))
                depth, origin = 0, u

            t = max(0.0, (t // res) * res)
            if not cfg.allow_repeated_edges:
                if (u, v) in used_edges:
                    continue
                used_edges.add((u, v))
            emitted.append(Event(u, v, t))
            if depth >= cfg.max_chain_depth:
                continue
            p_reply, p_repeat, p_cc, p_forward, p_in_burst = probabilities[depth]
            depth += 1

            if random() < p_reply:
                mean = long_delay_mean if random() < cfg.p_delayed_echo else delay_mean
                schedule(v, u, t + float(exponential(mean)), depth, origin)
            if random() < p_repeat:
                mean = long_delay_mean if random() < cfg.p_delayed_echo else delay_mean
                schedule(u, v, t + float(exponential(mean)), depth, origin)
            if random() < p_cc and has_third:
                for _ in range(int(rng.integers(1, cfg.cc_max + 1))):
                    w = sample_popular(exclude=(u, v))
                    cc_t = t if cfg.cc_same_timestamp else t + float(exponential(delay_mean))
                    schedule(u, w, cc_t, depth, origin)
            if random() < p_forward and has_third:
                # A forward may close the loop back to the chain's origin
                # (triadic closure / information returning to its source).
                if origin not in (u, v) and random() < cfg.p_return:
                    w = origin
                else:
                    w = sample_popular(exclude=(u, v))
                schedule(v, w, t + float(exponential(convey_mean)), depth, origin)
            if random() < p_in_burst and has_third:
                for _ in range(int(rng.integers(1, cfg.in_burst_max + 1))):
                    w = sample_popular(exclude=(u, v))
                    schedule(w, v, t + float(exponential(delay_mean)), depth, origin)
        return emitted[: cfg.n_events]


def generate(config: ActivityConfig, seed: int | None = None, *, name: str = "") -> TemporalGraph:
    """Run the activity model once and return the resulting temporal graph."""
    return ActivityModel(config, seed=seed).run(name=name)
