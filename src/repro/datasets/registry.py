"""The nine named datasets of Table 2, as calibrated synthetic analogues.

Each entry pairs an :class:`~repro.datasets.generators.ActivityConfig`
(the mechanism mix of the domain) with the paper's reference statistics
(the full-size Table 2 row) so experiments can print paper-vs-generated
comparisons.  Sizes are scaled roughly 10–100× down from the originals so
pure-Python enumeration completes; relative inter-event timescales are
preserved, which is what the ΔC/ΔW experiments depend on.

:func:`get_dataset` simulates each distinct ``(name, scale, seed)`` once
per process and serves later calls from a bounded memo of its events.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import repro.obs as _obs
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import ActivityConfig, generate
from repro.storage import get_backend

DAY = 86_400.0
WEEK = 7 * DAY


@dataclass(frozen=True)
class PaperRow:
    """The original Table 2 row (full-size dataset, for reference)."""

    nodes: float
    events: float
    edges: float
    unique_ts_fraction: float
    median_interevent: float


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: generator config + provenance."""

    name: str
    description: str
    config: ActivityConfig
    paper_row: PaperRow
    default_seed: int


DATASETS: dict[str, DatasetSpec] = {
    "calls-copenhagen": DatasetSpec(
        name="calls-copenhagen",
        description=(
            "Phone calls between university students over four weeks "
            "(Copenhagen Networks Study): callbacks, out-bursts, few "
            "ping-pong flurries — calls already carry two-way exchange."
        ),
        config=ActivityConfig(
            n_nodes=450,
            n_events=3_600,
            timespan=4 * WEEK,
            p_reply=0.20,
            p_repeat=0.12,
            p_cc=0.30,
            cc_max=2,
            p_forward=0.10,
            reaction_mean=240.0,
            p_delayed_echo=0.4,
            long_delay_factor=10.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(536, 3_600, 924, 0.997, 194),
        default_seed=11,
    ),
    "sms-copenhagen": DatasetSpec(
        name="sms-copenhagen",
        description=(
            "Text messages from the Copenhagen Networks Study: dominated "
            "by two-person conversations (repetitions + ping-pongs) with "
            "short reaction delays."
        ),
        config=ActivityConfig(
            n_nodes=550,
            n_events=9_000,
            timespan=1.5 * WEEK,
            p_reply=0.55,
            p_repeat=0.35,
            p_cc=0.10,
            p_forward=0.12,
            reaction_mean=60.0,
            p_delayed_echo=0.5,
            long_delay_factor=40.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(568, 24_300, 1_300, 0.976, 32),
        default_seed=12,
    ),
    "college-msg": DatasetSpec(
        name="college-msg",
        description=(
            "Private messages on a college social platform (SNAP "
            "CollegeMsg): conversational like SMS but over a larger, "
            "sparser population."
        ),
        config=ActivityConfig(
            n_nodes=1_200,
            n_events=12_000,
            timespan=8 * WEEK,
            p_reply=0.50,
            p_repeat=0.30,
            p_cc=0.10,
            p_forward=0.12,
            reaction_mean=150.0,
            p_delayed_echo=0.5,
            long_delay_factor=16.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(1_900, 59_800, 20_300, 0.972, 37),
        default_seed=13,
    ),
    "email": DatasetSpec(
        name="email",
        description=(
            "Emails inside a European research institution (SNAP "
            "email-Eu-core): carbon copies fire to several recipients at "
            "the *same timestamp*, which is why only ~half of the events "
            "have a unique timestamp in Table 2."
        ),
        config=ActivityConfig(
            n_nodes=900,
            n_events=18_000,
            timespan=80 * WEEK,
            p_reply=0.30,
            p_repeat=0.25,
            p_cc=0.35,
            cc_max=2,
            cc_same_timestamp=True,
            p_forward=0.10,
            reaction_mean=600.0,
            p_delayed_echo=0.5,
            long_delay_factor=4.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(986, 332_000, 24_900, 0.505, 15),
        default_seed=14,
    ),
    "sms-a": DatasetSpec(
        name="sms-a",
        description=(
            "A large national SMS log (Wu et al.): the shortest median "
            "inter-event time of all datasets; intense short-delay "
            "conversations."
        ),
        config=ActivityConfig(
            n_nodes=3_000,
            n_events=15_000,
            timespan=16 * WEEK,
            p_reply=0.60,
            p_repeat=0.40,
            p_cc=0.08,
            p_forward=0.10,
            reaction_mean=30.0,
            p_delayed_echo=0.5,
            long_delay_factor=80.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(44_400, 548_000, 69_000, 0.731, 3),
        default_seed=15,
    ),
    "fb-wall": DatasetSpec(
        name="fb-wall",
        description=(
            "Facebook wall posts in the New Orleans region (Viswanath et "
            "al.): mixed mechanisms — reciprocal posting, repeat visits, "
            "some forwarding."
        ),
        config=ActivityConfig(
            n_nodes=4_000,
            n_events=15_000,
            timespan=52 * WEEK,
            p_reply=0.35,
            p_repeat=0.20,
            p_cc=0.10,
            p_forward=0.12,
            reaction_mean=300.0,
            p_delayed_echo=0.4,
            long_delay_factor=8.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(47_000, 877_000, 274_000, 0.980, 42),
        default_seed=16,
    ),
    "bitcoin-otc": DatasetSpec(
        name="bitcoin-otc",
        description=(
            "The Bitcoin-OTC trust network (SNAP): each user rates another "
            "at most once per direction, so *no repeated edges exist* — "
            "repetition motifs are structurally impossible (Table 4's "
            "all-zero row)."
        ),
        config=ActivityConfig(
            n_nodes=1_500,
            n_events=6_000,
            timespan=100 * WEEK,
            p_reply=0.25,
            p_forward=0.18,
            p_cc=0.15,
            reaction_mean=3_600.0,
            p_delayed_echo=0.3,
            long_delay_factor=1.0,
            convey_delay_factor=0.1,
            allow_repeated_edges=False,
        ),
        paper_row=PaperRow(5_880, 35_600, 35_600, 0.992, 707),
        default_seed=17,
    ),
    "stackoverflow": DatasetSpec(
        name="stackoverflow",
        description=(
            "Answers/comments on Stack Overflow (SNAP sx-stackoverflow, "
            "earliest slice): a new question draws answers from many "
            "distinct users in a short period — the in-burst signature."
        ),
        config=ActivityConfig(
            n_nodes=5_000,
            n_events=20_000,
            timespan=40 * WEEK,
            p_reply=0.25,
            p_repeat=0.10,
            p_in_burst=0.50,
            in_burst_max=3,
            p_forward=0.10,
            reaction_mean=120.0,
            p_delayed_echo=0.4,
            long_delay_factor=20.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(260_000, 6_350_000, 4_150_000, 0.882, 6),
        default_seed=18,
    ),
    "superuser": DatasetSpec(
        name="superuser",
        description=(
            "Answers/comments on Super User (SNAP sx-superuser): same "
            "in-burst mechanism as Stack Overflow, sparser traffic."
        ),
        config=ActivityConfig(
            n_nodes=3_000,
            n_events=12_000,
            timespan=52 * WEEK,
            p_reply=0.25,
            p_repeat=0.10,
            p_in_burst=0.45,
            in_burst_max=3,
            p_forward=0.10,
            reaction_mean=300.0,
            p_delayed_echo=0.4,
            long_delay_factor=8.0,
            convey_delay_factor=0.1,
        ),
        paper_row=PaperRow(194_000, 1_440_000, 925_000, 0.992, 83),
        default_seed=19,
    ),
}

#: The paper's presentation order for message-network commentary.
MESSAGE_NETWORKS = ("sms-copenhagen", "college-msg", "sms-a")


def dataset_names() -> tuple[str, ...]:
    """All registered dataset names, in registry order."""
    return tuple(DATASETS)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec; raises :class:`KeyError` with suggestions."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(DATASETS)
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}") from None


def get_dataset(
    name: str, *, scale: float = 1.0, seed: int | None = None
) -> TemporalGraph:
    """Generate a named dataset.

    Each distinct ``(name, scale, seed)`` is simulated once per process;
    later calls rebuild from the memoized events, without re-validating
    them.  Every call returns a fresh graph on the current default storage
    backend, so appending to one never changes what the next call returns.

    Parameters
    ----------
    scale:
        Multiplier on node and event counts (1.0 = registry size).
        Benchmarks use fractions for speed; tests use small fractions.
    seed:
        Override the spec's default seed (defaults keep every run of the
        experiment suite on identical data).
    """
    spec = get_spec(name)
    actual_seed = spec.default_seed if seed is None else seed
    misses = _dataset_events.cache_info().misses
    events = _dataset_events(name, scale, actual_seed)
    rec = _obs.ACTIVE
    if rec is not None:
        hit = _dataset_events.cache_info().misses == misses
        rec.inc("datasets.cache_hit" if hit else "datasets.cache_miss")
    storage = get_backend(None).from_events(events, presorted=True)
    return TemporalGraph._from_storage(storage, name=spec.name)


#: Distinct datasets kept per process: one paper run needs 9, and the
#: bound caps what a service resolving arbitrary ``(scale, seed)`` holds.
_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _dataset_events(name: str, scale: float, seed: int) -> tuple[Event, ...]:
    """The validated, time-sorted events of one dataset, simulated once."""
    spec = get_spec(name)
    config = spec.config if scale == 1.0 else spec.config.scaled(scale)
    return generate(config, seed=seed, name=spec.name).events
