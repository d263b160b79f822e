"""Datasets: synthetic generators, the named registry, I/O, and statistics.

The paper evaluates on nine real temporal networks (Table 2).  Those are
not redistributable/offline-fetchable, so this package provides an
event-driven *activity model* generator
(:class:`~repro.datasets.generators.ActivityModel`) whose reaction
mechanisms produce the domain signatures the paper's analysis keys on, and
a registry of nine named configurations calibrated per domain
(:func:`~repro.datasets.registry.get_dataset`).  The paper's findings are
about which event-pair mechanisms dominate which domain, so a seeded
generator that plants those mechanisms at per-domain rates reproduces the
shape of every table and figure (signs, orderings, dominant types), not
their absolute counts — and keeps every experiment offline and
deterministic.
"""

from repro.datasets.generators import ActivityConfig, ActivityModel, generate
from repro.datasets.io import iter_event_list, read_event_list, write_event_list
from repro.datasets.registry import DATASETS, dataset_names, get_dataset
from repro.datasets.statistics import DatasetStats, compute_stats, stats_table

__all__ = [
    "ActivityConfig",
    "ActivityModel",
    "DATASETS",
    "DatasetStats",
    "compute_stats",
    "dataset_names",
    "generate",
    "get_dataset",
    "iter_event_list",
    "read_event_list",
    "stats_table",
    "write_event_list",
]
