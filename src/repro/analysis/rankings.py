"""Motif rankings and ranking changes (Tables 3 and 6).

Table 3/6 compare where each motif *ranks* (by count, densest first)
before and after the consecutive-events restriction.  Positive change =
the motif ascends when the restriction is applied, the paper's sign
convention ("positive values denote ascensions").
"""

from __future__ import annotations

from typing import Mapping, Sequence


def rank_motifs(
    counts: Mapping[str, int], *, universe: Sequence[str] | None = None
) -> dict[str, int]:
    """Rank motif codes by count, 1 = most frequent.

    Ties break deterministically by code so that reruns are stable (the
    paper does not specify a tie rule; any fixed one preserves the
    qualitative rank-change signs).  Codes in ``universe`` but absent from
    ``counts`` are ranked after all observed codes, again by code order.
    """
    codes = set(counts)
    if universe is not None:
        codes.update(universe)
    ordered = sorted(codes, key=lambda c: (-counts.get(c, 0), c))
    return {code: pos + 1 for pos, code in enumerate(ordered)}


def rank_changes(
    before: Mapping[str, int],
    after: Mapping[str, int],
    *,
    universe: Sequence[str] | None = None,
) -> dict[str, int]:
    """Per-code rank change when moving from ``before`` to ``after`` counts.

    Positive = the code ascends (gets a better/lower rank number) in
    ``after`` — e.g. +18 for 010210 in CollegeMsg means the motif jumped
    18 places up once the consecutive restriction was applied.
    """
    ranks_before = rank_motifs(before, universe=universe)
    ranks_after = rank_motifs(after, universe=universe)
    # Key order: ``ranks_before`` order, then codes only in ``after`` —
    # deterministic, unlike iterating a set of strings (hash-seeded).
    codes = {**ranks_before, **ranks_after}
    return {
        code: ranks_before.get(code, len(codes)) - ranks_after.get(code, len(codes))
        for code in codes
    }


def top_k(counts: Mapping[str, int], k: int) -> list[tuple[str, int]]:
    """The ``k`` most frequent codes with their counts, ties by code."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def reduction_rate(before: Mapping[str, int], after: Mapping[str, int]) -> float:
    """Fraction of total instances surviving from ``before`` to ``after``.

    Table 3's headline: the consecutive restriction removes over 95 % of
    motifs in most datasets, i.e. the survival rate is below 0.05.
    """
    total_before = sum(before.values())
    if total_before == 0:
        return 0.0
    return sum(after.values()) / total_before
