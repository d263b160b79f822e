"""Tests for ranking analysis (Tables 3/6)."""

import os
import subprocess
import sys

import repro
from repro.analysis.rankings import rank_changes, rank_motifs, reduction_rate, top_k


class TestRankMotifs:
    def test_most_frequent_is_rank_one(self):
        ranks = rank_motifs({"a": 10, "b": 5, "c": 1})
        assert ranks == {"a": 1, "b": 2, "c": 3}

    def test_ties_break_by_code(self):
        ranks = rank_motifs({"b": 5, "a": 5})
        assert ranks["a"] == 1
        assert ranks["b"] == 2

    def test_universe_pads_missing_codes(self):
        ranks = rank_motifs({"a": 10}, universe=["a", "b", "c"])
        assert ranks["a"] == 1
        assert set(ranks) == {"a", "b", "c"}

    def test_empty(self):
        assert rank_motifs({}) == {}


class TestRankChanges:
    def test_ascension_is_positive(self):
        before = {"a": 10, "b": 5}
        after = {"a": 1, "b": 5}  # b overtakes a
        changes = rank_changes(before, after)
        assert changes["b"] == +1
        assert changes["a"] == -1

    def test_no_change_is_zero(self):
        counts = {"a": 3, "b": 2}
        assert all(v == 0 for v in rank_changes(counts, counts).values())

    def test_with_universe(self):
        before = {"a": 10, "b": 8, "c": 5}
        after = {"c": 10}
        changes = rank_changes(before, after, universe=["a", "b", "c"])
        assert changes["c"] == +2

    def test_changes_sum_to_zero_over_universe(self):
        before = {"a": 9, "b": 6, "c": 3, "d": 1}
        after = {"d": 9, "c": 6, "b": 3, "a": 1}
        changes = rank_changes(before, after, universe=["a", "b", "c", "d"])
        assert sum(changes.values()) == 0

    def test_key_order_is_before_order_then_after_only_codes(self):
        before = {"c": 1, "a": 9, "b": 5}
        after = {"d": 7, "a": 2}
        assert list(rank_changes(before, after)) == ["a", "b", "c", "d"]

    def test_key_order_does_not_depend_on_hash_seed(self):
        # Table 3/6 mappings once came out in set-iteration order, which
        # string hash randomization reshuffles on every interpreter start.
        script = (
            "from repro.analysis.rankings import rank_changes\n"
            "before = {'010201': 5, '011202': 9, '010212': 3}\n"
            "after = {'010212': 8, '011202': 1}\n"
            "print(list(rank_changes(before, after, universe=sorted(before))))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        orders = set()
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            orders.add(out.stdout)
        assert len(orders) == 1


class TestHelpers:
    def test_top_k(self):
        assert top_k({"a": 1, "b": 9, "c": 5}, 2) == [("b", 9), ("c", 5)]

    def test_reduction_rate(self):
        assert reduction_rate({"a": 10}, {"a": 1}) == 0.1
        assert reduction_rate({}, {}) == 0.0
