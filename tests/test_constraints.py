"""Unit tests for ΔC / ΔW timing constraints and the Section 4.5 regimes."""

import math

import pytest

from repro.core.constraints import ConstraintRegime, TimingConstraints


class TestConstruction:
    def test_rejects_nonpositive_delta_c(self):
        with pytest.raises(ValueError):
            TimingConstraints(delta_c=0)

    def test_rejects_nonpositive_delta_w(self):
        with pytest.raises(ValueError):
            TimingConstraints(delta_w=-5)

    @pytest.mark.parametrize("field", ["delta_c", "delta_w"])
    def test_rejects_nan_bounds(self, field):
        # NaN fails every comparison, so every kernel would read it as an
        # unbounded constraint.
        with pytest.raises(ValueError):
            TimingConstraints(**{field: float("nan")})

    def test_only_c_factory(self):
        c = TimingConstraints.only_c(10)
        assert c.delta_c == 10
        assert c.delta_w is None

    def test_only_w_factory(self):
        c = TimingConstraints.only_w(10)
        assert c.delta_c is None
        assert c.delta_w == 10

    def test_from_ratio(self):
        c = TimingConstraints.from_ratio(3000, 0.5)
        assert c.delta_c == 1500
        assert c.delta_w == 3000

    def test_from_ratio_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimingConstraints.from_ratio(3000, 0)

    def test_frozen(self):
        c = TimingConstraints.only_c(10)
        with pytest.raises(AttributeError):
            c.delta_c = 20


class TestAdmits:
    def test_paper_section_45_example(self):
        """Events at 1, 9, 10 with ΔC=5 vs ΔW=10 (Section 4.5)."""
        times = [1, 9, 10]
        assert TimingConstraints.only_w(10).admits(times)
        assert not TimingConstraints.only_c(5).admits(times)

    def test_gap_equal_to_bound_is_admitted(self):
        assert TimingConstraints.only_c(5).admits([0, 5, 10])
        assert TimingConstraints.only_w(10).admits([0, 5, 10])

    def test_both_bounds_apply(self):
        c = TimingConstraints(delta_c=5, delta_w=7)
        assert c.admits([0, 4, 7])
        assert not c.admits([0, 4, 8])   # span 8 > ΔW
        assert not c.admits([0, 6, 7])   # gap 6 > ΔC

    def test_short_sequences_always_admitted(self):
        c = TimingConstraints(delta_c=1, delta_w=1)
        assert c.admits([])
        assert c.admits([5])

    def test_unconstrained_admits_everything(self):
        assert TimingConstraints().admits([0, 1e9])


class TestDeadline:
    def test_only_c_deadline(self):
        c = TimingConstraints.only_c(5)
        assert c.next_event_deadline(0, 10) == 15

    def test_only_w_deadline(self):
        c = TimingConstraints.only_w(100)
        assert c.next_event_deadline(0, 10) == 100

    def test_both_takes_minimum(self):
        c = TimingConstraints(delta_c=5, delta_w=12)
        assert c.next_event_deadline(0, 10) == 12
        assert c.next_event_deadline(0, 3) == 8

    def test_unconstrained_is_infinite(self):
        assert TimingConstraints().next_event_deadline(0, 0) == math.inf


class TestRegime:
    """The Section 4.5 three-case classification."""

    def test_ratio_below_threshold_is_only_c(self):
        c = TimingConstraints(delta_c=1000, delta_w=3000)  # ratio 1/3
        assert c.regime(3) is ConstraintRegime.ONLY_DELTA_C

    def test_ratio_at_lower_threshold_is_only_c(self):
        c = TimingConstraints(delta_c=1500, delta_w=3000)  # ratio 1/2 = 1/(m-1)
        assert c.regime(3) is ConstraintRegime.ONLY_DELTA_C

    def test_middle_ratio_is_both(self):
        c = TimingConstraints.from_ratio(3000, 0.66)
        assert c.regime(3) is ConstraintRegime.BOTH

    def test_ratio_one_is_only_w(self):
        c = TimingConstraints.from_ratio(3000, 1.0)
        assert c.regime(3) is ConstraintRegime.ONLY_DELTA_W

    def test_regime_depends_on_event_count(self):
        c = TimingConstraints(delta_c=1500, delta_w=3000)
        assert c.regime(3) is ConstraintRegime.ONLY_DELTA_C  # 0.5 <= 1/2
        assert c.regime(4) is ConstraintRegime.BOTH          # 1/3 < 0.5 < 1

    def test_paper_four_event_sweep(self):
        for ratio, expected in [
            (0.33, ConstraintRegime.ONLY_DELTA_C),
            (0.5, ConstraintRegime.BOTH),
            (0.66, ConstraintRegime.BOTH),
            (1.0, ConstraintRegime.ONLY_DELTA_W),
        ]:
            c = TimingConstraints.from_ratio(3000, ratio)
            assert c.regime(4) is expected, ratio

    def test_single_bound_regimes(self):
        assert TimingConstraints.only_c(5).regime(3) is ConstraintRegime.ONLY_DELTA_C
        assert TimingConstraints.only_w(5).regime(3) is ConstraintRegime.ONLY_DELTA_W

    def test_unbounded_raises(self):
        with pytest.raises(ValueError):
            TimingConstraints().regime(3)

    def test_single_event_raises(self):
        with pytest.raises(ValueError):
            TimingConstraints.only_c(5).regime(1)


class TestOrdering:
    def test_tighter_than(self):
        tight = TimingConstraints(delta_c=5, delta_w=10)
        loose = TimingConstraints(delta_c=10, delta_w=20)
        assert tight.is_tighter_than(loose)
        assert not loose.is_tighter_than(tight)

    def test_none_counts_as_infinity(self):
        assert TimingConstraints.only_c(5).is_tighter_than(TimingConstraints())
        assert not TimingConstraints().is_tighter_than(TimingConstraints.only_c(5))

    def test_loose_timespan_bound(self):
        assert TimingConstraints.only_c(5).loose_timespan_bound(3) == 10
        assert TimingConstraints(delta_c=5, delta_w=8).loose_timespan_bound(3) == 8
        assert TimingConstraints().loose_timespan_bound(3) == math.inf

    def test_describe_mentions_regime(self):
        c = TimingConstraints.from_ratio(3000, 0.66)
        assert "ΔC" in c.describe(3)
        assert "ΔW-and-ΔC" in c.describe(3)
