"""Timing constraints ΔC and ΔW (Section 4.5).

Two flavours of temporal connectedness appear across the four models:

* **ΔC** (Kovanen, Hulovatyy): every pair of *consecutive* events in the
  motif must be at most ΔC apart — emphasizes temporal correlation between
  adjacent events but only bounds the whole motif loosely by ``(m−1)·ΔC``.
* **ΔW** (Song, Paranjape): the whole motif — last event minus first — must
  fit in a window of length ΔW; holistic but blind to consecutive gaps.

Given a motif with ``m`` events, Section 4.5 classifies which constraints
are *active*:

* ``ΔC/ΔW ≤ 1/(m−1)`` — ΔW is implied by ΔC (**only-ΔC** regime),
* ``ΔC/ΔW ≥ 1``       — ΔC is implied by ΔW (**only-ΔW** regime),
* otherwise both constraints prune instances (**both** regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class ConstraintRegime(Enum):
    """Which of the two constraints actually binds, per Section 4.5."""

    ONLY_DELTA_C = "only-ΔC"
    BOTH = "ΔW-and-ΔC"
    ONLY_DELTA_W = "only-ΔW"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TimingConstraints:
    """A ΔC / ΔW configuration.

    Either bound may be ``None`` (unconstrained).  Time differences are
    compared inclusively (``gap <= delta``), matching the paper's examples
    (Figure 1 treats a gap exactly equal to the threshold as valid).
    """

    delta_c: float | None = None
    delta_w: float | None = None

    def __post_init__(self) -> None:
        # ``not delta > 0`` also rejects NaN, which every comparison
        # treats as unbounded.
        if self.delta_c is not None and not self.delta_c > 0:
            raise ValueError("delta_c must be positive (or None)")
        if self.delta_w is not None and not self.delta_w > 0:
            raise ValueError("delta_w must be positive (or None)")

    # ------------------------------------------------------------------
    # constructors for the paper's experiment configurations
    # ------------------------------------------------------------------
    @classmethod
    def only_c(cls, delta_c: float) -> "TimingConstraints":
        """ΔC alone (Kovanen / Hulovatyy style)."""
        return cls(delta_c=delta_c, delta_w=None)

    @classmethod
    def only_w(cls, delta_w: float) -> "TimingConstraints":
        """ΔW alone (Song / Paranjape style)."""
        return cls(delta_c=None, delta_w=delta_w)

    @classmethod
    def from_ratio(cls, delta_w: float, ratio: float) -> "TimingConstraints":
        """The paper's sweep parameterization: fix ΔW, set ΔC = ratio·ΔW.

        Section 5.2 uses ΔW = 3000 s and ratios {0.5, 0.66, 1.0} for
        three-event motifs and {0.33, 0.5, 0.66, 1.0} for four-event motifs.
        """
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        return cls(delta_c=ratio * delta_w, delta_w=delta_w)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def admits(self, times: Sequence[float]) -> bool:
        """Whether a chronologically sorted timestamp sequence satisfies both bounds."""
        if len(times) <= 1:
            return True
        if self.delta_w is not None and times[-1] - times[0] > self.delta_w:
            return False
        if self.delta_c is not None:
            for a, b in zip(times, times[1:]):
                if b - a > self.delta_c:
                    return False
        return True

    def next_event_deadline(self, t_first: float, t_last: float) -> float:
        """Latest admissible timestamp for the next event of a growing motif.

        Used by the enumeration engine to prune candidate events with a
        single bisect instead of filtering.
        """
        bound = math.inf
        if self.delta_c is not None:
            bound = t_last + self.delta_c
        if self.delta_w is not None:
            bound = min(bound, t_first + self.delta_w)
        return bound

    def loose_timespan_bound(self, n_events: int) -> float:
        """Upper bound on the motif timespan implied by the configuration.

        Only-ΔC configurations bound the span loosely by ``(m−1)·ΔC``
        (Section 4.5); ΔW bounds it directly.
        """
        bound = math.inf
        if self.delta_c is not None:
            bound = self.delta_c * (n_events - 1)
        if self.delta_w is not None:
            bound = min(bound, self.delta_w)
        return bound

    # ------------------------------------------------------------------
    # regime classification (Section 4.5)
    # ------------------------------------------------------------------
    def regime(self, n_events: int) -> ConstraintRegime:
        """Which constraint is active for ``n_events``-event motifs.

        When only one bound is set, the answer is that bound's regime.
        With both set, apply the Section 4.5 ratio rule.
        """
        if n_events < 2:
            raise ValueError("regimes are defined for motifs with >= 2 events")
        if self.delta_c is None and self.delta_w is None:
            raise ValueError("at least one of delta_c / delta_w must be set")
        if self.delta_w is None:
            return ConstraintRegime.ONLY_DELTA_C
        if self.delta_c is None:
            return ConstraintRegime.ONLY_DELTA_W
        ratio = self.delta_c / self.delta_w
        if ratio <= 1 / (n_events - 1):
            return ConstraintRegime.ONLY_DELTA_C
        if ratio >= 1:
            return ConstraintRegime.ONLY_DELTA_W
        return ConstraintRegime.BOTH

    def is_tighter_than(self, other: "TimingConstraints") -> bool:
        """True when every sequence admitted by ``self`` is admitted by ``other``.

        A ``None`` bound counts as +∞.  This is the subset/monotonicity
        relation the paper leans on ("the set of motifs observed under a
        smaller ΔC/ΔW ratio is a subset of a larger ΔC/ΔW configuration").
        """
        mine_c = math.inf if self.delta_c is None else self.delta_c
        theirs_c = math.inf if other.delta_c is None else other.delta_c
        mine_w = math.inf if self.delta_w is None else self.delta_w
        theirs_w = math.inf if other.delta_w is None else other.delta_w
        return mine_c <= theirs_c and mine_w <= theirs_w

    def describe(self, n_events: int | None = None) -> str:
        """One-line description, optionally with the regime for ``n_events``."""
        parts = []
        if self.delta_c is not None:
            parts.append(f"ΔC={self.delta_c:g}s")
        if self.delta_w is not None:
            parts.append(f"ΔW={self.delta_w:g}s")
        text = ", ".join(parts) if parts else "unconstrained"
        if n_events is not None and (self.delta_c or self.delta_w):
            text += f" [{self.regime(n_events)} for {n_events}-event motifs]"
        return text
