"""Randomized period surveys for arbitrary order k.

For orders beyond 4 no closed description of the period set is known.
The survey samples rational windows with a fixed small denominator
(bounded denominators keep every orbit inside a finite integer lattice,
so sampled orbits provably close), detects periods exactly, and grades
each period against two candidate descriptions:

  * the conjectured set {1, 2 or 1, 2k, 3k-1} united with combinations
    (3k-2)a + (3k-1)b restricted to gcd(a, b) = 1, and
  * the plain combination form with no coprimality restriction.

Both gradings are recorded because they genuinely differ: already at
k = 5 the sampler finds honest periods such as 54 = 13*2 + 14*2 whose
only representations have gcd(a, b) > 1, refuting the coprime form.
The unrestricted form holds of the sampled periods only: the order-6
window 0,0,1,1,0,0 has period 4, which it does not contain.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .detect import DEFAULT_CAP, period_of
from .orbit import State, format_state, make_state


def _special_periods(k: int) -> Tuple[int, ...]:
    return (1, (3 - (-1) ** k) // 2, 2 * k, 3 * k - 1)


def _combination_witness(k: int, n: int, coprime: bool) -> Optional[Tuple[int, int]]:
    u, v = 3 * k - 2, 3 * k - 1
    for a in range(n // u + 1):
        rest = n - u * a
        if rest % v:
            continue
        b = rest // v
        if a == 0 and b == 0:
            continue
        if not coprime or gcd(a, b) == 1:
            return a, b
    return None


def conjecture_member(k: int, n: int) -> bool:
    """Membership in the conjectured period set for order k.

    True iff n is one of the special values 1, (3 - (-1)^k)/2, 2k,
    3k - 1, or n = (3k-2)a + (3k-1)b for nonnegative a, b (not both
    zero) with gcd(a, b) = 1.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    return n in _special_periods(k) or _combination_witness(k, n, coprime=True) is not None


def conjecture_witness(k: int, n: int) -> Union[int, Tuple[int, int], None]:
    """The special value or coprime pair (a, b) certifying membership."""
    if n in _special_periods(k):
        return n
    return _combination_witness(k, n, coprime=True)


def combination_member(k: int, n: int) -> bool:
    """Like conjecture_member but without the coprimality restriction."""
    if k < 2:
        raise ValueError("order k must be at least 2")
    return n in _special_periods(k) or _combination_witness(k, n, coprime=False) is not None


@dataclass(frozen=True)
class SurveyConfig:
    k: int
    samples: int
    numerator_bound: int = 12
    denominator: int = 12
    seed: int = 0
    cap: int = DEFAULT_CAP


@dataclass
class SurveyReport:
    """Aggregated outcome of one seeded survey run.

    Every histogram entry is backed by the stored exemplar window, whose
    certificate can be regenerated at will; violations list the detected
    periods that fall outside the conjectured (coprime) set, and
    combination_violations those outside even the unrestricted form.
    """

    config: SurveyConfig
    histogram: Dict[int, int] = field(default_factory=dict)
    exemplars: Dict[int, State] = field(default_factory=dict)
    conjecture_ok: Dict[int, bool] = field(default_factory=dict)
    not_closed: int = 0

    @property
    def violations(self) -> List[int]:
        return sorted(p for p, ok in self.conjecture_ok.items() if not ok)

    @property
    def combination_violations(self) -> List[int]:
        return sorted(
            p for p in self.histogram if not combination_member(self.config.k, p)
        )

    def to_json(self) -> dict:
        return {
            "config": asdict(self.config),
            "histogram": {str(p): c for p, c in sorted(self.histogram.items())},
            "exemplars": {str(p): format_state(s) for p, s in sorted(self.exemplars.items())},
            "not_closed": self.not_closed,
            "conjecture_violations": self.violations,
            "combination_violations": self.combination_violations,
        }

    def csv_rows(self) -> List[str]:
        """One row per distinct period: k, exemplar state, period, conjecture_ok."""
        rows = ["k,state,period,conjecture_ok"]
        for p in sorted(self.histogram):
            ok = "true" if self.conjecture_ok[p] else "false"
            rows.append(f'{self.config.k},"{format_state(self.exemplars[p])}",{p},{ok}')
        return rows


def run_survey(config: SurveyConfig) -> SurveyReport:
    """Sample windows, detect exactly, grade every period.  Deterministic per seed."""
    if config.k < 2:
        raise ValueError("order k must be at least 2")
    if config.samples < 0:
        raise ValueError(f"samples must be nonnegative, got {config.samples}")
    if config.denominator < 1:
        raise ValueError(f"denominator must be at least 1, got {config.denominator}")
    if config.numerator_bound < 0:
        raise ValueError(f"numerator_bound must be nonnegative, got {config.numerator_bound}")
    if config.cap < 1:
        raise ValueError(f"cap must be at least 1, got {config.cap}")
    rng = random.Random(config.seed)
    report = SurveyReport(config=config)
    d = config.denominator
    for _ in range(config.samples):
        state = make_state(
            tuple(Fraction(rng.randint(0, config.numerator_bound), d) for _ in range(config.k))
        )
        p = period_of(state, cap=config.cap)
        if p is None:
            report.not_closed += 1
            continue
        report.histogram[p] = report.histogram.get(p, 0) + 1
        if p not in report.exemplars:
            report.exemplars[p] = state
            report.conjecture_ok[p] = conjecture_member(config.k, p)
    return report


_GOLOMB_VALUE_BOUND = 24


def golomb_check(k: int, trials: int, seed: int = 0) -> bool:
    """Do sampled monotone nonzero windows of order k all have period 3k - 1?

    Both orientations are exercised: entries are drawn from 0..24, sorted,
    and used increasing or decreasing at random.  The zero window is
    excluded by resampling (its period is 1).  A first return at exactly
    step 3k - 1 is necessary and sufficient, so that is the cap.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    if trials < 1:
        # No trial at all would be a vacuous yes.
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    expected = 3 * k - 1
    for _ in range(trials):
        while True:
            values = sorted(rng.randint(0, _GOLOMB_VALUE_BOUND) for _ in range(k))
            if any(values):
                break
        if rng.random() < 0.5:
            values.reverse()
        state = make_state(values)
        if period_of(state, cap=expected) != expected:
            return False
    return True
