"""Closed-form membership oracle for the order-4 period set.

The realizable periods of the order-4 recurrence are exactly

    {1, 8, 11}  union  {10a + 11b : a >= 1, b >= 2a + 1, gcd(a, b) = 1}.

Membership is decided by a plain exhaustive scan over a, so every answer
is auditable by eye; no number-theoretic shortcut is taken.  On top of
the oracle sit the gap bookkeeping (the largest non-period is 1674, with
per-residue-class maxima), a prime rule (every prime >= 281 is a
period), and the rule for multiples of 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, TextIO, Tuple, Union

#: Periods with no 10a + 11b decomposition: the equilibrium, the 8-cycles,
#: and the 11-cycles.
SPECIAL_PERIODS = (1, 8, 11)

#: Largest integer that is not a period; every n > 1674 is one.
MAX_NON_PERIOD = 1674

#: Primes up to 401 that have an admissible decomposition.  Frozen here as
#: an independent cross-check table for check_prime_rule.
DECOMPOSABLE_PRIMES_UPTO_401 = (
    11, 43, 97, 107, 109, 131, 139, 151, 163, 173, 193, 197,
    227, 229, 239, 241, 251, 257, 263, 269, 271, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373,
    379, 383, 389, 397, 401,
)


@dataclass(frozen=True)
class Decomposition:
    """A pair (a, b) with value 10a + 11b and its admissibility flag."""

    a: int
    b: int

    @property
    def value(self) -> int:
        return 10 * self.a + 11 * self.b

    @property
    def admissible(self) -> bool:
        return self.a >= 1 and self.b >= 2 * self.a + 1 and gcd(self.a, self.b) == 1


def admissible_decompositions(n: int) -> List[Decomposition]:
    """All admissible (a, b) with 10a + 11b = n, ascending in a.

    Exhaustive scan over a in [1, n // 10]; possibly empty.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    for a in range(1, n // 10 + 1):
        rest = n - 10 * a
        if rest % 11 == 0:
            d = Decomposition(a=a, b=rest // 11)
            if d.admissible:
                out.append(d)
    return out


def contains(n: int) -> bool:
    """Is n a realizable period of the order-4 recurrence?"""
    return witness(n) is not None


def witness(n: int) -> Union[int, Decomposition, None]:
    """Why n is a period: the special value itself, or the first
    admissible decomposition; None when n is not a period."""
    if n in SPECIAL_PERIODS:
        return n
    decs = admissible_decompositions(n)
    return decs[0] if decs else None


def periods_in_range(lo: int, hi: int) -> List[int]:
    """Sorted members of the period set in [lo, hi]."""
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    return [n for n in range(lo, hi + 1) if contains(n)]


def residue_class(n: int) -> int:
    """The unique m in 1..10 with n - 10m divisible by 11 (n not a multiple of 11)."""
    if n % 11 == 0:
        raise ValueError(f"{n} is a multiple of 11 and belongs to no residue class")
    return (-n) % 11


@dataclass(frozen=True)
class GapReport:
    """Non-periods up to a scan limit, bucketed for the extremal question.

    class_maxima[m] is the largest non-period congruent to -m mod 11
    (equivalently of the form 10m + 11k); eleven_max is the largest
    non-period that is a multiple of 11.  ``stabilized`` records that no
    non-period was found above MAX_NON_PERIOD within the scanned range.
    """

    limit: int
    non_members: Tuple[int, ...]
    class_maxima: Dict[int, int]
    eleven_max: int
    overall_max: int

    @property
    def stabilized(self) -> bool:
        return self.overall_max <= MAX_NON_PERIOD

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "non_members": list(self.non_members),
            "class_maxima": {str(m): v for m, v in sorted(self.class_maxima.items())},
            "eleven_max": self.eleven_max,
            "overall_max": self.overall_max,
            "stabilized": self.stabilized,
        }


def gap_scan(limit: int) -> GapReport:
    """Enumerate every non-period up to the limit and report the maxima.

    A limit of at least 2000 is needed before the report can show the
    true overall maximum; the scan does not extrapolate beyond its limit.
    """
    if limit < 11:
        raise ValueError("limit too small to be informative; use at least 11")
    non_members = tuple(n for n in range(1, limit + 1) if not contains(n))
    class_maxima: Dict[int, int] = {}
    eleven_max = 0
    for n in non_members:
        if n % 11 == 0:
            eleven_max = max(eleven_max, n)
        else:
            m = residue_class(n)
            class_maxima[m] = max(class_maxima.get(m, 0), n)
    return GapReport(
        limit=limit,
        non_members=non_members,
        class_maxima=class_maxima,
        eleven_max=eleven_max,
        overall_max=max(non_members) if non_members else 0,
    )


def _primes_upto(limit: int) -> List[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= limit:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [i for i in range(limit + 1) if sieve[i]]


def check_prime_rule(limit: int) -> List[int]:
    """Violations of the prime rule; empty when it holds.

    Checks that every prime in [281, limit] is a period, and cross-checks
    membership of all primes up to 401 against the frozen table of
    decomposable primes.
    """
    violations = []
    for p in _primes_upto(max(limit, 401)):
        if p <= 401 and contains(p) != (p in DECOMPOSABLE_PRIMES_UPTO_401):
            violations.append(p)
        if 281 <= p <= limit and not contains(p):
            violations.append(p)
    return sorted(set(violations))


#: For q coprime to 11, 11q is a period exactly when q is 1 or q >= 33
#: with these four exceptions.
ELEVEN_RULE_EXCEPTIONS = (43, 54, 76, 120)

#: Bound up to which the power rules for multiples of 11 are re-verified.
ELEVEN_POWER_CHECK_BOUND = 100_000


def check_eleven_rule(q_limit: int) -> List[int]:
    """Violations of the multiples-of-11 rules; empty when they hold.

    For q coprime to 11 up to q_limit, membership of 11q must equal the
    stated rule (q = 1, or q >= 33 excluding 43, 54, 76, 120).  The
    power rules are re-verified up to ELEVEN_POWER_CHECK_BOUND:
    11^j * q is a period for every j >= 3, and 121q is a period exactly
    for q >= 3 (121 and 242 are not periods).
    """
    violations = []
    for q in range(1, q_limit + 1):
        if q % 11 == 0:
            continue
        expected = q == 1 or (q >= 33 and q not in ELEVEN_RULE_EXCEPTIONS)
        if contains(11 * q) != expected:
            violations.append(11 * q)
    bound = ELEVEN_POWER_CHECK_BOUND
    power = 11**3
    while power <= bound:
        for q in range(1, bound // power + 1):
            if q % 11 and not contains(power * q):
                violations.append(power * q)
        power *= 11
    for q in range(1, bound // 121 + 1):
        if q % 11 == 0:
            continue
        expected = q >= 3
        if contains(121 * q) != expected:
            violations.append(121 * q)
    return sorted(set(violations))


def write_members_csv(lo: int, hi: int, out: TextIO) -> None:
    """CSV table of [lo, hi], 1 <= lo <= hi: columns n, member, a, b (first witness pair)."""
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    out.write("n,member,a,b\n")
    for n in range(lo, hi + 1):
        w = witness(n)
        if isinstance(w, Decomposition):
            out.write(f"{n},true,{w.a},{w.b}\n")
        elif w is not None:
            out.write(f"{n},true,,\n")
        else:
            out.write(f"{n},false,,\n")
