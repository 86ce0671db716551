"""Independent reference answers for checking benchmark outputs.

Nothing here imports maxper.  The only thing shared with the library is
the recurrence itself, x[n+k] = max(x[n+k-1], ..., x[n+1], 0) - x[n],
simulated on integers after clearing denominators.  Membership in the
order-4 period set is decided by a residue-class scan (10a + 11b = n
forces a = -n mod 11, and b >= 2a + 1 forces 32a + 11 <= n), which is a
different algorithm from the library's scan over every a.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

CAP = 1_000_000


def to_ints(window):
    """The window scaled by the lcm L of its denominators, and L."""
    fracs = [Fraction(v) for v in window]
    L = lcm(*(v.denominator for v in fracs))
    return tuple(int(v * L) for v in fracs), L


def first_return(window, cap=CAP):
    """Steps until an integer window first recurs, or None within the cap."""
    start = w = tuple(window)
    for t in range(1, cap + 1):
        rest = w[1:]
        w = rest + (max(max(rest), 0) - w[0],)
        if w == start:
            return t
    return None


def values(window, n):
    """The first n terms of the integer sequence the window starts."""
    out = list(window[:n])
    w = tuple(window)
    while len(out) < n:
        rest = w[1:]
        w = rest + (max(max(rest), 0) - w[0],)
        out.append(w[-1])
    return out


def least_rotation(seq):
    """Start of the smallest rotation, by Duval's Lyndon factorisation."""
    n = len(seq)
    s = list(seq) * 2
    i = ans = 0
    while i < n:
        ans = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return ans


def decompositions(n):
    """Admissible (a, b) with 10a + 11b = n, a >= 1, b >= 2a + 1, gcd 1."""
    out = []
    a = (-n) % 11 or 11
    while 32 * a + 11 <= n:
        b = (n - 10 * a) // 11
        if gcd(a, b) == 1:
            out.append((a, b))
        a += 11
    return out


def member(n):
    return n in (1, 8, 11) or bool(decompositions(n))


def next_member(n):
    while not member(n):
        n += 1
    return n


def _graded(k, n, coprime):
    if n in (1, (3 - (-1) ** k) // 2, 2 * k, 3 * k - 1):
        return True
    u, v = 3 * k - 2, 3 * k - 1
    for b in range(n // v + 1):
        a, r = divmod(n - v * b, u)
        if r == 0 and a + b > 0 and (not coprime or gcd(a, b) == 1):
            return True
    return False


def conjectured(k, n):
    """Special values of order k, or (3k-2)a + (3k-1)b with gcd(a, b) = 1."""
    return _graded(k, n, coprime=True)


def combination(k, n):
    """Like conjectured, without the coprimality restriction."""
    return _graded(k, n, coprime=False)


def survey_periods(k, samples, seed, numerator_bound=12):
    """Periods of the windows a seeded survey draws, in draw order.

    The windows are numerators over a common denominator, so they are
    simulated as they are; scaling does not change a period.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        window = tuple(rng.randint(0, numerator_bound) for _ in range(k))
        out.append((window, first_return(window)))
    return out
