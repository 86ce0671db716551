"""Exact first-return period detection with verifiable certificates.

Because the forward map is a bijection, an orbit that ever revisits a
window must revisit its initial window first, and the first return time
is the minimal period of the generated sequence.  Detection therefore
compares the full k-window against the start after every step and stops
at the first match.

Detection runs in one pass.  The window is scaled to integers and run
forward by one integer kernel, ``orbit._advance``.  ``period_of`` keeps
only the current window, so its memory stays O(k) whether or not the
orbit closes.  ``detect_period`` also hands the kernel a list, to which
it appends each term as it makes it, up to a fixed limit; an orbit that
runs past the limit is run on unrecorded, and recorded again only once
it has closed.  So its memory is O(min(p, cap)), the order of the
certificate it may return, and bounded while the orbit has not closed.
At the return the list is cut to its first p entries, the integer
cycle.  The maximum and the least rotation are taken on the integers
(scaling by L > 0 preserves order, so both agree with the rational
cycle), and the cycle is converted to Fractions once at the end.  The
least rotation runs Booth's algorithm over blocks of the cycle cut
before each occurrence of its minimum, so most comparisons are tuple
comparisons at C speed.  A long cycle takes few distinct values, so each
distinct integer becomes a Fraction once and its repeats share that
immutable object; ``PeriodCertificate.from_json`` parses each distinct
cycle literal once in the same way, and refuses a malformed document
with ValueError.  ``PeriodCertificate.to_json`` formats each distinct
cycle object once, so shared entries cost one ``str`` call.

A successful detection is packaged as a PeriodCertificate carrying the
whole cycle, its maximum, and a canonical rotation index, so that
independent code (or another process entirely) can re-check every claim.
``first_violation`` never steps, so it shares no code with the
detector's kernel.  It checks every term of the cycle against the
recurrence at once, as a windowed maximum taken in passes at C speed
(O(p log k) comparisons), and establishes minimality as primitivity of
the cycle word, which is "no earlier return" once every term matches.
It then checks the maximum, the sign structure that any cycle of this
recurrence must satisfy around occurrences of its maximum, and the
claimed rotation, which must start a Lyndon word (Duval's algorithm)
rather than be recomputed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, islice, repeat
from math import lcm
from operator import add, eq
from typing import Callable, Optional, Sequence, Tuple, Union

from .orbit import (
    State,
    _advance,
    clear_denominators,
    make_state,
    parse_rational,
)

DEFAULT_CAP = 1_000_000

#: The most terms ``detect_period`` records before the orbit has closed.
#: An orbit of period p up to the limit runs p steps; a longer one runs
#: limit + 2p, and one that does not close within a cap above it runs
#: limit + cap.
_RECORD_LIMIT = 1 << 16


def _interned(values: Sequence, convert: Callable, key: Optional[Callable] = None) -> tuple:
    """``tuple(convert(v) for v in values)``, converting each distinct value once.

    Values are distinct by equality, or by ``key(v)`` if a key is given;
    values with equal keys must convert alike.  ``key=id`` converts each
    distinct object once without hashing the values, which pays when
    hashing runs in Python (Fraction).  Repeats share the first result,
    which must therefore be immutable.  Distinct values are converted in
    order of first occurrence, so the first value ``convert`` refuses is
    the first one in ``values``.
    """
    keys = values if key is None else list(map(key, values))
    # dict() keeps the first of equal keys but the last of their values, so
    # without a key function the first occurrence is the key itself.
    memo = dict(zip(keys, values))
    for k, v in memo.items():
        memo[k] = convert(v if key else k)
    return tuple(map(memo.__getitem__, keys))


def _booth(values: Sequence) -> int:
    """Index of the lexicographically smallest rotation (Booth's algorithm)."""
    n = len(values)
    if n == 0:
        return 0
    doubled = list(values) + list(values)
    fail = [-1] * len(doubled)
    best = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - best - 1]
        while i != -1 and c != doubled[best + i + 1]:
            if c < doubled[best + i + 1]:
                best = j - i - 1
            i = fail[i]
        if c != doubled[best + i + 1]:
            if c < doubled[best]:
                best = j
            fail[j - best] = -1
        else:
            fail[j - best] = i + 1
    return best % n


def least_rotation_index(values: Sequence) -> int:
    """Index of the lexicographically smallest rotation of ``values``.

    The smallest rotation starts at an occurrence of the minimum m, so
    the cycle is cut before every m into blocks and Booth's algorithm
    runs over the blocks, comparing them as tuples.  That order is the
    order of the entries: a block that is a proper prefix of another is
    followed by m, which is smaller than every entry that does not start
    a block.  Each block comparison runs at C speed.  Like Booth's
    algorithm on the entries, it returns the first index of the least
    rotation when the cycle repeats.
    """
    n = len(values)
    if n == 0:
        return 0
    m = min(values)
    # operator.eq, not m.__eq__: int.__eq__(Fraction) is NotImplemented, which is truthy.
    starts = list(compress(range(n), map(eq, values, repeat(m))))
    values = tuple(values)
    blocks = list(map(values.__getitem__, map(slice, starts, starts[1:])))
    blocks.append(values[starts[-1] :] + values[: starts[0]])
    return starts[_booth(blocks)]


@dataclass(frozen=True)
class PeriodCertificate:
    """A checked claim that ``initial`` generates a cycle of minimal period."""

    k: int
    initial: State
    period: int
    cycle: Tuple[Fraction, ...]
    max_value: Fraction
    rotation: int

    def window_at(self, index: int) -> State:
        """The k-window of the cycle starting at the given cycle index."""
        p = self.period
        return tuple(self.cycle[(index + t) % p] for t in range(self.k))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "initial": list(map(str, self.initial)),
            "period": self.period,
            "cycle": list(_interned(self.cycle, str, key=id)),
            "max": str(self.max_value),
            "rotation": self.rotation,
        }

    @classmethod
    def from_json(cls, data: Union[str, dict]) -> "PeriodCertificate":
        """Load a certificate document; a malformed one raises ValueError naming the field."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError(f"certificate must be a JSON object, got {data!r:.60}")
        missing = [field for field in _JSON_FIELDS if field not in data]
        if missing:
            raise ValueError(f"certificate is missing {', '.join(map(repr, missing))}")
        for field in ("k", "period", "rotation"):
            # bool is an int subclass; JSON true must not load as 1.
            if type(data[field]) is not int:
                raise ValueError(
                    f"certificate {field!r} must be a JSON integer, got {data[field]!r}"
                )
        return cls(
            k=data["k"],
            initial=_literals(data, "initial"),
            period=data["period"],
            cycle=_literals(data, "cycle"),
            max_value=_literal("max", data["max"]),
            rotation=data["rotation"],
        )


_JSON_FIELDS = ("k", "initial", "period", "cycle", "max", "rotation")


def _literal(field: str, text) -> Fraction:
    """Parse one rational literal of a certificate document's ``field``."""
    if type(text) is not str:
        raise ValueError(f"certificate {field!r} needs rational literals as strings, got {text!r}")
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"certificate {field!r}: {exc}") from None


def _literals(data: dict, field: str) -> tuple:
    """Parse a list of literals, each distinct one once (see ``_interned``)."""
    values = data[field]
    if not isinstance(values, list):
        raise ValueError(f"certificate {field!r} must be a JSON list, got {values!r:.60}")
    try:
        return _interned(values, partial(_literal, field))
    except TypeError:
        # Hashing a list or object entry fails before any literal is
        # parsed; _literal refuses the first non-string with ValueError.
        _literal(field, next(v for v in values if type(v) is not str))
        raise


@dataclass(frozen=True)
class NotClosed:
    """The orbit did not return to its initial window within ``steps`` steps."""

    steps: int


def detect_period(state: State, cap: int = DEFAULT_CAP) -> PeriodCertificate | NotClosed:
    """Run the orbit forward until the initial window recurs, or give up.

    NotClosed is an answer, not an error: nothing guarantees that an
    arbitrary rational window closes within any particular budget.

    The kernel records each term it makes, up to ``_RECORD_LIMIT`` of
    them, so memory is O(min(p, cap, _RECORD_LIMIT)) until the orbit
    closes and O(p) once it does.  Past the limit the record is dropped
    and the kernel runs on from the window reached, keeping only the
    window; the first return of any window on a cycle is its period.  An
    orbit that closes within the cap is then run once more from the start,
    recording its p terms.  ``period_of`` keeps only the window.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    state = make_state(state)
    ints, L = clear_denominators(state)
    terms = list(ints)
    p, w = _advance(ints, min(cap, _RECORD_LIMIT), terms)
    if w != ints:
        if cap <= _RECORD_LIMIT:
            return NotClosed(steps=cap)
        terms.clear()
        p, back = _advance(w, cap)
        if back != w:
            return NotClosed(steps=cap)
        terms.extend(ints)
        _advance(ints, p, terms)
    # terms is the orbit up to the return; its first p entries are the cycle.
    del terms[p:]
    return PeriodCertificate(
        k=len(ints),
        initial=state,
        period=p,
        cycle=_interned(terms, lambda c: Fraction(c, L)),
        max_value=Fraction(max(terms), L),
        rotation=least_rotation_index(terms),
    )


def period_of(state: State, cap: int = DEFAULT_CAP) -> Optional[int]:
    """Just the period, or None if the orbit did not close within the cap.

    Integer-only: no Fraction cycle and no rotation are built.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    ints, _ = clear_denominators(make_state(state))
    p, w = _advance(ints, cap)
    return p if w == ints else None


def first_violation(cert: PeriodCertificate) -> Optional[str]:
    """Name of the first certificate invariant that fails, or None.

    The checks never step, so they share no code with the detector's
    kernel.  The initial window and the cycle are scaled by the lcm L of
    the initial denominators, each distinct cycle object once; a cycle
    entry that is not a multiple of 1/L cannot be an orbit value.  Every
    term is then checked against the recurrence at once, over the cycle
    extended cyclically to ext: x[t + k] + x[t] must equal the maximum of
    0 and x[t + 1 .. t + k - 1] for every t < p, and ``_window_maxima``
    takes those maxima in passes at C speed.  With the initial window
    checked, that makes the orbit of the initial window the p-periodic
    extension of the cycle.

    Minimality is then primitivity.  A window that came back at t < p
    would make the sequence, and so the cycle word, periodic with the
    proper divisor gcd(t, p) of p, and every proper divisor of p divides
    p/q for some prime q | p.  So an earlier return exists exactly when
    the cycle equals its rotation by p/q for some prime q | p.  The sign
    structure around the maximum and the rotation are checked on the
    same integers; scaling by L > 0 preserves order, so both agree with
    the rational cycle.

    The claimed rotation is checked rather than recomputed: minimality is
    checked first, so the cycle is primitive, and its least rotation is
    the one that is a Lyndon word (Duval's loop, ``_is_least_rotation``).
    """
    k, p = cert.k, cert.period
    if k < 2 or len(cert.initial) != k:
        return "order"
    if p < 1:
        return "period-positive"
    if len(cert.cycle) != p:
        return "cycle-length"
    if any(cert.initial[i] != cert.cycle[i % p] for i in range(k)):
        return "initial-window"
    L = lcm(*(v.denominator for v in cert.initial))

    def scaled(v: Fraction) -> int:
        q, r = divmod(L, v.denominator)
        if r:
            raise ValueError("off the lattice")
        return v.numerator * q

    try:
        cycle = _interned(cert.cycle, scaled, key=id)
    except ValueError:
        return "resimulation"
    ext = (cycle * (k // p + 2))[: p + k]
    if list(map(add, ext, ext[k:])) != _window_maxima(ext[1:-1], k - 1):
        return "resimulation"
    if any(cycle[d:] == cycle[:-d] for d in map(p.__floordiv__, _prime_factors(p))):
        return "minimality"
    m = max(cycle)
    if cert.max_value != Fraction(m, L):
        return "max-element"
    label = _sign_violation(cycle, m, k)
    if label is not None:
        return label
    if not _is_least_rotation(cycle, cert.rotation):
        return "rotation"
    return None


#: Shifted views combined per ``map(max, ...)`` pass in ``_window_maxima``.
_FAN_IN = 8


def _window_maxima(values: Sequence[int], width: int) -> list:
    """max(0, *values[i : i + width]) for every window of ``width`` consecutive values.

    The first pass takes the maximum of 0 and up to ``_FAN_IN`` shifted
    views, which spans windows of that many values.  Each further pass
    takes up to ``_FAN_IN`` overlapping windows of the previous span,
    which multiplies the span until it reaches ``width``.  So the maxima
    cost O(n log(width)) comparisons, all inside ``map(max, ...)``.
    """
    span = min(width, _FAN_IN)
    level = list(map(max, *(islice(values, i, None) for i in range(span)), repeat(0)))
    while span < width:
        grown = min(span * _FAN_IN, width)
        # Windows of the old span at these offsets cover one of the grown span.
        offsets = [min(j * span, grown - span) for j in range(-(-grown // span))]
        level = list(map(max, *(islice(level, o, None) for o in offsets)))
        span = grown
    return level


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def _sign_violation(cycle: Sequence[int], m: int, k: int) -> Optional[str]:
    """Label of the first sign check that an integer cycle with maximum m fails, or None.

    These checks restate theorems about true cycles of the order-k
    recurrence: the maximum is nonnegative, a zero maximum means the zero
    cycle, and around every occurrence of the maximum the signs follow a
    fixed pattern.  So they cannot fire once every term has matched;
    they stay as independent statements of the theory, and the tests
    reach them through forged cycles.
    """
    if m < 0:
        return "max-nonnegative"
    if m == 0 and any(cycle):
        return "zero-cycle"
    if m > 0:
        # At every occurrence of m the entries at offsets 0..k-1 must be
        # >= 0 and the one at offset k <= 0; ext is read only there.
        starts = list(compress(range(len(cycle)), map(eq, cycle, repeat(m))))
        ext = cycle * (k // len(cycle) + 2)
        if any(min(ext[i + 1 : i + k]) < 0 for i in starts):
            return "sign-structure"
        if max(map(ext.__getitem__, [i + k for i in starts])) > 0:
            return "sign-structure"
    return None


def _is_least_rotation(cycle: Sequence, r: int) -> bool:
    """Whether r indexes the least rotation of a primitive cycle.

    For a primitive cycle that means the rotation starting at r is a
    Lyndon word.  It must start at the minimum m; cut before every m, its
    blocks compare as tuples in the order of the entries, and Duval's loop
    over the blocks decides whether it is Lyndon.
    """
    p = len(cycle)
    if not 0 <= r < p:
        return False
    rot = cycle[r:] + cycle[:r]
    lo = min(cycle)
    if rot[0] != lo:
        return False
    cuts = list(compress(range(p), map(eq, rot, repeat(lo))))
    blocks = list(map(rot.__getitem__, map(slice, cuts, cuts[1:] + [p])))
    # Duval: blocks[:j] is a prefix of a power of the Lyndon word blocks[:j - i].
    i = 0
    for j in range(1, len(blocks)):
        if blocks[i] < blocks[j]:
            i = 0
        elif blocks[i] == blocks[j]:
            i += 1
        else:
            return False
    return i == 0


def verify_certificate(cert: PeriodCertificate) -> bool:
    """True iff every certificate invariant re-checks from scratch."""
    return first_violation(cert) is None


def match_eight_template(cert: PeriodCertificate) -> Optional[Tuple[Fraction, Fraction]]:
    """Parameters (x, alpha) of an 8-cycle, if this certificate is one.

    Every 8-cycle of the order-4 recurrence is, up to rotation,

        x, 0, x, alpha, 0, x, 0, x - alpha      with x > 0, 0 <= alpha <= x.

    At the boundary alpha in {0, x} two rotations match; the smaller alpha
    is returned so the answer is canonical.
    """
    if cert.period != 8:
        return None
    c = cert.cycle
    x = cert.max_value
    if x <= 0:
        return None
    alphas = []
    for r in range(8):
        w = tuple(c[(r + t) % 8] for t in range(8))
        alpha = w[3]
        if (
            w[0] == x
            and w[1] == 0
            and w[2] == x
            and 0 <= alpha <= x
            and w[4] == 0
            and w[5] == x
            and w[6] == 0
            and w[7] == x - alpha
        ):
            alphas.append(alpha)
    if not alphas:
        return None
    return x, min(alphas)

