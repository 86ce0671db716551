"""Exact state arithmetic for the max-minus recurrence.

Sequences here obey, for a fixed order k >= 2,

    x[n+k] = max(x[n+k-1], x[n+k-2], ..., x[n+1], 0) - x[n].

The state of the dynamical system is one window of k consecutive terms,
stored oldest first as a tuple of exact rationals.  The forward map is a
bijection: the oldest term can always be recovered from the next window,

    x[n] = max(x[n+k-1], ..., x[n+1], 0) - x[n+k],

so every orbit extends to a bi-infinite sequence and eventual periodicity
already implies periodicity from the start.

All arithmetic is exact, with no floats; forward runs step integer windows
(the state scaled by the lcm of its denominators) and convert back once.
Values produced by the recurrence stay in the lattice spanned by the initial
entries, so denominators never grow beyond the lcm of the initial ones.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import cycle, islice
from math import lcm
from typing import Iterable, List, Optional, Sequence, Tuple

State = Tuple[Fraction, ...]


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or literal like ``-3`` / ``5/2`` to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``-p``, ``p/q`` or ``-p/q`` with ASCII digits and q > 0.

    Surrounding whitespace is ignored; anything else the grammar
    ``-?[0-9]+(/[0-9]+)?`` does not describe is rejected, including
    floats, signs on the denominator, ``+``, digit separators and
    non-ASCII digits.
    """
    match = _RATIONAL_LITERAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    q = int(den)
    if q == 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(int(num), q)


def make_state(values: Iterable[int | str | Fraction]) -> State:
    """Build a state tuple from any mix of ints, strings, and Fractions."""
    state = tuple(as_rational(v) for v in values)
    if len(state) < 2:
        raise ValueError(f"a state needs order k >= 2, got {len(state)} entries")
    return state


def parse_state(text: str) -> State:
    """Parse a comma-separated window such as ``8,2,1,5`` or ``3/2,1/2,0,1``."""
    parts = [p for p in text.split(",")]
    if len(parts) < 2:
        raise ValueError(f"a state needs at least two comma-separated entries: {text!r}")
    return make_state(parts)


def format_state(state: State) -> str:
    return ",".join(str(v) for v in state)


def step(state: State) -> State:
    """One forward application of the recurrence to a k-window."""
    rest = state[1:]
    m = max(rest)
    if m < 0:
        m = 0
    return rest + (m - state[0],)


def step_back(state: State) -> State:
    """Exact inverse of step: x[n+k] + x[n] = max(0, x[n+1..n+k-1]) reads the same backwards."""
    return step(state[::-1])[::-1]


def _advance(window: Sequence[int], n: int, terms: Optional[list] = None) -> Tuple[int, Tuple[int, ...]]:
    """Integer step kernel: (steps taken, window reached) after n steps or the first return.

    For n >= 1 the window reached equals the start exactly when the orbit
    returned, and then the steps taken are the first return time.  If
    ``terms`` is given, each new term is appended to it as it is made.
    """
    w = target = tuple(window)
    t = 0
    for t in range(1, n + 1):
        rest = w[1:]
        m = max(rest)
        if m < 0:
            m = 0
        w = rest + (m - w[0],)
        if terms is not None:
            terms.append(w[-1])
        if w == target:
            break
    return t, w


def iterate(state: State, n: int) -> State:
    """n-fold forward step; negative n steps the reversed window forward (see step_back).

    Once the orbit returns at t < |n|, F^t is the identity and |n| mod t steps remain.
    """
    ints, L = clear_denominators(state)
    direction = -1 if n < 0 else 1
    t, w = _advance(ints[::direction], abs(n))
    if t < abs(n):
        _, w = _advance(ints[::direction], abs(n) % t)
    return tuple(Fraction(v, L) for v in w[::direction])


def orbit_values(state: State, n: int) -> List[Fraction]:
    """First n terms x[1], ..., x[n] of the sequence; after a return at t the first t repeat."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ints, L = clear_denominators(state)
    terms = list(ints)
    t, _ = _advance(ints, n - len(ints), terms)
    if t < n - len(ints):
        del terms[t:]
    return list(islice(cycle([Fraction(v, L) for v in terms]), n))


def scale(state: State, alpha: int | str | Fraction) -> State:
    """Multiply every entry by alpha > 0.

    Positive scaling commutes with the recurrence, so the scaled orbit is
    periodic exactly when the original is, with the same period.
    """
    a = as_rational(alpha)
    if a <= 0:
        raise ValueError(f"scale factor must be positive, got {a}")
    return tuple(v * a for v in state)


def clear_denominators(state: State) -> Tuple[Tuple[int, ...], int]:
    """Return (integer window, L) where the window is the state scaled by L.

    Scaling by the positive integer L preserves periods and first-return
    times exactly, which makes integer arithmetic a safe fast path.
    """
    L = lcm(*(as_rational(v).denominator for v in state))
    ints = tuple(int(as_rational(v) * L) for v in state)
    return ints, L
