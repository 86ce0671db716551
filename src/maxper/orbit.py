"""Exact state arithmetic for the max-minus recurrence.

Sequences here obey, for a fixed order k >= 2,

    x[n+k] = max(x[n+k-1], x[n+k-2], ..., x[n+1], 0) - x[n].

The state of the dynamical system is one window of k consecutive terms,
stored oldest first as a tuple of exact rationals.  The forward map is a
bijection: the oldest term can always be recovered from the next window,

    x[n] = max(x[n+k-1], ..., x[n+1], 0) - x[n+k],

so every orbit extends to a bi-infinite sequence and eventual periodicity
already implies periodicity from the start.

All arithmetic is exact (``fractions.Fraction``); no floats appear
anywhere.  Values produced by the recurrence stay in the additive lattice
spanned by the initial entries, so denominators never grow beyond the lcm
of the initial denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Tuple

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
    """Exact inverse of step: recover the window one index earlier."""
    head = state[:-1]
    m = max(head)
    if m < 0:
        m = 0
    return (m - state[-1],) + head


def iterate(state: State, n: int) -> State:
    """n-fold forward step; negative n walks backward via the inverse map."""
    if n >= 0:
        for _ in range(n):
            state = step(state)
    else:
        for _ in range(-n):
            state = step_back(state)
    return state


def orbit_values(state: State, n: int) -> List[Fraction]:
    """First n terms x[1], ..., x[n] of the sequence seeded by this window."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = len(state)
    values = list(state[:n])
    w = state
    for _ in range(max(0, n - k)):
        w = step(w)
        values.append(w[-1])
    return values


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
