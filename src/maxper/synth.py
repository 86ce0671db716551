"""Constructors that realize a prescribed period, verified by simulation.

Each builder emits a SynthesisRecipe: the constructor used, its
parameters, the initial window, the predicted period, and a flag set by
actually running the orbit and comparing first-return time against the
prediction.  A recipe with ``verified=False`` is a loud failure, never a
silent one.

The workhorse family places the window (p, y, 0, q) with integers
p > q >= 1 coprime and any rational y in [q, p]; its period is
(p + q) * 11 + q * 10.  Those conditions make (q, p + q) an admissible
``perset.Decomposition`` of the period, as the gcd route's (p, q) is of
10p + 11q: both builders check admissibility through it, and
``synthesize`` realizes ``perset.witness(n)`` via p = b - a, q = a.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Dict, Union

from .detect import period_of
from .errors import DegenerateCycle, NotAPeriod, PreconditionViolated
from .orbit import State, as_rational, clear_denominators, make_state
from .perset import Decomposition, witness

ParamValue = Union[int, Fraction]


class Constructor(Enum):
    EQUILIBRIUM = "equilibrium"
    EIGHT_TEMPLATE = "eight-template"
    MONOTONE = "monotone"
    CONTROVERSIAL1 = "controversial1"
    CONTROVERSIAL2 = "controversial2"
    GCD_ROUTE = "gcd-route"
    TWO_K_CYCLE = "two-k-cycle"
    TWO_CYCLE_ODD_K = "two-cycle-odd-k"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SynthesisRecipe:
    tag: Constructor
    params: Dict[str, ParamValue]
    state: State
    predicted: int
    verified: bool

    def to_json(self) -> dict:
        return {
            "tag": self.tag.value,
            "params": {k: str(v) for k, v in self.params.items()},
            "state": [str(v) for v in self.state],
            "predicted": self.predicted,
            "verified": self.verified,
        }


def _finish(
    tag: Constructor,
    params: Dict[str, ParamValue],
    state: State,
    predicted: int,
    verify: bool,
) -> SynthesisRecipe:
    # First-return at exactly `predicted` steps is both necessary and
    # sufficient, so the verification cap never needs to exceed it.
    verified = verify and period_of(state, cap=predicted) == predicted
    return SynthesisRecipe(
        tag=tag, params=params, state=state, predicted=predicted, verified=verified
    )


def build_controversial1(
    p: int, q: int, ybar: Union[int, str, Fraction], verify: bool = True
) -> SynthesisRecipe:
    """Window (p, y, 0, q), p > q >= 1 coprime, p >= y >= q: period 11(p+q) + 10q.

    p = q is rejected: coprimality forces p = q = 1 there, and (1, 1, 0, 1)
    collapses to an 8-cycle instead of the formula's value.
    """
    y = as_rational(ybar)
    target = Decomposition(a=q, b=p + q)
    if not target.admissible:
        raise PreconditionViolated(f"need p > q >= 1 coprime, got p={p}, q={q}")
    if not (p >= y >= q):
        raise PreconditionViolated(f"need p >= ybar >= q, got ybar={y}")
    state = make_state((p, y, 0, q))
    return _finish(
        Constructor.CONTROVERSIAL1,
        {"p": p, "q": q, "ybar": y},
        state,
        target.value,
        verify,
    )


def build_controversial2(
    x: Union[int, str, Fraction],
    z: Union[int, str, Fraction],
    y: Union[int, str, Fraction],
    verify: bool = True,
) -> SynthesisRecipe:
    """Window (x, z, y, 0) with x >= y > z > 0: period 11(2p-q) + 10(p-q).

    Here d = gcd(y - z, x), p = x/d and q = p - (y - z)/d, computed after
    clearing denominators (scaling leaves the period unchanged).  y = z
    degenerates to an 11-cycle and is rejected.
    """
    xr, zr, yr = as_rational(x), as_rational(z), as_rational(y)
    if yr == zr:
        raise DegenerateCycle("y = z gives a monotone window and an 11-cycle")
    if not (xr >= yr > zr > 0):
        raise PreconditionViolated(f"need x >= y > z > 0, got x={xr}, y={yr}, z={zr}")
    ints, _ = clear_denominators((xr, zr, yr))
    xi, zi, yi = ints
    d = gcd(yi - zi, xi)
    p = xi // d
    q = p - (yi - zi) // d
    state = make_state((xr, zr, yr, 0))
    predicted = (2 * p - q) * 11 + (p - q) * 10
    return _finish(
        Constructor.CONTROVERSIAL2,
        {"x": xr, "z": zr, "y": yr, "d": d, "p": p, "q": q,
         "z_reduced": Fraction(zi, d), "y_reduced": Fraction(yi, d)},
        state,
        predicted,
        verify,
    )


def build_gcd_route(
    p: int,
    q: int,
    x3: Union[int, str, Fraction],
    x4: Union[int, str, Fraction],
    x2: Union[int, str, Fraction],
    verify: bool = True,
) -> SynthesisRecipe:
    """Route-driven window with x1 = (q - p)/p * (x4 - x3): period 10p + 11q.

    Requires (p, q) admissible as a Decomposition, x4 > x3 >= 0,
    x4 > x2 > x3 strictly, and the induced x1 >= x4.  Strict interiority
    of x2 keeps the start unambiguous; whether every later block boundary
    stays unambiguous additionally depends on x2's position in the
    (x3, x4) gap (see safe_gcd_route_x2 for a choice that always works).
    """
    target = Decomposition(a=p, b=q)
    if not target.admissible:
        raise PreconditionViolated(f"need p >= 1, q >= 2p + 1 coprime, got p={p}, q={q}")
    x3r, x4r, x2r = as_rational(x3), as_rational(x4), as_rational(x2)
    if not x4r > x3r >= 0:
        raise PreconditionViolated(f"need x4 > x3 >= 0, got x3={x3r}, x4={x4r}")
    if not x4r > x2r > x3r:
        raise PreconditionViolated(f"need x4 > x2 > x3 strictly, got x2={x2r}")
    x1r = Fraction(q - p, p) * (x4r - x3r)
    if x1r < x4r:
        raise PreconditionViolated(
            f"induced x1 = {x1r} is below x4 = {x4r}; shrink x3 or grow q"
        )
    state = make_state((x1r, x2r, x3r, x4r))
    return _finish(
        Constructor.GCD_ROUTE,
        {"p": p, "q": q, "x1": x1r, "x2": x2r, "x3": x3r, "x4": x4r},
        state,
        target.value,
        verify,
    )


def safe_gcd_route_x2(p: int, x3, x4, numerator: int = 1) -> Fraction:
    """An x2 for build_gcd_route whose whole trace stays unambiguous.

    With x3 = 0 the block boundaries revisit x2-values of the form
    x2 + j*(r/p)*(x4 - x3) reduced mod the gap, so ties occur exactly
    when (x2 - x3)/(x4 - x3) lands on a multiple of 1/p.  Denominator
    p + 1 can never do that.  Pick numerator in [1, p].
    """
    if not 1 <= numerator <= p:
        raise PreconditionViolated(f"numerator must lie in [1, {p}]")
    x3r, x4r = as_rational(x3), as_rational(x4)
    return x3r + (x4r - x3r) * Fraction(numerator, p + 1)


def build_general_k(
    kind: Union[str, Constructor],
    k: int,
    x: Union[int, str, Fraction] = 1,
    verify: bool = True,
) -> SynthesisRecipe:
    """Template windows of arbitrary order k.

    two-k-cycle     (k >= 4): (0, x, 0, x, x, ..., x), period 2k.
    two-cycle-odd-k (odd k >= 3): (x, 0, x, 0, ..., x), period 2.
    monotone        (k >= 2): x * (k, k-1, ..., 1), period 3k - 1.
    """
    tag = Constructor(kind) if not isinstance(kind, Constructor) else kind
    xv = as_rational(x)
    if xv <= 0:
        raise PreconditionViolated(f"the template scale x must be positive, got {xv}")
    if tag is Constructor.TWO_K_CYCLE:
        if k < 4:
            raise PreconditionViolated("the 2k-cycle template needs k >= 4")
        state = make_state((0, xv, 0, xv) + (xv,) * (k - 4))
        predicted = 2 * k
    elif tag is Constructor.TWO_CYCLE_ODD_K:
        if k < 3 or k % 2 == 0:
            raise PreconditionViolated("alternating 2-cycles need odd k >= 3")
        state = make_state(tuple(xv if i % 2 == 0 else 0 for i in range(k)))
        predicted = 2
    elif tag is Constructor.MONOTONE:
        if k < 2:
            raise PreconditionViolated("monotone templates need k >= 2")
        state = make_state(tuple(xv * (k - i) for i in range(k)))
        predicted = 3 * k - 1
    else:
        raise PreconditionViolated(f"not a general-order template kind: {kind}")
    return _finish(tag, {"k": k, "x": xv}, state, predicted, verify)


def synthesize(n: int, verify: bool = True) -> SynthesisRecipe:
    """An initial window whose orbit has period exactly n, if one exists.

    1, 8 and 11 get their dedicated templates.  Any other member is
    realized from its witness 10a + 11b through the (p, y, 0, q) family
    with p = b - a, q = a and y = (p + q)/2, strictly between q and p.
    """
    if n == 1:
        state = make_state((0, 0, 0, 0))
        return _finish(Constructor.EQUILIBRIUM, {}, state, 1, verify)
    if n == 8:
        state = make_state((1, 0, 1, Fraction(1, 2)))
        return _finish(
            Constructor.EIGHT_TEMPLATE,
            {"x": Fraction(1), "alpha": Fraction(1, 2)},
            state,
            8,
            verify,
        )
    if n == 11:
        return build_general_k(Constructor.MONOTONE, 4, 1, verify=verify)
    w = witness(n)
    if w is None:
        raise NotAPeriod(f"{n} admits no decomposition 10a + 11b with "
                         "a >= 1, b >= 2a + 1, gcd(a, b) = 1")
    p, q = w.b - w.a, w.a
    return build_controversial1(p, q, Fraction(p + q, 2), verify=verify)
