"""Case classification and block-evolution analysis for order 4.

Inside a cycle of the order-4 recurrence, the window that starts at an
occurrence of the cycle maximum is nonnegative with its first entry
largest.  Such windows (x1, x2, x3, x4) fall into six inequality
configurations:

    monotone : x1 >= x2 >= x3 >= x4           (the orbit is an 11-cycle)
    C1       : x1 >= x2 >= x4 >= x3
    C2       : x1 >= x3 >= max(x2, x4), x3 >= x2 + x4
    C3       : x1 >= x3 >= max(x2, x4), x3 <= x2 + x4
    C4       : x1 >= x4 >= x2 >= x3
    C5       : x1 >= x4 >= x3 >= x2

A window in case C2 reproduces its leading maximum after exactly 10
steps, every other case after 11, and the new window is again of the
same nonnegative shape, given by a closed form (``block_evolve``).  The
possible case-to-case moves form a small directed graph:

    C1 -> {C1, C4},  C2 -> {C1, C4},  C3 -> {C2, C3},
    C4 -> {C5},      C5 -> {C2, C3}.

Tracing blocks until the start window recurs decomposes a cycle into
routes through this graph and predicts the period as 10*A + 11*B from
the block counts alone.  The tracer refuses to guess when a window
satisfies more than one case (ties are handled by separate reductions,
not by the graph), and it detects closure that happens in the middle of
a block, where the graph bookkeeping does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .detect import DEFAULT_CAP, PeriodCertificate, period_of
# Unused here; bench/test_bench.py reads cases.detect_period to test the tracer.
from .detect import detect_period  # noqa: F401
from .errors import DegenerateCycle, LabelMismatch, PreconditionViolated
from .orbit import State, make_state


class Case(Enum):
    MONOTONE = "monotone"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"

    def __str__(self) -> str:
        return self.value


#: Arrows of the case graph: the moves a block evolution can make.
CASE_GRAPH = {
    Case.C1: frozenset({Case.C1, Case.C4}),
    Case.C2: frozenset({Case.C1, Case.C4}),
    Case.C3: frozenset({Case.C2, Case.C3}),
    Case.C4: frozenset({Case.C5}),
    Case.C5: frozenset({Case.C2, Case.C3}),
}


def _matches(state: State, case: Case) -> bool:
    x1, x2, x3, x4 = state
    if case is Case.MONOTONE:
        return x1 >= x2 >= x3 >= x4
    if case is Case.C1:
        return x1 >= x2 >= x4 >= x3
    if case is Case.C2:
        return x1 >= x3 >= max(x2, x4) and x3 >= x2 + x4
    if case is Case.C3:
        return x1 >= x3 >= max(x2, x4) and x3 <= x2 + x4
    if case is Case.C4:
        return x1 >= x4 >= x2 >= x3
    return x1 >= x4 >= x3 >= x2


@dataclass(frozen=True)
class Classification:
    """All cases matched by a window; exactly one means no tie to resolve."""

    labels: frozenset

    @property
    def unambiguous(self) -> bool:
        return len(self.labels) == 1

    @property
    def label(self) -> Case:
        if not self.unambiguous:
            raise PreconditionViolated(f"ambiguous classification: {self.describe()}")
        return next(iter(self.labels))

    def describe(self) -> str:
        return ",".join(sorted(c.value for c in self.labels))


def classify(state: State) -> Classification:
    """Match a nonnegative order-4 window with maximal first entry.

    The six predicates cover every admissible ordering, so the returned
    set is never empty.
    """
    state = make_state(state)
    if len(state) != 4:
        raise PreconditionViolated("classification is defined for order k = 4")
    x1 = state[0]
    if any(v < 0 for v in state):
        raise PreconditionViolated(f"entries must be nonnegative: {state}")
    if any(v > x1 for v in state[1:]):
        raise PreconditionViolated(f"first entry must be a weak maximum: {state}")
    labels = frozenset(c for c in Case if _matches(state, c))
    assert labels, "the six cases cover all admissible windows"
    return Classification(labels=labels)


#: Closed-form image of one block, per case: (length, new window).
_BLOCK_FORMS = {
    Case.C1: (11, lambda x1, x2, x3, x4: (x1, x2 + x3 - x4, x3, x4)),
    Case.C2: (10, lambda x1, x2, x3, x4: (x1, x1 - x3 + x2 + x4, x2, x3)),
    Case.C3: (11, lambda x1, x2, x3, x4: (x1, x2, x3, x2 + x4 - x3)),
    Case.C4: (11, lambda x1, x2, x3, x4: (x1, x3, x4 + x3 - x2, x4)),
    Case.C5: (11, lambda x1, x2, x3, x4: (x1, x2, x4, x2 + x4 - x3)),
}


def block_evolve(state: State, case: Case) -> Tuple[State, int]:
    """Jump a whole block at once: the window after 10 or 11 steps.

    Equals ``iterate(state, length)`` whenever the window satisfies the
    case, which is required (a monotone window is not a block case; its
    orbit is already known to be an 11-cycle).
    """
    state = make_state(state)
    if len(state) != 4:
        raise PreconditionViolated("block evolution is defined for order k = 4")
    if case is Case.MONOTONE:
        raise LabelMismatch("monotone windows do not evolve by case blocks")
    if case not in _BLOCK_FORMS:
        raise LabelMismatch(f"{case!r} is not a case label")
    if not _matches(state, case):
        raise LabelMismatch(f"{state} does not satisfy the inequalities of {case}")
    length, form = _BLOCK_FORMS[case]
    return form(*state), length


class TraceStatus(Enum):
    CLOSED = "closed"
    CONTROVERSIAL = "controversial"
    AMBIGUITY = "ambiguity"
    CAP_EXHAUSTED = "cap-exhausted"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Route:
    """One pass through the case graph from C4 back to C4.

    kind 1: C4 C5 C2 C1...C1        (m loops at C1)
    kind 2: C4 C5 C2
    kind 3: C4 C5 C3...C3 C2 C1...C1 (n loops at C3, m loops at C1)
    kind 4: C4 C5 C3...C3 C2        (n loops at C3)
    """

    kind: int
    loops_c1: int = 0
    loops_c3: int = 0


@dataclass(frozen=True)
class RouteTrace:
    """Block-by-block account of one attempted closure through the graph.

    ``predicted`` is 10 * (ten-blocks) + 11 * (eleven-blocks); when the
    status is CLOSED that is the period of the orbit.  Route tallies are
    only filled for closed, route-decomposable traces.
    """

    start: State
    blocks: Tuple[Tuple[Case, int], ...]
    status: TraceStatus
    routes: Tuple[Route, ...] = ()
    detected_period: Optional[int] = None

    @property
    def a1(self) -> int:
        return sum(1 for r in self.routes if r.kind == 1)

    @property
    def a2(self) -> int:
        return sum(1 for r in self.routes if r.kind == 2)

    @property
    def a3(self) -> int:
        return sum(1 for r in self.routes if r.kind == 3)

    @property
    def a4(self) -> int:
        return sum(1 for r in self.routes if r.kind == 4)

    @property
    def h(self) -> int:
        return sum(r.loops_c1 + r.loops_c3 for r in self.routes)

    @property
    def a(self) -> int:
        """Number of 10-blocks; equals the number of routes when decomposed."""
        return sum(1 for _, n in self.blocks if n == 10)

    @property
    def b(self) -> int:
        """Number of 11-blocks."""
        return sum(1 for _, n in self.blocks if n == 11)

    @property
    def predicted(self) -> int:
        return 10 * self.a + 11 * self.b

    def to_json(self) -> dict:
        return {
            "start": [str(v) for v in self.start],
            "blocks": [{"case": c.value, "len": n} for c, n in self.blocks],
            "A1": self.a1,
            "A2": self.a2,
            "A3": self.a3,
            "A4": self.a4,
            "H": self.h,
            "A": self.a,
            "B": self.b,
            "predicted": self.predicted,
            "status": self.status.value,
            "detected_period": self.detected_period,
            "routes": [
                {"kind": r.kind, "loops_c1": r.loops_c1, "loops_c3": r.loops_c3}
                for r in self.routes
            ],
        }


def _decompose_routes(labels: List[Case]) -> Tuple[Route, ...]:
    """Split a closed cyclic block-label sequence into routes at C4."""
    if Case.MONOTONE in labels:
        return ()
    if Case.C4 not in labels:
        return ()
    i = labels.index(Case.C4)
    rotated = labels[i:] + labels[:i]
    starts = [j for j, c in enumerate(rotated) if c is Case.C4]
    routes = []
    for lo, hi in zip(starts, starts[1:] + [len(rotated)]):
        seg = rotated[lo:hi]
        c1 = seg.count(Case.C1)
        c3 = seg.count(Case.C3)
        if seg[0] is not Case.C4 or seg[1:2] != [Case.C5] or seg.count(Case.C2) != 1:
            return ()
        if c3 == 0 and c1 == 0:
            routes.append(Route(kind=2))
        elif c3 == 0:
            routes.append(Route(kind=1, loops_c1=c1 - 1))
        elif c1 == 0:
            routes.append(Route(kind=4, loops_c3=c3 - 1))
        else:
            routes.append(Route(kind=3, loops_c1=c1 - 1, loops_c3=c3 - 1))
    return tuple(routes)


def trace_cycle(
    state: State,
    max_blocks: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> RouteTrace:
    """Follow block evolutions until the start window recurs.

    The exact detector runs alongside the block bookkeeping: if the true
    first return happens strictly inside a block, the trace reports
    CONTROVERSIAL instead of pretending the graph account applies.  A
    tie at any block boundary stops the trace with AMBIGUITY.  A
    ``max_blocks`` below 1 is refused with ValueError.
    """
    if max_blocks is not None and max_blocks < 1:
        raise ValueError(f"max_blocks must be at least 1, got {max_blocks}")
    state = make_state(state)
    start_cls = classify(state)
    if not start_cls.unambiguous:
        raise PreconditionViolated(
            f"start window matches several cases ({start_cls.describe()}); "
            "tie reductions are outside the graph account"
        )
    if max_blocks is None:
        max_blocks = max(4, 4 * cap // 10)

    period = period_of(state, cap)

    blocks: List[Tuple[Case, int]] = []
    cur = state
    cum = 0
    status = TraceStatus.CAP_EXHAUSTED
    while len(blocks) < max_blocks:
        cls = classify(cur)
        if not cls.unambiguous:
            status = TraceStatus.AMBIGUITY
            break
        label = cls.label
        if label is Case.MONOTONE:
            # A monotone window repeats after 11 steps (11-cycle), so the
            # block image is the window itself.
            nxt, length = cur, 11
        else:
            nxt, length = block_evolve(cur, label)
        blocks.append((label, length))
        cum += length
        cur = nxt
        if period is not None and cum > period:
            status = TraceStatus.CONTROVERSIAL
            break
        if cur == state and (period is None or cum == period):
            if period is None:
                # Detector cap was too small to see the return.  The state
                # returns at cum, so the first return within cum is the
                # minimal period and settles whether closure happened here.
                period = period_of(state, cap=cum)
                if period < cum:
                    status = TraceStatus.CONTROVERSIAL
                    break
            status = TraceStatus.CLOSED
            break

    routes: Tuple[Route, ...] = ()
    if status is TraceStatus.CLOSED:
        routes = _decompose_routes([c for c, _ in blocks])
    return RouteTrace(
        start=state,
        blocks=tuple(blocks),
        status=status,
        routes=routes,
        detected_period=period,
    )


def normalize_to_max(cert: PeriodCertificate) -> State:
    """Rotate a cycle so its window starts at an occurrence of the maximum.

    The occurrence used is the nearest one at or before the certificate's
    own window, i.e. the window reached by stepping backward until the
    maximum leads.  The result is nonnegative with maximal first entry,
    so it satisfies the classification precondition.  A cycle whose length
    is not its period, or whose largest term is not the stated maximum, is
    refused with DegenerateCycle.
    """
    p = cert.period
    if not (p >= 1 and len(cert.cycle) == p and max(cert.cycle) == cert.max_value):
        raise DegenerateCycle(
            f"malformed cycle: period {p}, {len(cert.cycle)} terms, maximum {cert.max_value}"
        )
    if cert.max_value == 0:
        raise DegenerateCycle("the zero cycle has no distinguished maximum window")
    j = 0
    while cert.cycle[(-j) % p] != cert.max_value:
        j += 1
    return cert.window_at((-j) % p)
