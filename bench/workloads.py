"""The four benchmark workloads: inputs, one timed item, and its check.

``blocks(mp, seed)`` yields the inputs in blocks, all drawn from one
``random.Random(f"{name}:{seed}")``, so a seed fixes every input of a
run.  Each block is stratified: it holds one draw from each of a fixed
set of equal-probability strata of the work an item does, in shuffled
order.  Runs then differ in which inputs they see but hardly in
their mix of sizes, which keeps throughput and latency percentiles
comparable across seeds.

``run(mp, inp)`` is the timed part and calls only the public API of the
freshly imported package ``mp``.  ``check(inp, out)`` runs outside the
timed region and compares the output with ``reference``, which shares no
code with the library.
"""

from __future__ import annotations

import bisect
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterator, List

import reference as ref


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_blocks: Callable[[random.Random, Any], Iterator[List[Any]]]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], bool]
    #: Items the traced run measures, fixed so that its counts repeat.
    trace_items: int

    def blocks(self, mp, seed) -> Iterator[List[Any]]:
        return self.make_blocks(random.Random(f"{self.name}:{seed}"), mp)


def _log_uniform(rng, lo_exp, hi_exp, strata):
    """One log-uniform draw from each of `strata` equal slices, shuffled."""
    width = (hi_exp - lo_exp) / strata
    draws = [round(10 ** (lo_exp + width * (j + rng.random()))) for j in range(strata)]
    rng.shuffle(draws)
    return draws


def _cli(mp, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mp.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"maxper {' '.join(argv)} exited with {code}")
    return buf.getvalue()


# long_orbit ---------------------------------------------------------------

def _long_orbit_blocks(rng, mp):
    while True:
        yield [(ref.next_member(n), Fraction(rng.randint(1, 12), rng.randint(2, 12)))
               for n in _log_uniform(rng, 3, 4, 10)]


def _long_orbit_run(mp, inp):
    n, alpha = inp
    recipe = json.loads(_cli(mp, ["synth", str(n), "--json"]))
    state = mp.orbit.parse_state(",".join(recipe["state"]))
    scaled = mp.orbit.format_state(mp.orbit.scale(state, alpha))
    cert = mp.detect.PeriodCertificate.from_json(_cli(mp, ["period", scaled, "--json"]))
    return recipe, cert, mp.detect.verify_certificate(cert)


def _long_orbit_check(inp, out):
    n, alpha = inp
    recipe, cert, verified = out
    if not (verified is True and recipe["predicted"] == n and recipe["verified"] is True):
        return False
    window = tuple(Fraction(v) * alpha for v in recipe["state"])
    ints, L = ref.to_ints(window)
    if cert.initial != window or cert.period != n or ref.first_return(ints, n) != n:
        return False
    cycle = ref.values(ints, n)
    return (
        [c * L for c in cert.cycle] == cycle
        and cert.max_value * L == max(cycle)
        and cert.rotation == ref.least_rotation(cycle)
    )


# survey -------------------------------------------------------------------

SURVEY_K = 6
SURVEY_SAMPLES = 10


#: Quintiles of an item's work, the sum of its ten sample periods, over
#: 500 seeded items.  The work spreads widely (coefficient of variation
#: 0.56), so each block takes one survey seed from every quintile.
SURVEY_WORK_QUINTILES = (9155, 14608, 19748, 27057)


def _survey_blocks(rng, mp):
    """Survey seeds with their reference periods, one per work quintile.

    Seeds are drawn in order; one whose quintile the current block already
    has is held for a later block, so no draw is wasted.
    """
    held = [[] for _ in range(len(SURVEY_WORK_QUINTILES) + 1)]
    while True:
        while not all(held):
            seed = rng.getrandbits(32)
            periods = ref.survey_periods(SURVEY_K, SURVEY_SAMPLES, seed)
            work = sum(p or 0 for _, p in periods)
            held[bisect.bisect(SURVEY_WORK_QUINTILES, work)].append((seed, periods))
        block = [h.pop(0) for h in held]
        rng.shuffle(block)
        yield block


def _survey_run(mp, inp):
    report = mp.survey.run_survey(
        mp.survey.SurveyConfig(k=SURVEY_K, samples=SURVEY_SAMPLES, seed=inp[0])
    )
    return report, report.violations, report.combination_violations


def _survey_check(inp, out):
    report, violations, combination = out
    histogram, exemplars = {}, {}
    for window, p in inp[1]:
        if p is None:
            return False
        histogram[p] = histogram.get(p, 0) + 1
        exemplars.setdefault(p, tuple(Fraction(v, 12) for v in window))
    # Periods outside the conjectured form are findings, not failures;
    # they only have to match the reference grading.
    return (
        report.not_closed == 0
        and report.histogram == histogram
        and report.exemplars == exemplars
        and violations == sorted(p for p in histogram if not ref.conjectured(SURVEY_K, p))
        and combination == sorted(p for p in histogram if not ref.combination(SURVEY_K, p))
    )


# route_trace --------------------------------------------------------------

def _route_blocks(rng, mp):
    """Every p in 1..20 once per block; the number of blocks traced grows with p + q."""
    while True:
        out = []
        for p in rng.sample(range(1, 21), 20):
            q = rng.randint(2 * p + 1, 2 * p + 79)
            while gcd(p, q) != 1:
                q = rng.randint(2 * p + 1, 2 * p + 79)
            x4 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            x2 = mp.synth.safe_gcd_route_x2(p, 0, x4, numerator=rng.randint(1, p))
            out.append((p, q, x4, x2))
        yield out


def _route_run(mp, inp):
    p, q, x4, x2 = inp
    recipe = mp.synth.build_gcd_route(p, q, 0, x4, x2, verify=False)
    return recipe, mp.cases.trace_cycle(recipe.state)


def _route_check(inp, out):
    p, q, x4, x2 = inp
    recipe, trace = out
    period = 10 * p + 11 * q
    ints, _ = ref.to_ints(recipe.state)
    return (
        recipe.predicted == period
        and ref.first_return(ints, period) == period
        and trace.status.value == "closed"
        and trace.detected_period == period
        and trace.predicted == period
        and sum(length for _, length in trace.blocks) == period
        and len(trace.routes) == p
    )


# oracle -------------------------------------------------------------------

RANGE_WIDTH = 200


def _oracle_blocks(rng, mp):
    """Point and range queries alternating, five strata of each per block."""
    width = 20_000 // 5
    while True:
        points = [("point", n) for n in _log_uniform(rng, 4, 6, 5)]
        ranges = [("range", 1 + width * j + rng.randrange(width)) for j in range(5)]
        rng.shuffle(ranges)
        yield [item for pair in zip(points, ranges) for item in pair]


def _oracle_run(mp, inp):
    kind, n = inp
    if kind == "point":
        return mp.perset.contains(n), mp.perset.witness(n)
    return mp.perset.periods_in_range(n, n + RANGE_WIDTH - 1)


def _oracle_check(inp, out):
    kind, n = inp
    if kind == "range":
        return out == [m for m in range(n, n + RANGE_WIDTH) if ref.member(m)]
    member, w = out
    decs = ref.decompositions(n)
    # Every n above 1674 is a period, so a point query must find a witness.
    if not (member is True and decs and n > 1674):
        return False
    a, b = w.a, w.b
    return 10 * a + 11 * b == n and a >= 1 and b >= 2 * a + 1 and gcd(a, b) == 1 \
        and (a, b) == decs[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_orbit",
            "synth, rescale, period and verify through the CLI: the only workload "
            "that needs the whole certificate and re-checks it",
            _long_orbit_blocks, _long_orbit_run, _long_orbit_check, trace_items=40,
        ),
        Workload(
            "survey",
            "order-6 surveys of many short orbits whose certificates are thrown away; "
            "verification never runs",
            _survey_blocks, _survey_run, _survey_check, trace_items=40,
        ),
        Workload(
            "route_trace",
            "gcd-route constructions traced block by block: the only workload that "
            "drives classify and block_evolve",
            _route_blocks, _route_run, _route_check, trace_items=400,
        ),
        Workload(
            "oracle",
            "period-set point and range queries with no dynamics: the only workload "
            "where perset does the work",
            _oracle_blocks, _oracle_run, _oracle_check, trace_items=120,
        ),
    )
}
