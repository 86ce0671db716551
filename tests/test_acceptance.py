"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with output visible:

    pytest -s -v tests/test_acceptance.py

Criterion 8 asserts the verified refutation of the coprime form at
orders 5 and 6: the exact simulator finds honest periods (54 = 13*2 + 14*2
is the smallest at order 5, 99 = 16*3 + 17*3 at order 6) whose every
representation (3k-2)a + (3k-1)b has gcd(a, b) > 1.  Each such period is
re-certified and its representations are enumerated here, independently
of the survey's own grading.  The unrestricted linear-combination form
survives: it has zero violations on the same samples.  See README.

Each criterion also records its verdict and elapsed seconds, and
criterion 8 its smallest coprime violation per order, as properties of
its test case in the JUnit XML; CI checks that record after tier-1.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from maxper import (
    PeriodCertificate,
    SurveyConfig,
    build_gcd_route,
    contains,
    check_eleven_rule,
    check_prime_rule,
    detect_period,
    gap_scan,
    match_eight_template,
    parse_state,
    period_of,
    periods_in_range,
    run_survey,
    safe_gcd_route_x2,
    scale,
    step,
    step_back,
    synthesize,
    trace_cycle,
    verify_certificate,
)
from maxper.cases import TraceStatus

F = Fraction
SEED = 20250809


@pytest.fixture
def report(record_property):
    """Print a criterion's PASS/FAIL line and record its verdict and time
    as properties of its test case in the JUnit XML."""

    def report(num: int, ok: bool, detail: str, elapsed: float) -> None:
        verdict = "PASS" if ok else "FAIL"
        record_property("verdict", verdict)
        record_property("elapsed_s", f"{elapsed:.3f}")
        print(f"criterion {num}: {verdict} ({elapsed:.2f}s) {detail}")

    return report


def test_criterion_1_period_table(report):
    t0 = time.perf_counter()
    first = periods_in_range(1, 100)
    second = periods_in_range(101, 200)
    excluded_401_500 = sorted(set(range(401, 501)) - set(periods_in_range(401, 500)))
    ok = (
        first == [1, 8, 11, 43, 54, 65, 75, 76, 87, 97, 98]
        and second
        == [107, 109, 118, 119, 120, 131, 139, 140, 141, 142, 151, 153,
            161, 163, 164, 171, 173, 175, 182, 183, 184, 185, 186, 193, 197]
        # 489 is included here: its only candidate pairs (6,39), (17,29),
        # (28,19), (39,9) all fail gcd or the b >= 2a+1 bound.
        and excluded_401_500
        == [408, 410, 412, 414, 416, 420, 423, 426, 430, 432, 434, 435, 436,
            452, 453, 454, 455, 456, 458, 473, 474, 476, 478, 480, 485, 486,
            489, 490, 492, 496, 498, 500]
    )
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, f"rows [1,100], [101,200], [401,500] exact", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_extremal_gap(report):
    t0 = time.perf_counter()
    rep = gap_scan(4000)
    expected_maxima = {1: 32, 2: 1560, 3: 1350, 4: 1140, 5: 1260,
                       6: 918, 7: 840, 8: 1026, 9: 1674, 10: 1332}
    ok = (
        rep.overall_max == 1674
        and rep.class_maxima == expected_maxima
        and rep.eleven_max == 1320
        and rep.stabilized
    )
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 5.0,
           f"max_nonperiod={rep.overall_max}, class maxima and N11 exact", elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_3_exact_dynamics(report):
    t0 = time.perf_counter()
    results = {
        "8,2,1,5": period_of(parse_state("8,2,1,5")),
        "0,0,0,0": period_of(parse_state("0,0,0,0")),
        "4,3,2,1": period_of(parse_state("4,3,2,1")),
        "1,0,1,1/3": period_of(parse_state("1,0,1,1/3")),
    }
    ok = results == {"8,2,1,5": 43, "0,0,0,0": 1, "4,3,2,1": 11, "1,0,1,1/3": 8}
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 1.0, f"periods {tuple(results.values())}", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_4_synthesis_round_trip(report):
    t0 = time.perf_counter()
    targets = periods_in_range(12, 1000)
    failures = []
    for n in targets:
        recipe = synthesize(n, verify=False)
        got = period_of(recipe.state, cap=n + 1)
        if got != n:
            failures.append((n, got))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(4, ok, f"{len(targets)} targets in [12,1000], {len(failures)} failures", elapsed)
    assert failures == []
    assert elapsed < 60.0


def test_criterion_5_route_prediction_soundness(report):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    failures = []
    count = 0
    while count < 1000:
        p = rng.randint(1, 20)
        q = rng.randint(2 * p + 1, 2 * p + 79)
        if math.gcd(p, q) != 1:
            continue
        count += 1
        x4 = F(rng.randint(1, 9), rng.randint(1, 9))
        x2 = safe_gcd_route_x2(p, 0, x4, numerator=rng.randint(1, p))
        recipe = build_gcd_route(p, q, 0, x4, x2, verify=False)
        detected = period_of(recipe.state, cap=recipe.predicted + 1)
        trace = trace_cycle(recipe.state)
        if not (
            trace.status is TraceStatus.CLOSED
            and detected == recipe.predicted == 10 * p + 11 * q
            and trace.predicted == detected
            and len(trace.routes) == p
        ):
            failures.append((p, q, detected, trace.status))
    elapsed = time.perf_counter() - t0
    report(5, not failures, f"1000 constructions, {len(failures)} failures", elapsed)
    assert failures == []


def test_criterion_6_prime_and_eleven_rules(report):
    t0 = time.perf_counter()
    prime_violations = check_prime_rule(2000)
    eleven_violations = check_eleven_rule(200)
    spot = (
        not contains(11 * 43)
        and not contains(11 * 54)
        and not contains(11 * 76)
        and not contains(11 * 120)
        and not contains(121)
        and not contains(242)
    )
    ok = prime_violations == [] and eleven_violations == [] and spot
    elapsed = time.perf_counter() - t0
    report(6, ok, "prime rule to 2000, eleven rule to q=200, exceptions exact", elapsed)
    assert prime_violations == []
    assert eleven_violations == []
    assert spot


def test_criterion_7_property_suites(report):
    t0 = time.perf_counter()
    rng = random.Random(SEED)

    # bijectivity on 10^4 windows of mixed sign and order
    bad_bijection = 0
    for _ in range(10_000):
        k = rng.choice((4, 4, 4, 5, 6))
        s = tuple(F(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(k))
        if step_back(step(s)) != s or step(step_back(s)) != s:
            bad_bijection += 1

    # scaling invariance of detected periods on 10^3 pairs
    bad_scaling = 0
    eight_cycles = []
    for _ in range(1000):
        s = tuple(F(rng.randint(0, 18), 12) for _ in range(4))
        alpha = F(rng.randint(1, 36), rng.randint(1, 36))
        a = detect_period(s)
        b = detect_period(scale(s, alpha))
        if not (
            isinstance(a, PeriodCertificate)
            and isinstance(b, PeriodCertificate)
            and a.period == b.period
        ):
            bad_scaling += 1
            continue
        if a.period == 8:
            eight_cycles.append(a)

    # every detected 8-cycle matches the two-parameter template
    for _ in range(200):
        x = F(rng.randint(1, 24), rng.randint(1, 6))
        alpha = x * F(rng.randint(0, 12), 12)
        c = detect_period((x, F(0), x, alpha))
        assert isinstance(c, PeriodCertificate) and c.period == 8
        eight_cycles.append(c)
    bad_template = sum(1 for c in eight_cycles if match_eight_template(c) is None)

    # every detected order-4 period is accepted by the closed-form oracle
    bad_oracle = 0
    for _ in range(1000):
        s = tuple(F(rng.randint(-12, 24), 12) for _ in range(4))
        c = detect_period(s)
        if not (isinstance(c, PeriodCertificate) and contains(c.period)):
            bad_oracle += 1

    elapsed = time.perf_counter() - t0
    ok = bad_bijection == bad_scaling == bad_template == bad_oracle == 0
    report(
        7,
        ok,
        f"bijectivity 10^4, scaling 10^3, {len(eight_cycles)} eight-cycles, "
        f"oracle acceptance 10^3; counterexamples "
        f"{bad_bijection}/{bad_scaling}/{bad_template}/{bad_oracle}",
        elapsed,
    )
    assert bad_bijection == 0
    assert bad_scaling == 0
    assert bad_template == 0
    assert bad_oracle == 0


def test_criterion_8_conjecture_survey(report, record_property):
    """The survey refutes the coprime form and leaves the unrestricted form
    standing: at k = 5 and 6 it finds coprime violations, starting with the
    documented witnesses 54 and 99, each of which re-verifies as an honest
    period, is not a special value, and has only representations
    (3k-2)a + (3k-1)b with gcd(a, b) > 1; no period violates the
    unrestricted combination form."""
    t0 = time.perf_counter()
    details = []
    failures = []
    smallest = {5: 54, 6: 99}
    for k in (5, 6):
        rep = run_survey(
            SurveyConfig(k=k, samples=500, numerator_bound=12, denominator=12,
                         seed=SEED, cap=10**6)
        )
        strict = rep.violations
        combo = rep.combination_violations
        exemplars = {p: rep.exemplars[p] for p in strict[:4]}
        details.append(
            f"k={k}: not_closed={rep.not_closed}, "
            f"combination_violations={len(combo)}, "
            f"coprime_violations={len(strict)} {strict[:8]}"
            + (f" exemplars {exemplars}" if strict else "")
        )
        if rep.not_closed:
            failures.append((k, "not closed", rep.not_closed))
        if combo:
            failures.append((k, "combination form violated", combo))
        record_property(f"smallest_coprime_violation_k{k}", strict[0] if strict else "none")
        if strict[:1] != [smallest[k]]:
            failures.append((k, "smallest coprime violation", strict[:1]))

        u, v = 3 * k - 2, 3 * k - 1
        special = {1, (3 - (-1) ** k) // 2, 2 * k, 3 * k - 1}
        for p in strict:
            cert = detect_period(rep.exemplars[p])
            if not (isinstance(cert, PeriodCertificate) and cert.period == p
                    and verify_certificate(cert)):
                failures.append((k, p, "certificate"))
            if p in special:
                failures.append((k, p, "special value"))
            pairs = [(a, (p - u * a) // v) for a in range(p // u + 1)
                     if (p - u * a) % v == 0]
            if not pairs or any(math.gcd(a, b) == 1 for a, b in pairs):
                failures.append((k, p, "representations", pairs))
    elapsed = time.perf_counter() - t0
    report(8, not failures and elapsed < 300.0,
           "; ".join(details) + f"; {len(failures)} failures", elapsed)
    assert failures == []
    assert elapsed < 300.0
