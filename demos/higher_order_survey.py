#!/usr/bin/env python3
"""Survey the period sets of orders 5 and 6, where no closed description is known.

Windows with denominator 12 and numerators up to 12 are sampled, their
periods detected exactly, and each period graded against two candidate
descriptions built from 3k-2 and 3k-1 (13/14 at order 5, 16/17 at 6):

  * the plain combination form  (3k-2)a + (3k-1)b, a, b >= 0, plus the
    special values {1, 2 for odd k, 2k, 3k-1};
  * the same with gcd(a, b) = 1 forced.

The sampler refutes the coprime refinement outright: order 5 realizes
54 = 13*2 + 14*2, whose only representation has gcd 2.  The unrestricted
combination form fits every period these samples produce, but that holds
of the samples only: the order-6 window 0,0,1,1,0,0 has period 4, outside it.
"""

from maxper import SurveyConfig, conjecture_witness, golomb_check, run_survey

for k in (5, 6):
    report = run_survey(SurveyConfig(k=k, samples=500, seed=20250809))
    print(f"== order k={k}: 500 samples, denominator 12 ==")
    print(f"distinct periods        : {len(report.histogram)}")
    print(f"orbits left open        : {report.not_closed}")
    print(f"combination-form misses : {len(report.combination_violations)}")
    strict = report.violations
    print(f"coprime-form misses     : {len(strict)}")
    for p in strict[:5]:
        print(f"    period {p:>4} from window ({', '.join(map(str, report.exemplars[p]))})")
    smallest = sorted(report.histogram)[:10]
    print(f"smallest periods        : {smallest}")
    print(f"sample witness for {smallest[-1]}: {conjecture_witness(k, smallest[-1])}")
    print()

print("== monotone windows always close at period 3k - 1 ==")
for k in range(2, 8):
    ok = golomb_check(k, trials=50, seed=7)
    print(f"  k={k}: expected {3 * k - 1}, all trials agree: {ok}")
