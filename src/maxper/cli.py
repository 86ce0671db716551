"""Command-line front end.

Exit codes: 0 on success (including negative answers like a false
membership query), 1 on domain errors (precondition violations, targets
that are not periods), 2 on malformed input.

Output is deterministic for fixed arguments and seed; ``--json`` emits a
machine-readable document, ``--csv`` a table where one is defined.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import cases, detect, perset, survey, synth
from .errors import DomainError
from .orbit import format_state, iterate, parse_state


def _add_format_flags(sub: argparse.ArgumentParser, csv: bool = False) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON")
    if csv:
        sub.add_argument("--csv", action="store_true", help="emit CSV")


def _cmd_iterate(args) -> int:
    state = parse_state(args.state)
    result = iterate(state, args.n)
    if args.json:
        print(json.dumps({"state": [str(v) for v in result]}, sort_keys=True))
    else:
        print(format_state(result))
    return 0


def _cmd_period(args) -> int:
    state = parse_state(args.state)
    outcome = detect.detect_period(state, cap=args.cap)
    if isinstance(outcome, detect.PeriodCertificate):
        if args.json:
            print(outcome.to_json_str())
        else:
            print(f"period={outcome.period}")
    else:
        if args.json:
            print(json.dumps({"not_closed": outcome.steps}, sort_keys=True))
        else:
            print(f"not_closed={outcome.steps}")
    return 0


def _cmd_classify(args) -> int:
    state = parse_state(args.state)
    cls = cases.classify(state)
    if args.json:
        print(
            json.dumps(
                {
                    "labels": sorted(c.value for c in cls.labels),
                    "unambiguous": cls.unambiguous,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"labels={cls.describe()}")
        print(f"unambiguous={str(cls.unambiguous).lower()}")
    return 0


def _cmd_trace(args) -> int:
    state = parse_state(args.state)
    trace = cases.trace_cycle(state, max_blocks=args.max_blocks, cap=args.cap)
    if args.json:
        print(trace.to_json_str())
        return 0
    print(f"status={trace.status}")
    print("blocks=" + ",".join(f"{c}/{n}" for c, n in trace.blocks))
    if trace.routes:
        print(
            "routes="
            + ",".join(
                f"R{r.kind}(m={r.loops_c1},n={r.loops_c3})" for r in trace.routes
            )
        )
    print(
        f"A1={trace.a1} A2={trace.a2} A3={trace.a3} A4={trace.a4} "
        f"H={trace.h} A={trace.a} B={trace.b}"
    )
    print(f"predicted={trace.predicted}")
    if trace.detected_period is not None:
        print(f"detected={trace.detected_period}")
    return 0


def _cmd_perset(args) -> int:
    if args.query == "contains":
        n = args.n
        member = perset.contains(n)
        w = perset.witness(n)
        if args.json:
            doc = {"n": n, "member": member}
            if isinstance(w, perset.Decomposition):
                doc["witness"] = {"a": w.a, "b": w.b}
            elif w is not None:
                doc["witness"] = {"special": w}
            print(json.dumps(doc, sort_keys=True))
        else:
            print(str(member).lower())
            if isinstance(w, perset.Decomposition):
                print(f"witness=10*{w.a}+11*{w.b}")
            elif w is not None:
                print(f"witness=special:{w}")
        return 0
    if args.query == "decomp":
        decs = perset.admissible_decompositions(args.n)
        if args.json:
            print(
                json.dumps(
                    {"n": args.n, "decompositions": [{"a": d.a, "b": d.b} for d in decs]},
                    sort_keys=True,
                )
            )
        else:
            if not decs:
                print("none")
            for d in decs:
                print(f"a={d.a} b={d.b}")
        return 0
    if args.query == "range":
        members = perset.periods_in_range(args.lo, args.hi)
        if args.json:
            print(json.dumps({"lo": args.lo, "hi": args.hi, "members": members}))
        elif args.csv:
            perset.write_members_csv(args.lo, args.hi, sys.stdout)
        else:
            print(",".join(str(n) for n in members))
        return 0
    # gaps
    report = perset.gap_scan(args.limit)
    if args.json:
        print(report.to_json_str())
    else:
        print(f"max_nonperiod={report.overall_max}")
        for m in range(1, 11):
            print(f"N{m}={report.class_maxima.get(m, 0)}")
        print(f"N11={report.eleven_max}")
        print(f"count={len(report.non_members)}")
    return 0


def _cmd_synth(args) -> int:
    recipe = synth.synthesize(args.n)
    if args.json:
        print(recipe.to_json_str())
    else:
        print(f"tag={recipe.tag}")
        print(f"state={format_state(recipe.state)}")
        print(f"predicted={recipe.predicted}")
        print(f"verified={str(recipe.verified).lower()}")
    return 0


def _cmd_survey(args) -> int:
    config = survey.SurveyConfig(
        k=args.k,
        samples=args.samples,
        numerator_bound=args.max_numerator,
        denominator=args.denominator,
        seed=args.seed,
        cap=args.cap,
    )
    report = survey.run_survey(config)
    if args.json:
        print(report.to_json_str())
    elif args.csv:
        print("\n".join(report.csv_rows()))
    else:
        print(f"k={args.k} samples={args.samples} seed={args.seed}")
        print(f"distinct_periods={len(report.histogram)}")
        print(f"not_closed={report.not_closed}")
        viol = report.violations
        print(f"conjecture_violations={len(viol)}")
        if viol:
            print("violating_periods=" + ",".join(str(p) for p in viol))
        print(f"combination_violations={len(report.combination_violations)}")
    return 0


def _cmd_golomb(args) -> int:
    ok = survey.golomb_check(args.k, args.trials, seed=args.seed)
    expected = 3 * args.k - 1
    if args.json:
        print(
            json.dumps(
                {"k": args.k, "trials": args.trials, "expected_period": expected, "ok": ok},
                sort_keys=True,
            )
        )
    else:
        print(f"expected_period={expected}")
        print(f"ok={str(ok).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxper",
        description="Exact periods of x[n+k] = max(x[n+k-1], ..., x[n+1], 0) - x[n].",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("iterate", help="advance a window n steps (negative: backward)")
    p.add_argument("state", help='comma-separated window, e.g. "8,2,1,5" or "3/2,1/2,0,1"')
    p.add_argument("--n", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_iterate)

    p = subs.add_parser("period", help="first-return period with certificate")
    p.add_argument("state")
    p.add_argument("--cap", type=int, default=detect.DEFAULT_CAP)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_period)

    p = subs.add_parser("classify", help="case labels of an order-4 window")
    p.add_argument("state")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("trace", help="block-evolution trace through the case graph")
    p.add_argument("state")
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--cap", type=int, default=detect.DEFAULT_CAP)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_trace)

    p = subs.add_parser("perset", help="period-set oracle queries")
    q = p.add_subparsers(dest="query", required=True)
    c = q.add_parser("contains", help="is n a period?")
    c.add_argument("n", type=int)
    _add_format_flags(c)
    c.set_defaults(func=_cmd_perset)
    c = q.add_parser("decomp", help="admissible decompositions of n")
    c.add_argument("n", type=int)
    _add_format_flags(c)
    c.set_defaults(func=_cmd_perset)
    c = q.add_parser("range", help="members in [lo, hi]")
    c.add_argument("lo", type=int)
    c.add_argument("hi", type=int)
    _add_format_flags(c, csv=True)
    c.set_defaults(func=_cmd_perset)
    c = q.add_parser("gaps", help="non-periods up to a limit, with class maxima")
    c.add_argument("--limit", type=int, default=4000)
    _add_format_flags(c)
    c.set_defaults(func=_cmd_perset)

    p = subs.add_parser("synth", help="construct a window of period n")
    p.add_argument("n", type=int)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("survey", help="seeded random period survey for order k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator", type=int, default=12)
    p.add_argument("--max-numerator", type=int, default=12)
    p.add_argument("--cap", type=int, default=detect.DEFAULT_CAP)
    _add_format_flags(p, csv=True)
    p.set_defaults(func=_cmd_survey)

    p = subs.add_parser("golomb", help="check monotone windows close at period 3k-1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_golomb)

    return parser


# parse_args leaves the parser unchanged, so in-process callers that run
# main many times (tests, notebooks, benchmarks) can share one.
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
