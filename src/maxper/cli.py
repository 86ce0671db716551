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


def _add_handler(sub: argparse.ArgumentParser, func, csv: bool = False) -> None:
    """Give a subcommand its handler and the format flags that ``_emit`` reads."""
    sub.set_defaults(func=func)
    sub.add_argument("--json", action="store_true", help="emit JSON")
    if csv:
        sub.add_argument("--csv", action="store_true", help="emit CSV")


def _emit(args, doc, lines, csv=None) -> int:
    """Print the answer in the one format the flags ask for, and return 0.

    ``doc()`` is the ``--json`` document: a dict, printed with sorted keys,
    or JSON text, printed as it is.  ``lines()`` are the text lines and
    ``csv(out)`` writes the ``--csv`` table of a command that has one.  Only
    the function for the printed format is called, so nothing else is
    rendered.
    """
    if args.json:
        document = doc()
        print(document if isinstance(document, str) else json.dumps(document, sort_keys=True))
    elif csv and args.csv:
        csv(sys.stdout)
    else:
        print("\n".join(lines()))
    return 0


def _cmd_iterate(args) -> int:
    result = iterate(parse_state(args.state), args.n)
    return _emit(args, lambda: {"state": [str(v) for v in result]}, lambda: [format_state(result)])


def _cmd_period(args) -> int:
    state = parse_state(args.state)

    def doc():
        outcome = detect.detect_period(state, cap=args.cap)
        if isinstance(outcome, detect.NotClosed):
            return {"not_closed": outcome.steps}
        return outcome.to_json()

    def lines():
        p = detect.period_of(state, cap=args.cap)
        return [f"not_closed={args.cap}" if p is None else f"period={p}"]

    return _emit(args, doc, lines)


def _cmd_classify(args) -> int:
    cls = cases.classify(parse_state(args.state))
    return _emit(
        args,
        lambda: {"labels": sorted(c.value for c in cls.labels), "unambiguous": cls.unambiguous},
        lambda: [f"labels={cls.describe()}", f"unambiguous={str(cls.unambiguous).lower()}"],
    )


def _trace_lines(trace: cases.RouteTrace):
    yield f"status={trace.status}"
    yield "blocks=" + ",".join(f"{c}/{n}" for c, n in trace.blocks)
    if trace.routes:
        yield "routes=" + ",".join(
            f"R{r.kind}(m={r.loops_c1},n={r.loops_c3})" for r in trace.routes
        )
    yield (
        f"A1={trace.a1} A2={trace.a2} A3={trace.a3} A4={trace.a4} "
        f"H={trace.h} A={trace.a} B={trace.b}"
    )
    yield f"predicted={trace.predicted}"
    if trace.detected_period is not None:
        yield f"detected={trace.detected_period}"


def _cmd_trace(args) -> int:
    trace = cases.trace_cycle(parse_state(args.state), max_blocks=args.max_blocks, cap=args.cap)
    return _emit(args, trace.to_json, lambda: _trace_lines(trace))


def _cmd_perset(args) -> int:
    if args.query == "contains":
        w = perset.witness(args.n)
        doc = {"n": args.n, "member": w is not None}
        lines = [str(w is not None).lower()]
        if isinstance(w, perset.Decomposition):
            doc["witness"] = {"a": w.a, "b": w.b}
            lines.append(f"witness=10*{w.a}+11*{w.b}")
        elif w is not None:
            doc["witness"] = {"special": w}
            lines.append(f"witness=special:{w}")
        return _emit(args, lambda: doc, lambda: lines)
    if args.query == "decomp":
        decs = perset.admissible_decompositions(args.n)
        return _emit(
            args,
            lambda: {"n": args.n, "decompositions": [{"a": d.a, "b": d.b} for d in decs]},
            lambda: [f"a={d.a} b={d.b}" for d in decs] or ["none"],
        )
    if args.query == "range":
        lo, hi = args.lo, args.hi
        return _emit(
            args,
            # The one document printed with its keys in this order, not sorted.
            lambda: json.dumps({"lo": lo, "hi": hi, "members": perset.periods_in_range(lo, hi)}),
            lambda: [",".join(map(str, perset.periods_in_range(lo, hi)))],
            csv=lambda out: perset.write_members_csv(lo, hi, out),
        )
    report = perset.gap_scan(args.limit)
    return _emit(
        args,
        report.to_json,
        lambda: [
            f"max_nonperiod={report.overall_max}",
            *(f"N{m}={report.class_maxima.get(m, 0)}" for m in range(1, 11)),
            f"N11={report.eleven_max}",
            f"count={len(report.non_members)}",
        ],
    )


def _cmd_synth(args) -> int:
    recipe = synth.synthesize(args.n)
    return _emit(
        args,
        recipe.to_json,
        lambda: [
            f"tag={recipe.tag}",
            f"state={format_state(recipe.state)}",
            f"predicted={recipe.predicted}",
            f"verified={str(recipe.verified).lower()}",
        ],
    )


def _survey_lines(args, report: survey.SurveyReport):
    yield f"k={args.k} samples={args.samples} seed={args.seed}"
    yield f"distinct_periods={len(report.histogram)}"
    yield f"not_closed={report.not_closed}"
    viol = report.violations
    yield f"conjecture_violations={len(viol)}"
    if viol:
        yield "violating_periods=" + ",".join(str(p) for p in viol)
    yield f"combination_violations={len(report.combination_violations)}"


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
    return _emit(
        args,
        report.to_json,
        lambda: _survey_lines(args, report),
        csv=lambda out: print("\n".join(report.csv_rows()), file=out),
    )


def _cmd_golomb(args) -> int:
    ok = survey.golomb_check(args.k, args.trials, seed=args.seed)
    expected = 3 * args.k - 1
    return _emit(
        args,
        lambda: {"k": args.k, "trials": args.trials, "expected_period": expected, "ok": ok},
        lambda: [f"expected_period={expected}", f"ok={str(ok).lower()}"],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxper",
        description="Exact periods of x[n+k] = max(x[n+k-1], ..., x[n+1], 0) - x[n].",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("iterate", help="advance a window n steps (negative: backward)")
    p.add_argument("state", help='comma-separated window, e.g. "8,2,1,5" or "3/2,1/2,0,1"')
    p.add_argument("--n", type=int, required=True)
    _add_handler(p, _cmd_iterate)

    p = subs.add_parser("period", help="first-return period with certificate")
    p.add_argument("state")
    p.add_argument("--cap", type=int, default=detect.DEFAULT_CAP)
    _add_handler(p, _cmd_period)

    p = subs.add_parser("classify", help="case labels of an order-4 window")
    p.add_argument("state")
    _add_handler(p, _cmd_classify)

    p = subs.add_parser("trace", help="block-evolution trace through the case graph")
    p.add_argument("state")
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--cap", type=int, default=detect.DEFAULT_CAP)
    _add_handler(p, _cmd_trace)

    p = subs.add_parser("perset", help="period-set oracle queries")
    q = p.add_subparsers(dest="query", required=True)
    c = q.add_parser("contains", help="is n a period?")
    c.add_argument("n", type=int)
    _add_handler(c, _cmd_perset)
    c = q.add_parser("decomp", help="admissible decompositions of n")
    c.add_argument("n", type=int)
    _add_handler(c, _cmd_perset)
    c = q.add_parser("range", help="members in [lo, hi]")
    c.add_argument("lo", type=int)
    c.add_argument("hi", type=int)
    _add_handler(c, _cmd_perset, csv=True)
    c = q.add_parser("gaps", help="non-periods up to a limit, with class maxima")
    c.add_argument("--limit", type=int, default=4000)
    _add_handler(c, _cmd_perset)

    p = subs.add_parser("synth", help="construct a window of period n")
    p.add_argument("n", type=int)
    _add_handler(p, _cmd_synth)

    p = subs.add_parser("survey", help="seeded random period survey for order k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator", type=int, default=12)
    p.add_argument("--max-numerator", type=int, default=12)
    p.add_argument("--cap", type=int, default=detect.DEFAULT_CAP)
    _add_handler(p, _cmd_survey, csv=True)

    p = subs.add_parser("golomb", help="check monotone windows close at period 3k-1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_handler(p, _cmd_golomb)

    return parser


# parse_args leaves the parser unchanged, so in-process callers that run
# main many times (tests, notebooks, benchmarks) can share one.
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
