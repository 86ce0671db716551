"""Exact-arithmetic laboratory for the max-minus difference equation

    x[n+k] = max(x[n+k-1], x[n+k-2], ..., x[n+1], 0) - x[n].

The package provides the exact forward/backward dynamics over rational
windows, first-return period detection with independently checkable
certificates, the order-4 case-graph analysis that predicts periods from
10/11-step blocks, the closed-form period-set oracle with its extremal
gap 1674, constructors realizing any admissible period, and randomized
surveys for higher orders.
"""

from .detect import (
    DEFAULT_CAP,
    NotClosed,
    PeriodCertificate,
    detect_period,
    first_violation,
    least_rotation_index,
    match_eight_template,
    period_of,
    verify_certificate,
)
from .cases import (
    CASE_GRAPH,
    Case,
    Classification,
    Route,
    RouteTrace,
    TraceStatus,
    block_evolve,
    classify,
    normalize_to_max,
    trace_cycle,
)
from .errors import (
    DegenerateCycle,
    DomainError,
    LabelMismatch,
    NotAPeriod,
    PreconditionViolated,
)
from .orbit import (
    State,
    as_rational,
    clear_denominators,
    format_state,
    iterate,
    make_state,
    orbit_values,
    parse_rational,
    parse_state,
    scale,
    step,
    step_back,
)
from .perset import (
    Decomposition,
    GapReport,
    MAX_NON_PERIOD,
    SPECIAL_PERIODS,
    admissible_decompositions,
    check_eleven_rule,
    check_prime_rule,
    contains,
    gap_scan,
    periods_in_range,
    residue_class,
    witness,
    write_members_csv,
)
from .survey import (
    SurveyConfig,
    SurveyReport,
    combination_member,
    conjecture_member,
    conjecture_witness,
    golomb_check,
    run_survey,
)
from .synth import (
    Constructor,
    SynthesisRecipe,
    build_controversial1,
    build_controversial2,
    build_gcd_route,
    build_general_k,
    safe_gcd_route_x2,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
