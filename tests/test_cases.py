import math
from fractions import Fraction

import pytest

from maxper import (
    CASE_GRAPH,
    Case,
    DegenerateCycle,
    LabelMismatch,
    PeriodCertificate,
    PreconditionViolated,
    TraceStatus,
    block_evolve,
    classify,
    detect_period,
    iterate,
    normalize_to_max,
    parse_state,
    period_of,
    trace_cycle,
)
from maxper.perset import Decomposition

F = Fraction


def S(text):
    return parse_state(text)


def labels(text):
    return {c.value for c in classify(S(text)).labels}


class TestClassify:
    def test_condition_u_examples(self):
        assert labels("8,2,1,5") == {"C4"}
        assert labels("8,1,5,2") == {"C2"}
        assert labels("4,3,2,1") == {"monotone"}

    def test_tie_between_c2_and_c3(self):
        assert labels("5,1,3,2") == {"C2", "C3"}

    def test_monotone_overlaps_c1_when_inner_tie(self):
        assert labels("4,3,2,2") == {"monotone", "C1"}

    def test_zero_window_matches_everything(self):
        assert labels("0,0,0,0") == {"monotone", "C1", "C2", "C3", "C4", "C5"}

    def test_negative_entry_rejected(self):
        with pytest.raises(PreconditionViolated):
            classify(S("8,2,-1,5"))

    def test_head_must_be_weak_maximum(self):
        with pytest.raises(PreconditionViolated):
            classify(S("2,1,5,3"))

    def test_only_order_four(self):
        with pytest.raises(PreconditionViolated):
            classify(S("3,2,1"))


def random_admissible(rng):
    """Nonnegative window with maximal first entry, small denominators."""
    x1 = F(rng.randint(1, 24), rng.randint(1, 4))
    rest = tuple(x1 * F(rng.randint(0, 16), 16) for _ in range(3))
    return (x1,) + rest


class TestBlockEvolve:
    def test_c4_block(self):
        assert block_evolve(S("8,2,1,5"), Case.C4) == (S("8,1,4,5"), 11)

    def test_c2_block(self):
        assert block_evolve(S("8,1,5,2"), Case.C2) == (S("8,6,1,5"), 10)

    def test_c1_block_closes_43_cycle(self):
        assert block_evolve(S("8,6,1,5"), Case.C1) == (S("8,2,1,5"), 11)

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatch):
            block_evolve(S("8,2,1,5"), Case.C2)

    def test_monotone_not_a_block(self):
        with pytest.raises(LabelMismatch):
            block_evolve(S("4,3,2,1"), Case.MONOTONE)

    def test_closed_form_matches_iteration(self, rng):
        # the block images must agree with honest stepping, case by case
        checked = {c: 0 for c in Case if c is not Case.MONOTONE}
        for _ in range(2500):
            s = random_admissible(rng)
            for case in classify(s).labels:
                if case is Case.MONOTONE:
                    continue
                image, length = block_evolve(s, case)
                assert image == iterate(s, length), (s, case)
                checked[case] += 1
        assert all(n > 100 for n in checked.values()), checked


class TestTrace:
    def test_forty_three_cycle_route(self):
        t = trace_cycle(S("8,2,1,5"))
        assert t.status is TraceStatus.CLOSED
        assert [(c.value, n) for c, n in t.blocks] == [
            ("C4", 11), ("C5", 11), ("C2", 10), ("C1", 11)
        ]
        assert len(t.routes) == 1
        assert t.routes[0].kind == 1 and t.routes[0].loops_c1 == 0
        assert (t.a1, t.a2, t.a3, t.a4, t.h) == (1, 0, 0, 0, 0)
        assert t.predicted == 43 == t.detected_period

    def test_gcd_route_state(self):
        t = trace_cycle(S("2,1/2,0,1"))
        assert t.status is TraceStatus.CLOSED
        assert t.predicted == 43

    def test_mid_block_closure_is_controversial(self):
        t = trace_cycle(S("1,0,1,1/2"))
        assert t.status is TraceStatus.CONTROVERSIAL
        assert t.detected_period == 8

    def test_boundary_closure_with_blind_detector_stays_honest(self):
        # cap too small for the detector to see period 8; the blocks still
        # revisit the start window after 32 steps, which must not be
        # mistaken for the period
        t = trace_cycle(S("1,0,1,1/2"), max_blocks=8, cap=5)
        assert t.status is TraceStatus.CONTROVERSIAL
        assert t.detected_period == 8

    def test_ambiguous_start_refused(self):
        with pytest.raises(PreconditionViolated):
            trace_cycle(S("5,1,3,2"))

    @pytest.mark.parametrize("max_blocks", [0, -3])
    def test_non_positive_max_blocks_refused(self, max_blocks):
        with pytest.raises(ValueError, match="max_blocks"):
            trace_cycle(S("8,2,1,5"), max_blocks=max_blocks)

    def test_one_block_budget_is_honoured(self):
        t = trace_cycle(S("8,2,1,5"), max_blocks=1)
        assert t.status is TraceStatus.CAP_EXHAUSTED
        assert len(t.blocks) == 1 and t.detected_period == 43

    def test_monotone_start_closes_in_one_block(self):
        t = trace_cycle(S("4,3,2,1"))
        assert t.status is TraceStatus.CLOSED
        assert t.blocks == ((Case.MONOTONE, 11),)
        assert t.predicted == 11
        assert t.routes == ()

    def test_ambiguity_mid_trace_is_reported(self):
        # second boundary value lands exactly on the window's fourth entry
        t = trace_cycle(S("3/2,1/2,0,1"))
        assert t.status is TraceStatus.AMBIGUITY
        assert t.detected_period == 75  # the orbit itself is fine

    def test_closed_trace_transitions_follow_graph(self, rng):
        seen = 0
        for _ in range(200):
            p = rng.randint(1, 9)
            q = rng.randint(2 * p + 1, 2 * p + 40)
            if math.gcd(p, q) != 1:
                continue
            x4 = F(rng.randint(1, 6), rng.randint(1, 3))
            x3 = F(rng.randint(0, 3), 3) * x4 if rng.random() < 0.5 else F(0)
            if x3 >= x4:
                continue
            x2 = x3 + (x4 - x3) * F(rng.randint(1, 11), 12)
            x1 = F(q - p, p) * (x4 - x3)
            if x1 < x4:
                continue
            try:
                t = trace_cycle((x1, x2, x3, x4))
            except PreconditionViolated:
                continue
            if t.status is not TraceStatus.CLOSED:
                continue
            seen += 1
            cases = [c for c, _ in t.blocks]
            for a, b in zip(cases, cases[1:] + cases[:1]):
                assert b in CASE_GRAPH[a], (a, b, t.blocks)
            # ten-blocks are exactly the C2 blocks
            for c, n in t.blocks:
                assert (n == 10) == (c is Case.C2)
        assert seen > 60

    def test_closed_route_traces_satisfy_tally_identities(self, rng):
        # B = 3*A1 + 2*A2 + 4*A3 + 3*A4 + H, B >= 2A + 1, and coprime
        # (A, B) is an admissible decomposition of the predicted period
        seen = 0
        for _ in range(300):
            p = rng.randint(1, 12)
            q = rng.randint(2 * p + 1, 2 * p + 60)
            if math.gcd(p, q) != 1:
                continue
            x4 = F(rng.randint(1, 9), rng.randint(1, 4))
            x2 = x4 * F(rng.randint(1, p), p + 1)
            x1 = F(q - p, p) * x4
            t = trace_cycle((x1, x2, F(0), x4))
            assert t.status is TraceStatus.CLOSED
            seen += 1
            assert t.routes
            assert t.a == t.a1 + t.a2 + t.a3 + t.a4 == len(t.routes) == p
            assert t.b == 3 * t.a1 + 2 * t.a2 + 4 * t.a3 + 3 * t.a4 + t.h == q
            assert t.b >= 2 * t.a + 1
            assert t.predicted == sum(n for _, n in t.blocks) == t.detected_period
            if math.gcd(t.a, t.b) == 1:
                assert Decomposition(t.a, t.b).admissible
        assert seen > 150


class TestConditionU:
    # Condition U: the trace closes at a block boundary, every boundary
    # unambiguous.  An ambiguous start is refused before any block.
    def test_examples(self):
        assert trace_cycle(S("8,2,1,5")).status is TraceStatus.CLOSED
        with pytest.raises(PreconditionViolated):
            trace_cycle(S("5,1,3,2"))
        assert trace_cycle(S("1,0,1,1/2")).status is TraceStatus.CONTROVERSIAL  # mid-block

    def test_prediction_matches_detection_when_u_holds(self, rng):
        for _ in range(60):
            p = rng.randint(1, 10)
            q = rng.randint(2 * p + 1, 2 * p + 30)
            if math.gcd(p, q) != 1:
                continue
            x4 = F(rng.randint(1, 8), rng.randint(1, 3))
            x2 = x4 * F(rng.randint(1, p), p + 1)
            s = (F(q - p, p) * x4, x2, F(0), x4)
            trace = trace_cycle(s)
            if trace.status is TraceStatus.CLOSED:
                assert trace.predicted == period_of(s)

    def test_closed_traces_never_mispredict(self, rng):
        # arbitrary admissible nonneg windows, not just route constructions:
        # whenever the trace closes, the block account equals the detector
        closed = 0
        for _ in range(400):
            s = random_admissible(rng)
            cls = classify(s)
            if not cls.unambiguous:
                continue
            t = trace_cycle(s)
            if t.status is TraceStatus.CLOSED:
                closed += 1
                assert t.predicted == t.detected_period == period_of(s)
        assert closed > 30


class TestLoopExit:
    def test_c1_loops_eventually_exit(self, rng):
        # x2 drops by x4 - x3 per block, so the C1 inequalities fail
        # within ceil((x2 - x4) / (x4 - x3)) + 1 blocks
        for _ in range(200):
            x1 = F(rng.randint(2, 40), rng.randint(1, 3))
            x3 = x1 * F(rng.randint(0, 10), 16)
            x4 = x3 + (x1 - x3) * F(rng.randint(1, 6), 16)
            x2 = x4 + (x1 - x4) * F(rng.randint(0, 16), 16)
            s = (x1, x2, x3, x4)
            if not (x1 >= x2 >= x4 > x3):
                continue
            bound = math.ceil((x2 - x4) / (x4 - x3)) + 1
            w = s
            for i in range(bound + 1):
                x = w
                if not (x[0] >= x[1] >= x[3] >= x[2]):
                    break
                w, _ = block_evolve(w, Case.C1)
            else:
                pytest.fail(f"{s} stayed in C1 past {bound} blocks")
            assert i <= bound


class TestNormalizeToMax:
    def test_rotates_back_to_max(self):
        c = detect_period(S("2,1,5,-3"))
        assert isinstance(c, PeriodCertificate)
        assert normalize_to_max(c) == S("8,2,1,5")

    def test_zero_cycle_degenerate(self):
        c = detect_period(S("0,0,0,0"))
        with pytest.raises(DegenerateCycle):
            normalize_to_max(c)

    def test_eight_cycle_window_starts_at_max(self):
        c = detect_period(S("1,0,1,1/2"))
        w = normalize_to_max(c)
        assert w[0] == 1 == c.max_value

    def test_result_always_classifiable(self, rng):
        from conftest import rand_state

        for _ in range(40):
            c = detect_period(rand_state(rng, 4))
            assert isinstance(c, PeriodCertificate)
            if c.max_value == 0:
                continue
            w = normalize_to_max(c)
            assert classify(w).labels  # precondition satisfied, no raise

    def test_identity_when_head_is_max(self):
        c = detect_period(S("8,2,1,5"))
        assert normalize_to_max(c) == S("8,2,1,5")

    @pytest.mark.parametrize(
        "period,cycle,max_value",
        [
            (0, ["1"], "1"),  # no period to rotate modulo
            (3, ["1", "0"], "1"),  # fewer cycle terms than the period
            (2, ["1", "0"], "2"),  # the maximum is not a cycle term
            (2, ["1", "2"], "1"),  # a cycle term exceeds the maximum
        ],
    )
    def test_malformed_certificate_is_refused(self, period, cycle, max_value):
        doc = {"k": 4, "initial": ["1", "0", "1", "0"], "period": period,
               "cycle": cycle, "max": max_value, "rotation": 0}
        with pytest.raises(DegenerateCycle, match="malformed"):
            normalize_to_max(PeriodCertificate.from_json(doc))
