import math
import random
from fractions import Fraction

import pytest

from maxper import (
    PeriodCertificate,
    SurveyConfig,
    build_general_k,
    combination_member,
    conjecture_member,
    conjecture_witness,
    contains,
    detect_period,
    first_violation,
    golomb_check,
    parse_state,
    period_of,
    run_survey,
)
from maxper import survey

F = Fraction


class TestConjectureMember:
    def test_special_values_k5(self):
        assert conjecture_member(5, 14)  # 3k - 1
        assert conjecture_member(5, 2)   # odd k alternating cycle
        assert conjecture_member(5, 10)  # 2k
        assert conjecture_member(5, 1)

    def test_small_non_member(self):
        assert not conjecture_member(5, 3)
        assert conjecture_witness(5, 3) is None

    def test_combination_with_witness(self):
        assert conjecture_member(5, 41)
        assert conjecture_witness(5, 41) == (1, 2)  # 13 + 28

    def test_coprime_restriction_bites(self):
        # 54 = 13*2 + 14*2 is the only representation: outside the
        # conjectured set, inside the plain combination form
        assert not conjecture_member(5, 54)
        assert combination_member(5, 54)

    def test_order_four_oracle_is_contained_in_conjectured_set(self):
        for n in range(1, 400):
            if contains(n):
                assert conjecture_member(4, n)

    def test_order_guard(self):
        for grader in (conjecture_member, conjecture_witness, combination_member):
            for k in (1, 0, -3):
                with pytest.raises(ValueError, match="order k"):
                    grader(k, 5)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_graders_match_brute_force(self, k):
        u, v = 3 * k - 2, 3 * k - 1
        specials = {1, 1 if k % 2 == 0 else 2, 2 * k, 3 * k - 1}
        for n in range(1, 301):
            pairs = [
                (a, b)
                for a in range(n // u + 1)
                for b in range(n // v + 1)
                if u * a + v * b == n and (a, b) != (0, 0)
            ]
            coprime = [(a, b) for a, b in pairs if math.gcd(a, b) == 1]
            expected = n if n in specials else (coprime[0] if coprime else None)
            assert conjecture_witness(k, n) == expected, (k, n)
            assert conjecture_member(k, n) == (expected is not None), (k, n)
            assert combination_member(k, n) == (n in specials or bool(pairs)), (k, n)

    def test_unrestricted_form_misses_an_order_six_period(self):
        # The unrestricted form fits the sampled periods, not every period:
        # this window has period 4, which is neither a special value of
        # order 6 (1, 12, 17) nor a combination of 16 and 17.
        c = detect_period(parse_state("0,0,1,1,0,0"))
        assert isinstance(c, PeriodCertificate) and c.period == 4
        assert first_violation(c) is None
        assert not combination_member(6, 4)
        assert not conjecture_member(6, 4)


class TestRunSurvey:
    def test_reproducible_from_seed(self):
        cfg = SurveyConfig(k=5, samples=120, seed=7)
        assert run_survey(cfg).to_json() == run_survey(cfg).to_json()

    def test_different_seeds_differ(self):
        a = run_survey(SurveyConfig(k=5, samples=120, seed=7))
        b = run_survey(SurveyConfig(k=5, samples=120, seed=8))
        assert a.to_json() != b.to_json()

    def test_order_four_periods_all_in_oracle(self):
        report = run_survey(SurveyConfig(k=4, samples=150, seed=3))
        assert report.not_closed == 0
        assert report.violations == []
        for p in report.histogram:
            assert contains(p)

    def test_exemplars_back_histogram(self):
        report = run_survey(SurveyConfig(k=5, samples=80, seed=11))
        for p, state in report.exemplars.items():
            c = detect_period(state)
            assert isinstance(c, PeriodCertificate) and c.period == p

    def test_not_closed_reported_not_violating(self):
        # a cap this small leaves most orbits open; none may count as violation
        report = run_survey(SurveyConfig(k=5, samples=60, seed=1, cap=12))
        assert report.not_closed > 0
        for p in report.violations:
            assert p in report.histogram

    @pytest.mark.parametrize(
        "field,value",
        [
            ("denominator", 0),
            ("denominator", -12),
            ("numerator_bound", -1),
            ("samples", -5),
            ("cap", 0),
        ],
    )
    def test_sampler_fields_are_checked(self, field, value):
        # samples=0: every field is checked before the first sample is drawn
        config = SurveyConfig(**{"k": 4, "samples": 0, field: value})
        with pytest.raises(ValueError, match=field):
            run_survey(config)

    def test_zero_samples_is_an_empty_report(self):
        report = run_survey(SurveyConfig(k=4, samples=0))
        assert (report.histogram, report.not_closed) == ({}, 0)

    def test_csv_rows_shape(self):
        report = run_survey(SurveyConfig(k=5, samples=50, seed=2))
        rows = report.csv_rows()
        assert rows[0] == "k,state,period,conjecture_ok"
        assert all(r.startswith("5,") for r in rows[1:])


class TestGlobalPeriodicitySmallOrders:
    @pytest.mark.parametrize("k,divisor", [(2, 5), (3, 8)])
    def test_all_orbits_divide_the_universal_period(self, k, divisor):
        rng = random.Random(99)
        for _ in range(150):
            state = tuple(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(k))
            c = detect_period(state, cap=2000)
            assert isinstance(c, PeriodCertificate)
            assert divisor % c.period == 0

    def test_survey_histograms(self):
        assert set(run_survey(SurveyConfig(k=2, samples=100, seed=5)).histogram) <= {1, 5}
        assert set(run_survey(SurveyConfig(k=3, samples=100, seed=5)).histogram) <= {1, 2, 8}


class TestPeriodTwoParity:
    def test_two_only_for_odd_k(self):
        for k in (4, 5, 6, 7):
            report = run_survey(SurveyConfig(k=k, samples=200, seed=13))
            if 2 in report.histogram:
                assert k % 2 == 1

    def test_detected_two_cycles_match_template(self):
        for k in (3, 5, 7):
            c = detect_period(build_general_k("two-cycle-odd-k", k, 2).state)
            assert isinstance(c, PeriodCertificate) and c.period == 2
            assert sorted(c.cycle) == [0, 2]


class TestGolomb:
    @pytest.mark.parametrize("k,expected", [(2, 5), (3, 8), (4, 11), (5, 14), (6, 17)])
    def test_monotone_windows_close_at_3k_minus_1(self, k, expected):
        assert 3 * k - 1 == expected
        assert golomb_check(k, trials=40, seed=21)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            golomb_check(1, trials=5)

    def test_cap_is_the_expected_period(self, monkeypatch):
        caps = []

        def recording_period_of(state, cap):
            caps.append(cap)
            return period_of(state, cap)

        monkeypatch.setattr(survey, "period_of", recording_period_of)
        assert golomb_check(5, trials=6, seed=3)
        assert caps == [14] * 6

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_refused(self, trials):
        with pytest.raises(ValueError, match="trials"):
            golomb_check(5, trials=trials)
