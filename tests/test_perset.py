import io
from math import gcd

import pytest

from maxper import (
    Decomposition,
    MAX_NON_PERIOD,
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

FIRST_HUNDRED = [1, 8, 11, 43, 54, 65, 75, 76, 87, 97, 98]

SECOND_HUNDRED = [
    107, 109, 118, 119, 120, 131, 139, 140, 141, 142, 151, 153,
    161, 163, 164, 171, 173, 175, 182, 183, 184, 185, 186, 193, 197,
]

# Exclusions in [401, 500].  489 is genuinely not a period: its only
# candidate pairs are (a, b) = (6, 39), gcd 3, and (17, 29), (28, 19),
# (39, 9), all with b < 2a + 1.
EXCLUDED_401_500 = [
    408, 410, 412, 414, 416, 420, 423, 426, 430, 432, 434, 435, 436,
    452, 453, 454, 455, 456, 458, 473, 474, 476, 478, 480, 485, 486,
    489, 490, 492, 496, 498, 500,
]

EXCLUDED_501_600 = [
    518, 519, 520, 522, 525, 532, 540, 542, 544, 546, 552, 558, 562,
    564, 584, 585, 586, 590, 594, 595, 600,
]

CLASS_MAXIMA = {
    1: 32, 2: 1560, 3: 1350, 4: 1140, 5: 1260,
    6: 918, 7: 840, 8: 1026, 9: 1674, 10: 1332,
}


class TestDecompositions:
    def test_43(self):
        assert admissible_decompositions(43) == [Decomposition(1, 3)]

    def test_277_has_none(self):
        assert admissible_decompositions(277) == []

    def test_131_second_candidate_fails_bound(self):
        assert admissible_decompositions(131) == [Decomposition(1, 11)]

    def test_soundness_up_to_2000(self):
        for n in range(12, 2001):
            for d in admissible_decompositions(n):
                assert 10 * d.a + 11 * d.b == n
                assert d.a >= 1 and d.b >= 2 * d.a + 1
                assert gcd(d.a, d.b) == 1
                assert d.admissible

    def test_ascending_in_a(self):
        decs = admissible_decompositions(1897)
        assert [d.a for d in decs] == sorted(d.a for d in decs)
        assert len(decs) > 1

    def test_pair_change_of_variables_is_a_bijection(self):
        # (a, b) admissible <-> (p, q) = (b - a, a) with gcd(p, q) = 1 and
        # p >= q + 1 (b >= 2a + 1 transcribes to exactly that bound; the
        # first member 43 maps to (p, q) = (2, 1)).  Both directions via
        # the value identity 10a + 11b = 11p + 21q.
        for n in range(12, 2001):
            admissible = {(d.a, d.b) for d in admissible_decompositions(n)}
            transformed = {
                (q, p + q)
                for q in range(1, n // 21 + 1)
                for p in ((n - 21 * q) // 11,)
                if 11 * p + 21 * q == n and gcd(p, q) == 1 and p >= q + 1
            }
            assert admissible == transformed


class TestContains:
    @pytest.mark.parametrize("n", [1, 8, 11])
    def test_special_values(self, n):
        assert contains(n)
        assert witness(n) == n

    @pytest.mark.parametrize("n,member", [(277, False), (1675, True), (121, False), (43, True)])
    def test_examples(self, n, member):
        assert contains(n) is member

    def test_witness_is_first_decomposition(self):
        w = witness(43)
        assert isinstance(w, Decomposition) and (w.a, w.b) == (1, 3)
        assert witness(277) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            contains(0)


class TestRanges:
    def test_first_hundred(self):
        assert periods_in_range(1, 100) == FIRST_HUNDRED

    def test_gap_12_to_42(self):
        assert periods_in_range(12, 42) == []

    def test_second_hundred(self):
        assert periods_in_range(101, 200) == SECOND_HUNDRED

    def test_exclusions_401_500(self):
        members = set(periods_in_range(401, 500))
        assert sorted(set(range(401, 501)) - members) == EXCLUDED_401_500

    def test_exclusions_501_600(self):
        members = set(periods_in_range(501, 600))
        assert sorted(set(range(501, 601)) - members) == EXCLUDED_501_600

    def test_everything_beyond_the_gap(self):
        assert periods_in_range(1675, 1700) == list(range(1675, 1701))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            periods_in_range(5, 4)


class TestGapScan:
    def test_residue_class_is_the_unique_m(self):
        for n in range(1, 500):
            if n % 11 == 0:
                with pytest.raises(ValueError):
                    residue_class(n)
            else:
                m = residue_class(n)
                assert 1 <= m <= 10
                assert (n - 10 * m) % 11 == 0
                assert sum((n - 10 * mm) % 11 == 0 for mm in range(1, 11)) == 1

    def test_report_at_2000(self):
        report = gap_scan(2000)
        assert report.overall_max == MAX_NON_PERIOD == 1674
        assert report.class_maxima == CLASS_MAXIMA
        assert report.eleven_max == 1320
        assert report.stabilized
        assert 10 in report.non_members and 1674 in report.non_members
        assert 43 not in report.non_members

    def test_json_fields(self):
        doc = gap_scan(100).to_json()
        assert doc["limit"] == 100
        assert doc["class_maxima"]["1"] == 32

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            gap_scan(5)


class TestPrimeRule:
    def test_no_violations_to_2000(self):
        assert check_prime_rule(2000) == []

    def test_397_membership(self):
        w = witness(397)
        assert isinstance(w, Decomposition)
        assert (w.a, w.b) == (10, 27)
        assert contains(397)

    def test_encircled_example_members(self):
        assert contains(43) and contains(97) and contains(281)
        assert not contains(277) and not contains(101)


class TestElevenRule:
    def test_no_violations(self):
        assert check_eleven_rule(200) == []

    def test_exceptional_multiples(self):
        for q in (43, 54, 76, 120):
            assert not contains(11 * q)
        assert not contains(121) and not contains(242)
        assert contains(11) and contains(363)

    def test_power_rule_spot_checks(self):
        assert contains(11**3) and contains(11**3 * 2)
        assert contains(121 * 3) and contains(121 * 5)

    def test_43_squared_multiples(self):
        # composite rule for a decomposable prime: p^2 q is always a period
        for q in range(1, 100_000 // 1849 + 1):
            if q % 43:
                assert contains(1849 * q)


class TestOracleAgainstExhaustiveSimulation:
    def test_small_integer_lattice_realizes_only_members(self):
        # every orbit from [0,6]^4 closes; each period must be a member,
        # and no known non-member may appear
        import itertools

        from maxper import PeriodCertificate, detect_period

        realized = set()
        for w in itertools.product(range(7), repeat=4):
            c = detect_period(w, cap=100_000)
            assert isinstance(c, PeriodCertificate), w
            realized.add(c.period)
        assert all(contains(p) for p in realized)
        assert realized.isdisjoint({42, 277, 489, 1674})
        assert {1, 8, 11, 43} <= realized


class TestCsvExport:
    def test_small_table(self):
        buf = io.StringIO()
        write_members_csv(41, 44, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,member,a,b"
        assert lines[1] == "41,false,,"
        assert lines[3] == "43,true,1,3"

    def test_special_row_has_no_pair(self):
        buf = io.StringIO()
        write_members_csv(8, 8, buf)
        assert buf.getvalue().strip().splitlines()[1] == "8,true,,"

    @pytest.mark.parametrize("lo,hi", [(5, 1), (0, 5)])
    def test_bad_range_writes_nothing(self, lo, hi):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="lo <= hi"):
            write_members_csv(lo, hi, buf)
        assert buf.getvalue() == ""
