import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxper import (
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
import maxper
from maxper.detect import period_of

F = Fraction

windows = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    min_size=2,
    max_size=6,
).map(tuple)


def S(text):
    return parse_state(text)


class TestStep:
    def test_forty_three_cycle_start(self):
        assert step(S("8,2,1,5")) == S("2,1,5,-3")

    def test_equilibrium_fixed(self):
        assert step(S("0,0,0,0")) == S("0,0,0,0")

    def test_eight_template(self):
        assert step(S("1,0,1,1/2")) == S("0,1,1/2,0")

    def test_zero_in_max_guard(self):
        # all later entries negative: the max is 0, not the largest entry
        assert step(make_state((-1, -2, -3, -4))) == make_state((-2, -3, -4, 1))


class TestStepBack:
    def test_inverse_of_example(self):
        assert step_back(S("2,1,5,-3")) == S("8,2,1,5")

    def test_inverse_composition(self):
        s = S("3,1,4,1")
        assert step_back(step(s)) == s

    def test_equilibrium(self):
        assert step_back(S("0,0,0,0")) == S("0,0,0,0")


@given(windows)
def test_step_bijective(s):
    assert step_back(step(s)) == s
    assert step(step_back(s)) == s


class TestIterate:
    def test_eleven_steps_of_condition_u_cycle(self):
        assert iterate(S("8,2,1,5"), 11) == S("8,1,4,5")

    def test_zero_steps(self):
        s = S("8,2,1,5")
        assert iterate(s, 0) == s

    def test_monotone_eleven_cycle(self):
        assert iterate(S("4,3,2,1"), 11) == S("4,3,2,1")

    def test_negative_steps_go_backward(self):
        s = S("8,2,1,5")
        assert iterate(iterate(s, 7), -7) == s


def written_out_step_back(state):
    """The inverse with the step rule written out: the reference for ``step_back``."""
    head = state[:-1]
    m = max(head)
    if m < 0:
        m = 0
    return (m - state[-1],) + head


def step_loop(state, n):
    """n single steps: ``step`` forward, or the written-out inverse backward."""
    for _ in range(abs(n)):
        state = step(state) if n > 0 else written_out_step_back(state)
    return state


def step_terms(state, n):
    """x[1], ..., x[n] read off a ``step`` loop."""
    values, w = list(state[:n]), state
    while len(values) < n:
        w = step(w)
        values.append(w[-1])
    return values


def small_windows(seed, count, cap):
    """Seeded (window, period within cap or None) pairs of orders 2..8."""
    rng = random.Random(seed)
    for i in range(count):
        s = make_state(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(2 + i % 7))
        yield s, period_of(s, cap)


class TestIterateAgainstAStepLoop:
    def test_closed_windows(self):
        checked = set()
        for s, p in small_windows(2, 300, 200):
            if p is None:
                continue
            checked.add(len(s))
            for n in (-3 * p - 1, -p, -1, 0, 1, p - 1, p, p + 1, 3 * p + 2):
                assert iterate(s, n) == step_loop(s, n), (s, n)
        assert checked == set(range(2, 9))

    def test_windows_that_do_not_close_within_n(self):
        checked = 0
        for s, p in small_windows(3, 100, 150):
            for n in (150, -150, 37, -37):
                if p is None or p > abs(n):
                    checked += 1
                    assert iterate(s, n) == step_loop(s, n), (s, n)
        assert checked > 100

    def test_orbit_values(self):
        for s, p in small_windows(4, 120, 300):
            k = len(s)
            lengths = [0, 1, k - 1, k, k + 1, 2 * k + 3] + ([p + 1, 2 * p + k + 5] if p else [300])
            for n in lengths:
                assert orbit_values(s, n) == step_terms(s, n), (s, n)


def _run(args, timeout):
    src = str(Path(maxper.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestLongRuns:
    """Runs that stepped in Fractions took seconds; on integers they take a fraction of one."""

    WINDOW = "12,-1,10/3,1,-3/4,3/2"  # period 891611

    @pytest.mark.parametrize("n", [200_000, -200_000])
    def test_cli_iterate_a_window_that_does_not_close(self, n):
        done = _run(["-m", "maxper.cli", "iterate", self.WINDOW, "--n", str(n)], timeout=1)
        ints, L = clear_denominators(S(self.WINDOW))
        expected = tuple(F(v, L) for v in step_loop(ints, n))
        assert (done.returncode, done.stdout) == (0, format_state(expected) + "\n")

    @pytest.mark.parametrize("n", [10**12, -(10**12)])
    def test_library_iterate_reduces_by_the_period(self, n):
        code = f"import maxper; print(maxper.format_state(maxper.iterate(maxper.parse_state('8,2,1,5'), {n})))"
        done = _run(["-c", code], timeout=2)
        # period 43, so F^n = F^(n mod 43) and F^-n = (F^-1)^(n mod 43)
        expected = step_loop(S("8,2,1,5"), (1 if n > 0 else -1) * (abs(n) % 43))
        assert (done.returncode, done.stdout) == (0, format_state(expected) + "\n")


class TestScale:
    def test_entrywise(self):
        assert scale(S("8,2,1,5"), F(1, 2)) == S("4,1,1/2,5/2")

    def test_identity(self):
        s = S("8,2,1,5")
        assert scale(s, 1) == s

    def test_scaled_orbit_keeps_period(self):
        assert period_of(scale(S("1,0,1,1/2"), 3)) == 8

    def test_composition(self):
        s = S("8,2,1,5")
        assert scale(scale(s, F(2, 3)), F(9, 2)) == scale(s, 3)

    @pytest.mark.parametrize("alpha", [0, -1, F(-1, 2)])
    def test_nonpositive_rejected(self, alpha):
        with pytest.raises(ValueError):
            scale(S("1,2,3,4"), alpha)


@given(windows)
@settings(max_examples=60)
def test_orbit_stays_on_initial_lattice(s):
    L = clear_denominators(s)[1]
    for v in orbit_values(s, 40):
        assert L % v.denominator == 0


class TestParsing:
    def test_rational_round_trip(self):
        for text in ["5", "-3", "3/2", "-7/12", "0"]:
            assert str(parse_rational(text)) == text

    @pytest.mark.parametrize("bad", ["1.5", "1/-2", "1/0", "", "x", "1e3", "2/4/8"])
    def test_bad_rational(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["1_000", "+3", "\u0663", "3/+4", "1/ 2", "- 3", "3/"])
    def test_only_the_ascii_grammar_is_accepted(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_surrounding_whitespace_is_stripped(self):
        assert parse_rational(" -7/12\n") == F(-7, 12)

    def test_state_round_trip(self):
        assert format_state(parse_state("3/2,1/2,0,1")) == "3/2,1/2,0,1"

    def test_state_needs_two_entries(self):
        with pytest.raises(ValueError):
            parse_state("5")


@given(st.fractions())
def test_parse_rational_inverts_str(value):
    assert parse_rational(str(value)) == value


_bad_decorations = st.sampled_from(
    [
        lambda t: "+" + t,  # explicit plus sign
        lambda t: t + "_0",  # digit separator
        lambda t: "".join(chr(0x660 + int(c)) for c in t),  # Arabic-Indic digits
        lambda t: "1/+" + t,  # signed denominator
        lambda t: "1/ " + t,  # space inside the literal
    ]
)


@given(st.integers(min_value=0, max_value=10**6), _bad_decorations)
def test_parse_rational_rejects_decorated_literals(n, decorate):
    with pytest.raises(ValueError):
        parse_rational(decorate(str(n)))
