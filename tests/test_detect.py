import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import maxper
from maxper import (
    NotClosed,
    PeriodCertificate,
    build_general_k,
    clear_denominators,
    detect_period,
    first_violation,
    least_rotation_index,
    make_state,
    match_eight_template,
    parse_state,
    period_of,
    scale,
    step,
    step_back,
    synthesize,
    verify_certificate,
)
from maxper import detect, orbit
from conftest import rand_nonneg_state, rand_state

F = Fraction


def cert_json(cert):
    """The certificate's JSON text, as ``maxper period --json`` prints it."""
    return json.dumps(cert.to_json(), sort_keys=True)


def cert_of(text, cap=10**6) -> PeriodCertificate:
    out = detect_period(parse_state(text), cap)
    assert isinstance(out, PeriodCertificate)
    return out


class TestDetect:
    @pytest.mark.parametrize(
        "state,period",
        [
            ("8,2,1,5", 43),
            ("0,0,0,0", 1),
            ("1,0,1,1/3", 8),
            ("2,1/2,0,1", 43),
            ("4,3,2,1", 11),
            ("1,2,3,4", 11),
        ],
    )
    def test_known_periods(self, state, period):
        assert period_of(parse_state(state)) == period

    def test_not_closed_is_a_value(self):
        out = detect_period(parse_state("8,2,1,5"), cap=10)
        assert out == NotClosed(steps=10)

    def test_cycle_contents(self):
        c = cert_of("8,2,1,5")
        assert c.period == 43
        assert c.max_value == 8
        assert c.cycle[:4] == parse_state("8,2,1,5")
        assert len(c.cycle) == 43
        assert step_iterate(c.initial, 43) == c.initial

    def test_first_return_is_minimal_exhaustively(self):
        # independent of the detector: walk every q < p and compare windows
        for text in ["8,2,1,5", "1,0,1,1/3", "4,3,2,1", "5,3,1,3", "2,1/2,0,1"]:
            c = cert_of(text)
            w = c.initial
            for q in range(1, c.period):
                w = step(w)
                assert w != c.initial, (text, q)

    def test_minimality_on_fuzz_corpus(self, rng):
        for _ in range(25):
            s = rand_state(rng, 4)
            c = detect_period(s)
            assert isinstance(c, PeriodCertificate)
            if c.period <= 2000:
                w = s
                for q in range(1, c.period):
                    w = step(w)
                    assert w != s

    def test_backward_orbit_same_period(self, rng):
        for _ in range(20):
            s = rand_state(rng, 4)
            p = period_of(s)
            back = step_back(step_back(s))
            assert period_of(back) == p

    def test_scaling_invariance_sample(self, rng):
        for _ in range(20):
            s = rand_nonneg_state(rng, 4)
            alpha = F(rng.randint(1, 30), rng.randint(1, 30))
            assert period_of(scale(s, alpha)) == period_of(s)


def mixed_windows(seed, count):
    """Seeded windows of orders 2..6 whose entries have mixed denominators."""
    rng = random.Random(seed)
    for i in range(count):
        k = 2 + i % 5
        yield tuple(F(rng.randint(-6, 12), rng.choice((1, 2, 3, 4, 6))) for _ in range(k))


def booth_least_rotation(values):
    """Booth's algorithm over the entries one at a time.

    The oracle for ``least_rotation_index`` and for the verifier's
    rotation check, so that neither is trusted to test the other.
    """
    n = len(values)
    doubled = list(values) + list(values)
    fail = [-1] * len(doubled)
    best = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - best - 1]
        while i != -1 and c != doubled[best + i + 1]:
            if c < doubled[best + i + 1]:
                best = j - i - 1
            i = fail[i]
        if c != doubled[best + i + 1]:
            if c < doubled[best]:
                best = j
            fail[j - best] = -1
        else:
            fail[j - best] = i + 1
    return best % n


def traced_peak(f, *args, **kwargs):
    """f's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestPeriodFirstDifferential:
    CAP = 20_000

    def test_period_of_agrees_with_certificates(self):
        closed = 0
        for s in mixed_windows(20261018, 100):
            cert = detect_period(s, self.CAP)
            if not isinstance(cert, PeriodCertificate):
                assert cert == NotClosed(steps=self.CAP)
                assert period_of(s, self.CAP) is None
                continue
            closed += 1
            p = cert.period
            assert period_of(s, self.CAP) == p
            if p > 1:
                assert period_of(s, cap=p - 1) is None
                assert detect_period(s, cap=p - 1) == NotClosed(steps=p - 1)
            assert cert.rotation == booth_least_rotation(cert.cycle)
            assert verify_certificate(cert), (s, first_violation(cert))
        assert closed >= 80

    def test_period_of_memory_is_independent_of_the_cap(self):
        # period 891611, so this cap is exhausted; only the window is kept
        s = parse_state("12,-1,10/3,1,-3/4,3/2")
        tracemalloc.start()
        try:
            assert period_of(s, cap=100_000) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_detect_period_memory_is_that_of_the_cycle(self):
        # the monotone window of order 1000 has period 2999
        s = make_state(range(1000, 0, -1))
        cert, peak = traced_peak(detect_period, s)
        assert cert.period == 2999
        assert peak < 2 * 2**20

    def test_detect_period_memory_is_bounded_by_the_cap(self):
        # Past the record limit only the window is kept, so a cap three
        # times the limit peaks at what the limit costs.  Recording all cap
        # terms took about 14 bytes per term, 2.7 MiB here.
        s = parse_state("12,-1,10/3,1,-3/4,3/2")
        cap = 3 * detect._RECORD_LIMIT
        out, peak = traced_peak(detect_period, s, cap=cap)
        assert out == NotClosed(steps=cap)
        assert peak < 24 * detect._RECORD_LIMIT

    @pytest.mark.parametrize("limit", [1, 100, 1008, 1009, 1010])
    def test_orbits_longer_than_the_record_limit(self, monkeypatch, limit):
        s = synthesize(1009).state
        cert = detect_period(s)
        monkeypatch.setattr(detect, "_RECORD_LIMIT", limit)
        again = detect_period(s)
        assert again == cert and cert_json(again) == cert_json(cert)
        assert detect_period(s, cap=1009) == cert
        assert detect_period(s, cap=1008) == NotClosed(steps=1008)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_non_positive_cap_is_refused(self, cap):
        with pytest.raises(ValueError):
            period_of(parse_state("8,2,1,5"), cap=cap)
        with pytest.raises(ValueError):
            detect_period(parse_state("8,2,1,5"), cap=cap)


class TestCertificateVerification:
    def test_detected_certificates_verify(self, rng):
        for text in ["8,2,1,5", "0,0,0,0", "1,0,1,1/3", "4,3,2,1"]:
            assert verify_certificate(cert_of(text))
        for _ in range(15):
            c = detect_period(rand_state(rng, rng.choice([4, 5])))
            assert isinstance(c, PeriodCertificate)
            assert first_violation(c) is None

    def test_doubled_period_fails_minimality(self):
        c = cert_of("8,2,1,5")
        doubled = dataclasses.replace(
            c,
            period=86,
            cycle=c.cycle * 2,
            rotation=booth_least_rotation(c.cycle * 2),
        )
        assert first_violation(doubled) == "minimality"
        assert not verify_certificate(doubled)

    def test_perturbed_cycle_fails_resimulation(self):
        c = cert_of("8,2,1,5")
        bad_cycle = c.cycle[:20] + (c.cycle[20] + 1,) + c.cycle[21:]
        bad = dataclasses.replace(c, cycle=bad_cycle)
        assert first_violation(bad) == "resimulation"

    def test_wrong_max(self):
        c = cert_of("8,2,1,5")
        assert first_violation(dataclasses.replace(c, max_value=F(7))) == "max-element"

    def test_wrong_rotation(self):
        c = cert_of("8,2,1,5")
        assert first_violation(dataclasses.replace(c, rotation=c.rotation + 1)) == "rotation"

    def test_json_round_trip(self):
        c = cert_of("2,1/2,0,1")
        again = PeriodCertificate.from_json(cert_json(c))
        assert again == c
        assert verify_certificate(again)


def fraction_cycle(state, p):
    """The first p terms of the orbit, one ``Fraction(c, L)`` per integer term."""
    ints, L = clear_denominators(make_state(state))
    return tuple(Fraction(c, L) for c in step_loop(ints, p - len(ints))[:p])


def step_loop(window, n):
    """The window followed by the next n terms, one ``orbit.step`` per term."""
    w, out = tuple(window), list(window)
    for _ in range(n):
        w = step(w)
        out.append(w[-1])
    return out


def step_iterate(state, n):
    """The window n steps on, one ``orbit.step`` per step.

    ``iterate`` shares the detector's kernel, so it is no reference for it.
    """
    for _ in range(n):
        state = step(state)
    return state


def assert_records_the_step_loop_cycle(s, cap=10**6):
    """detect_period's cycle is the step loop's, and p - 1 steps do not close it."""
    cert = detect_period(s, cap)
    assert isinstance(cert, PeriodCertificate)
    p = cert.period
    assert cert.cycle == fraction_cycle(s, p)
    if p > 1:
        assert detect_period(s, cap=p - 1) == NotClosed(steps=p - 1)
    return cert


class TestRecordedCycle:
    CAP = 20_000

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_agrees_with_a_step_loop(self, k):
        rng = random.Random(k)
        for _ in range(12):
            s = make_state(rng.randint(-9, 9) for _ in range(k))
            p = period_of(s, self.CAP)
            if p is None:
                assert detect_period(s, self.CAP) == NotClosed(steps=self.CAP)
            else:
                assert assert_records_the_step_loop_cycle(s, self.CAP).period == p

    @pytest.mark.parametrize("kind", ["monotone", "two-k-cycle", "two-cycle-odd-k"])
    def test_order_233_templates_scaled_by_7_5(self, kind):
        recipe = build_general_k(kind, 233, verify=False)
        cert = assert_records_the_step_loop_cycle(scale(recipe.state, F(7, 5)))
        assert cert.period == recipe.predicted

    @pytest.mark.parametrize("n", [1009, 4999])
    def test_synthesized_cycles_scaled_by_7_5(self, n):
        cert = assert_records_the_step_loop_cycle(scale(synthesize(n).state, F(7, 5)))
        assert cert.period == n

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_no_cycle_is_as_long_as_the_window_or_one_longer(self, k):
        # The two boundaries of detect_period's cut, p = k and p = k + 1,
        # cannot occur.  Period k needs 2x[n] = max(0, the other entries),
        # impossible at a positive maximum; period k + 1 needs
        # x[n-1] + x[n] = max(0, the other entries), which forces
        # M, 0, M, 0, ... around a positive maximum M, of period 2.  Both
        # leave only the zero cycle.  A step-loop search of a box agrees.
        for window in itertools.product(range(-1, 2), repeat=k):
            w = window
            for t in range(1, k + 2):
                w = step(w)
                if w == window:
                    assert t < k, window
                    break

    @pytest.mark.parametrize("text", ["0,0,0,0", "1,0,1,0,1", "1/2,0,1/2", "0,7/3,0,7/3,0,7/3,0"])
    def test_cycles_shorter_than_the_window(self, text):
        s = parse_state(text)
        cert = detect_period(s)
        assert cert.period < cert.k
        assert cert.cycle == fraction_cycle(s, cert.period)


class TestInternedCycle:
    WINDOWS = [*mixed_windows(20261020, 40), scale(synthesize(1009).state, F(7, 5))]

    def test_values_and_json_are_those_of_one_fraction_per_term(self):
        orders = set()
        for s in self.WINDOWS:
            cert = detect_period(s, cap=20_000)
            if not isinstance(cert, PeriodCertificate):
                continue
            orders.add(cert.k)
            old = fraction_cycle(s, cert.period)
            assert cert.cycle == old
            text = cert_json(cert)
            assert text == cert_json(dataclasses.replace(cert, cycle=old))
            again = PeriodCertificate.from_json(text)
            assert again == cert and again.cycle == old
        assert orders == {2, 3, 4, 5, 6}

    def test_equal_entries_are_one_object(self):
        cert = detect_period(self.WINDOWS[-1])
        assert cert.period == 1009
        for c in (cert, PeriodCertificate.from_json(cert_json(cert))):
            distinct = set(c.cycle)
            assert len(distinct) < c.period
            assert len({id(v) for v in c.cycle}) == len(distinct)

    def test_repeats_share_the_result_of_the_first_occurrence(self):
        assert detect._interned([1, True, 1.0, 2], repr) == ("1", "1", "1", "2")
        one, also_one = Fraction(1), Fraction(1)
        ids = detect._interned([one, also_one, one], id, key=id)
        assert ids == (id(one), id(also_one), id(one))

    def test_json_formats_equal_entries_that_are_distinct_objects(self):
        cert = detect_period(self.WINDOWS[-1])
        copies = tuple(Fraction(v.numerator, v.denominator) for v in cert.cycle)
        assert len({id(v) for v in copies}) == cert.period > len(set(copies))
        forged = dataclasses.replace(cert, cycle=copies)
        doc = forged.to_json()
        assert type(doc["cycle"]) is list
        assert doc["cycle"] == list(map(str, forged.cycle))
        assert cert_json(forged) == cert_json(cert)

    @pytest.mark.parametrize("where", [[-1], [3, 17, -1]], ids=["once-at-end", "repeated"])
    @pytest.mark.parametrize("literal", ["1.5", "+0", "1/0"])
    def test_malformed_cycle_literal_is_refused(self, where, literal):
        doc = cert_of("8,2,1,5").to_json()
        for i in where:
            doc["cycle"][i] = literal
        with pytest.raises(ValueError, match=re.escape(repr(literal))):
            PeriodCertificate.from_json(doc)


class TestCertificateJsonIntegers:
    @pytest.mark.parametrize(
        "field,value",
        [("rotation", 4.9), ("k", 4.5), ("period", "43"), ("period", 43.0), ("rotation", True)],
    )
    def test_non_integer_field_is_refused(self, field, value):
        # int() would turn 4.9, 4.5 and "43" into a certificate that verifies
        doc = cert_of("8,2,1,5").to_json()
        doc[field] = value
        with pytest.raises(ValueError, match=f"'{field}' must be a JSON integer"):
            PeriodCertificate.from_json(json.dumps(doc))


def _edited(edit):
    doc = cert_of("8,2,1,5").to_json()
    edit(doc)
    return doc


def _without(field):
    return lambda doc: doc.pop(field)


def _set(field, value, index=None):
    def edit(doc):
        if index is None:
            doc[field] = value
        else:
            doc[field][index] = value

    return edit


class TestMalformedCertificateDocument:
    @pytest.mark.parametrize(
        "document,field",
        [
            pytest.param([1, 2], "JSON object", id="list"),
            pytest.param("8,2,1,5", "JSON object", id="string"),
            pytest.param(None, "JSON object", id="null"),
            *(
                pytest.param(_edited(_without(f)), f, id=f"missing-{f}")
                for f in ("k", "initial", "period", "cycle", "max", "rotation")
            ),
            *(
                pytest.param(_edited(_set(f, value)), f, id=f"{f}-{name}")
                for f in ("initial", "cycle")
                for name, value in [("string", "8,2,1,5"), ("object", {"0": "8"}), ("null", None)]
            ),
            *(
                pytest.param(_edited(_set(f, value, index)), f, id=f"{f}[{index}]-{name}")
                for f in ("initial", "cycle")
                for index in (0, -1)
                for name, value in [("number", 8), ("list", ["8"]), ("null", None), ("true", True)]
            ),
            *(
                pytest.param(_edited(_set("max", value)), "max", id=f"max-{name}")
                for name, value in [("number", 8), ("list", ["8"]), ("null", None), ("true", True)]
            ),
        ],
    )
    def test_refused_with_value_error_naming_the_field(self, document, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            PeriodCertificate.from_json(json.dumps(document))


def fraction_first_violation(cert):
    """Slow reference verifier: Fraction re-simulation, minimality by divisors.

    Kept as the oracle for ``first_violation``.  It re-simulates in
    Fractions with ``orbit.step`` and re-iterates once per proper divisor
    of the period (the periods of a fixed sequence are closed under gcd,
    so a divisor check is complete).
    """
    k, p = cert.k, cert.period
    if k < 2 or len(cert.initial) != k:
        return "order"
    if p < 1:
        return "period-positive"
    if len(cert.cycle) != p:
        return "cycle-length"
    if any(cert.initial[i] != cert.cycle[i % p] for i in range(k)):
        return "initial-window"
    if tuple(step_loop(cert.initial, p - k)[:p]) != cert.cycle:
        return "resimulation"
    if step_iterate(cert.initial, p) != cert.initial:
        return "resimulation"
    for d in range(1, p):
        if p % d == 0 and step_iterate(cert.initial, d) == cert.initial:
            return "minimality"
    if cert.max_value != max(cert.cycle):
        return "max-element"
    if cert.max_value < 0:
        return "max-nonnegative"
    if cert.max_value == 0 and any(v != 0 for v in cert.cycle):
        return "zero-cycle"
    if cert.max_value > 0:
        for i, v in enumerate(cert.cycle):
            if v == cert.max_value:
                if any(cert.cycle[(i + t) % p] < 0 for t in range(k)):
                    return "sign-structure"
                if cert.cycle[(i + k) % p] > 0:
                    return "sign-structure"
    if not (0 <= cert.rotation < p) or cert.rotation != booth_least_rotation(cert.cycle):
        return "rotation"
    return None


def forgeries(c):
    """Named corruptions of a detected certificate."""

    def repeated(times):
        cycle = c.cycle * times
        return dataclasses.replace(
            c, period=c.period * times, cycle=cycle, rotation=booth_least_rotation(cycle)
        )

    def perturbed(i, delta=1):
        cycle = c.cycle[:i] + (c.cycle[i] + delta,) + c.cycle[i + 1 :]
        initial = tuple(cycle[j % c.period] for j in range(c.k))
        return dataclasses.replace(c, initial=initial, cycle=cycle)

    p = c.period
    return {
        "doubled": repeated(2),
        "tripled": repeated(3),
        "perturbed-first": perturbed(0),
        "perturbed-middle": perturbed(p // 2),
        "perturbed-last": perturbed(p - 1),
        "off-lattice": perturbed(p - 1, F(1, 7)),
        "off-lattice-appended": dataclasses.replace(c, period=p + 1, cycle=c.cycle + (F(1, 7),)),
        "cycle-only": dataclasses.replace(c, cycle=(c.cycle[0] + 1,) + c.cycle[1:]),
        "wrong-max": dataclasses.replace(c, max_value=c.max_value + 1),
        "rotation+1": dataclasses.replace(c, rotation=c.rotation + 1),
        "rotation-1": dataclasses.replace(c, rotation=c.rotation - 1),
        "rotation=p": dataclasses.replace(c, rotation=p),
    }


class TestVerifierDifferential:
    def assert_agrees(self, cert):
        assert first_violation(cert) == fraction_first_violation(cert)
        for name, forged in forgeries(cert).items():
            assert first_violation(forged) == fraction_first_violation(forged), name

    def test_seeded_certificates_of_orders_2_to_6(self):
        orders = set()
        for s in mixed_windows(20261019, 20):
            cert = detect_period(s, cap=5000)
            if isinstance(cert, PeriodCertificate):
                orders.add(cert.k)
                assert first_violation(cert) is None
                self.assert_agrees(cert)
        assert orders == {2, 3, 4, 5, 6}

    @pytest.mark.parametrize("text", ["0,0,0,0", "1,0,1,0,1", "1/2,0,1/2"])
    def test_cycles_shorter_than_the_window(self, text):
        cert = cert_of(text)
        assert cert.period < cert.k
        self.assert_agrees(cert)

    def test_forged_labels(self):
        # interior of the cycle, perturbed consistently with the initial window
        labels = {name: first_violation(f) for name, f in forgeries(cert_of("8,2,1,5")).items()}
        assert labels == {
            "doubled": "minimality",
            "tripled": "minimality",
            "perturbed-first": "resimulation",
            "perturbed-middle": "resimulation",
            "perturbed-last": "resimulation",
            "off-lattice": "resimulation",
            "off-lattice-appended": "resimulation",
            "cycle-only": "initial-window",
            "wrong-max": "max-element",
            "rotation+1": "rotation",
            "rotation-1": "rotation",
            "rotation=p": "rotation",
        }

    def test_verifies_without_stepping(self, monkeypatch):
        cert = detect_period(synthesize(1009).state)
        assert isinstance(cert, PeriodCertificate) and cert.period == 1009
        forged = forgeries(cert)

        def refuse(*args):
            raise AssertionError("the verifier stepped")

        for module in (orbit, detect):
            monkeypatch.setattr(module, "step", refuse, raising=False)
            monkeypatch.setattr(module, "_advance", refuse)
        assert verify_certificate(cert)
        labels = {name: first_violation(f) for name, f in forged.items()}
        assert labels["doubled"] == "minimality"
        assert labels["perturbed-middle"] == "resimulation"
        assert labels["rotation+1"] == "rotation"

    def test_order_4000_monotone_certificate_verifies_quickly(self):
        cert = detect_period(make_state(range(4000, 0, -1)))
        assert cert.period == 11999
        start = time.perf_counter()
        assert verify_certificate(cert)
        assert time.perf_counter() - start < 0.5

    def test_orders_2_to_12(self):
        orders = set()
        for s in closed_windows(20261022):
            cert = detect_period(s, cap=2000)
            assert isinstance(cert, PeriodCertificate), s
            orders.add(cert.k)
            assert first_violation(cert) is None
            self.assert_agrees(cert)
        assert orders == set(range(2, 13))

    def test_short_and_constant_cycles_of_orders_2_to_12(self):
        # Periodic extensions of short words that close within their length.
        short = set()
        for k in range(2, 13):
            for d in range(1, 5):
                for word in itertools.product((0, F(1, 2), 1), repeat=d):
                    s = make_state(word[i % d] for i in range(k))
                    cert = detect_period(s, cap=d)
                    if isinstance(cert, PeriodCertificate) and cert.period < k:
                        short.add((k, cert.period, len(set(cert.cycle))))
                        self.assert_agrees(cert)
        assert {(k, 1, 1) for k in range(2, 13)} <= short  # the zero cycle
        # These words give no other short cycle at orders 4, 8 and 12.
        assert {k for k, p, distinct in short if distinct > 1} == set(range(3, 13)) - {4, 8, 12}


def closed_windows(seed):
    """Seeded windows of every order 2..12 whose orbits close within a few hundred steps.

    The monotone window of order k has period 3k - 1, and the windows
    (x1, x2, 0, ..., 0, xk) with x1 > xk > 0, 0 <= x2 <= x1 and a small
    ratio x1/xk close quickly too.
    """
    rng = random.Random(seed)
    for k in range(2, 13):
        yield make_state(F(k - i, 3) for i in range(k))
        if k >= 3:
            xk = F(rng.randint(1, 6), rng.choice((1, 2, 3)))
            x1 = xk * F(rng.choice((3, 5, 7)), rng.choice((1, 2)))
            x2 = x1 * F(rng.randint(0, 4), 4)
            yield make_state((x1, x2) + (0,) * (k - 3) + (xk,))


def test_window_maxima_match_brute_force():
    rng = random.Random(40)
    for width in range(1, 41):
        for extra in range(4):
            for low in (-9, -30):
                values = [rng.randint(low, 9) for _ in range(width + extra)]
                expected = [max(0, *values[i : i + width]) for i in range(extra + 1)]
                assert detect._window_maxima(values, width) == expected, (width, values)


class TestSignStructure:
    def test_max_window_nonneg_then_nonpos(self, rng):
        # at every occurrence of the cycle max: k entries >= 0, next <= 0
        for _ in range(40):
            s = rand_state(rng, 4)
            c = detect_period(s)
            assert isinstance(c, PeriodCertificate)
            p, cyc, m = c.period, c.cycle, c.max_value
            assert m >= 0
            if m == 0:
                assert all(v == 0 for v in cyc)
                continue
            for i, v in enumerate(cyc):
                if v == m:
                    assert all(cyc[(i + t) % p] >= 0 for t in range(4))
                    assert cyc[(i + 4) % p] <= 0


class TestSignViolation:
    """The sign checks on forged integer cycles.

    No certificate that passes re-simulation reaches them, so the labels
    are pinned here on cycles that are not orbits.
    """

    @pytest.mark.parametrize(
        "cycle,k,label",
        [
            ([-1, -2, -3], 3, "max-nonnegative"),
            ([-2], 2, "max-nonnegative"),
            ([0, -1, 0, 0], 4, "zero-cycle"),
            ([0, 0, 3, 0, 0, 0, -3], 4, None),
            ([0, 0, 0], 3, None),
            ([5, 1, 1, 1, 0], 4, None),
            ([5, -1, 1, 1, 0], 4, "sign-structure"),  # offset 1
            ([5, 1, 1, -1, 0], 4, "sign-structure"),  # offset k - 1
            ([5, 1, 1, 1, 2], 4, "sign-structure"),  # offset k
            ([5, 0, 0, 0, 0, 5, 0, 0, -1, 0], 4, "sign-structure"),  # second maximum
            ([3, 0], 3, None),  # the alternating 2-cycle of an odd order
            ([3, 0], 4, "sign-structure"),  # offset k wraps onto the maximum
        ],
    )
    def test_forged_cycles(self, cycle, k, label):
        assert detect._sign_violation(cycle, max(cycle), k) == label

    def test_detected_cycles_pass(self):
        for s in mixed_windows(20261021, 40):
            ints, _ = clear_denominators(s)
            p = period_of(s, cap=5000)
            if p is not None:
                cycle = step_loop(ints, p - len(ints))[:p]
                assert detect._sign_violation(cycle, max(cycle), len(ints)) is None

    def test_checked_after_the_maximum_and_before_the_rotation(self, monkeypatch):
        cert = cert_of("8,2,1,5")
        monkeypatch.setattr(detect, "_sign_violation", lambda cycle, m, k: "sign-structure")
        assert first_violation(cert) == "sign-structure"
        labels = {name: first_violation(f) for name, f in forgeries(cert).items()}
        assert labels["wrong-max"] == "max-element"
        assert labels["rotation+1"] == "sign-structure"


def naive_least_rotation(seq):
    n = len(seq)
    doubled = list(seq) + list(seq)
    return min(range(n), key=lambda i: doubled[i : i + n])


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40))
def test_booth_matches_naive(seq):
    i = least_rotation_index(seq)
    j = naive_least_rotation(seq)
    assert seq[i:] + seq[:i] == seq[j:] + seq[:j]


_entries = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(2)]),
)


@given(
    st.lists(_entries, min_size=1, max_size=12),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([list, tuple]),
)
def test_least_rotation_index_is_booths_index(base, times, kind):
    # repeated lists have several least rotations; the index must be Booth's
    values = kind(base * times)
    assert least_rotation_index(values) == booth_least_rotation(values)


@pytest.mark.parametrize(
    "values",
    [[5], (F(-1, 2),), [0] * 9, (F(3),) * 4, [0, F(0), 0], [F(1), 0, 1, F(0)], [2, 1, 2, 1]],
)
def test_least_rotation_index_edge_cases(values):
    assert least_rotation_index(values) == booth_least_rotation(values)


def is_primitive(values):
    return all(values[r:] + values[:r] != values for r in range(1, len(values)))


@given(st.lists(_entries, min_size=1, max_size=12), st.sampled_from([list, tuple]))
def test_rotation_check_accepts_only_booths_index(values, kind):
    values = kind(values)
    assume(is_primitive(values))
    best = booth_least_rotation(values)
    for r in range(-1, len(values) + 1):
        assert detect._is_least_rotation(values, r) == (r == best)


class TestRotationCheck:
    def test_rotation_is_refused_exactly_off_booths_index(self):
        checked = 0
        for s in [*mixed_windows(20261021, 30), parse_state("8,2,1,5")]:
            cert = detect_period(s, cap=200)
            if not isinstance(cert, PeriodCertificate):
                continue
            checked += 1
            best = booth_least_rotation(cert.cycle)
            for r in range(cert.period):
                expected = None if r == best else "rotation"
                assert first_violation(dataclasses.replace(cert, rotation=r)) == expected
        assert checked >= 15


class Counted:
    """A number that counts the == and < comparisons made on it."""

    comparisons = 0
    __slots__ = ("v",)
    __hash__ = None

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        Counted.comparisons += 1
        return self.v == other.v

    def __lt__(self, other):
        Counted.comparisons += 1
        return self.v < other.v


def adversarial_shapes(n):
    """Cycles of length n that stress block comparisons."""
    geometric = []
    length = 1
    while len(geometric) < n:
        geometric += [0] + [1] * (length - 1)
        length *= 2
    fib_a, fib_b = [0], [0, 1]
    while len(fib_b) < n:
        fib_a, fib_b = fib_b, fib_b + fib_a
    return {
        "all-equal": [0] * n,
        "alternating-minimum": [0, 1] * (n // 2),
        "geometric-blocks": geometric[:n],
        "geometric-blocks-reversed": geometric[:n][::-1],
        "fibonacci-word": fib_b[:n],
    }


@pytest.mark.parametrize("n", [64, 512, 4096])
@pytest.mark.parametrize("routine", ["least_rotation_index", "verifier"])
def test_rotation_comparisons_are_linear(routine, n):
    for name, shape in adversarial_shapes(n).items():
        values = tuple(map(Counted, shape))
        Counted.comparisons = 0
        if routine == "least_rotation_index":
            least_rotation_index(values)
        else:
            detect._is_least_rotation(values, booth_least_rotation(shape))
        assert Counted.comparisons <= 8 * n, name


class TestTemplates:
    def test_eight_template_interior(self):
        assert match_eight_template(cert_of("1,0,1,1/2")) == (1, F(1, 2))

    def test_eight_template_wrong_period(self):
        assert match_eight_template(cert_of("4,3,2,1")) is None

    def test_eight_template_proof_case(self):
        got = match_eight_template(cert_of("1,1,0,1"))
        assert got is not None and got[0] == 1

    def test_eight_template_boundary_prefers_small_alpha(self):
        assert match_eight_template(cert_of("1,0,1,0")) == (1, 0)

    def test_every_detected_eight_cycle_matches(self, rng):
        found = 0
        for _ in range(400):
            x = F(rng.randint(1, 12), rng.randint(1, 4))
            alpha = x * F(rng.randint(0, 8), 8)
            c = detect_period(make_state((x, 0, x, alpha)))
            assert isinstance(c, PeriodCertificate)
            if c.period == 8:
                found += 1
                got = match_eight_template(c)
                assert got is not None
                assert got[0] == c.max_value
        assert found > 300

    def test_two_template_odd_order(self):
        c = detect_period(parse_state("1,0,1,0,1"))
        assert isinstance(c, PeriodCertificate)
        assert c.period == 2
        assert c.cycle == (1, 0)


def test_reimport_releases_the_previous_copy():
    # Module-level type aliases must not pin classes in a global cache
    # (typing caches Union[...] subscriptions), or every fresh import of
    # the package keeps all earlier copies alive.
    script = """
import gc, importlib, sys, weakref
def fresh():
    for name in [m for m in sys.modules if m == "maxper" or m.startswith("maxper.")]:
        del sys.modules[name]
    return importlib.import_module("maxper")
old = weakref.ref(fresh().detect.PeriodCertificate)
fresh()
gc.collect()
sys.exit(0 if old() is None else 1)
"""
    src = str(Path(maxper.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
