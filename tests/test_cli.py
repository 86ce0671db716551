import hashlib
import json
from fractions import Fraction

import pytest

from maxper import PeriodCertificate, format_state, scale, synthesize, verify_certificate
from maxper.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPeriod:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "period", "8,2,1,5")
        assert code == 0
        assert out.strip() == "period=43"

    def test_json_certificate_round_trips(self, capsys):
        code, out, _ = run(capsys, "period", "2,1/2,0,1", "--json")
        assert code == 0
        cert = PeriodCertificate.from_json(out)
        assert cert.period == 43
        assert verify_certificate(cert)

    def test_not_closed(self, capsys):
        code, out, _ = run(capsys, "period", "8,2,1,5", "--cap", "10")
        assert code == 0
        assert out.strip() == "not_closed=10"


class TestIterate:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "iterate", "8,2,1,5", "--n", "1")
        assert code == 0
        assert out.strip() == "2,1,5,-3"

    def test_backward(self, capsys):
        code, out, _ = run(capsys, "iterate", "2,1,5,-3", "--n", "-1")
        assert code == 0
        assert out.strip() == "8,2,1,5"


class TestClassify:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "classify", "8,2,1,5")
        assert code == 0
        assert "labels=C4" in out and "unambiguous=true" in out

    def test_tie(self, capsys):
        code, out, _ = run(capsys, "classify", "5,1,3,2")
        assert code == 0
        assert "labels=C2,C3" in out and "unambiguous=false" in out

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "classify", "1,2,3,4")
        assert code == 1
        assert "error:" in err


class TestTrace:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "trace", "8,2,1,5")
        assert code == 0
        assert "status=closed" in out
        assert "blocks=C4/11,C5/11,C2/10,C1/11" in out
        assert "predicted=43" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "trace", "8,2,1,5", "--json")
        doc = json.loads(out)
        assert doc["status"] == "closed"
        assert doc["predicted"] == 43
        assert doc["A1"] == 1 and doc["H"] == 0
        assert [b["len"] for b in doc["blocks"]] == [11, 11, 10, 11]

    def test_ambiguous_start_exit_1(self, capsys):
        code, _, err = run(capsys, "trace", "5,1,3,2")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_max_blocks_exit_2(self, capsys, budget):
        code, out, err = run(capsys, "trace", "8,2,1,5", "--max-blocks", budget)
        assert code == 2
        assert out == ""
        assert "max_blocks" in err


class TestPerset:
    def test_contains_false_is_exit_zero(self, capsys):
        code, out, _ = run(capsys, "perset", "contains", "277")
        assert code == 0
        assert out.strip() == "false"

    def test_contains_with_witness(self, capsys):
        code, out, _ = run(capsys, "perset", "contains", "43")
        assert code == 0
        assert out.splitlines() == ["true", "witness=10*1+11*3"]

    def test_contains_special(self, capsys):
        code, out, _ = run(capsys, "perset", "contains", "8")
        assert out.splitlines() == ["true", "witness=special:8"]

    def test_decomp(self, capsys):
        code, out, _ = run(capsys, "perset", "decomp", "43")
        assert out.strip() == "a=1 b=3"

    def test_decomp_none(self, capsys):
        code, out, _ = run(capsys, "perset", "decomp", "277")
        assert out.strip() == "none"

    def test_range(self, capsys):
        code, out, _ = run(capsys, "perset", "range", "1", "100")
        assert out.strip() == "1,8,11,43,54,65,75,76,87,97,98"

    def test_range_csv(self, capsys):
        code, out, _ = run(capsys, "perset", "range", "42", "43", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,member,a,b"
        assert lines[2] == "43,true,1,3"

    def test_gaps(self, capsys):
        code, out, _ = run(capsys, "perset", "gaps", "--limit", "2000")
        assert code == 0
        assert "max_nonperiod=1674" in out
        assert "N1=32" in out and "N9=1674" in out and "N11=1320" in out


class TestSynth:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "synth", "43")
        assert code == 0
        assert "state=2,3/2,0,1" in out
        assert "predicted=43" in out
        assert "verified=true" in out

    def test_not_a_period_exit_1(self, capsys):
        code, _, err = run(capsys, "synth", "277")
        assert code == 1
        assert "error:" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "synth", "8", "--json")
        doc = json.loads(out)
        assert doc["tag"] == "eight-template"
        assert doc["predicted"] == 8


class TestSurvey:
    def test_deterministic_output(self, capsys):
        args = ("survey", "--k", "5", "--samples", "60", "--seed", "9", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_human_summary(self, capsys):
        code, out, _ = run(capsys, "survey", "--k", "4", "--samples", "50", "--seed", "2")
        assert code == 0
        assert "k=4 samples=50 seed=2" in out
        assert "conjecture_violations=0" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "survey", "--k", "5", "--samples", "40",
                           "--seed", "3", "--csv")
        assert out.splitlines()[0] == "k,state,period,conjecture_ok"


class TestGolomb:
    def test_order_four(self, capsys):
        code, out, _ = run(capsys, "golomb", "--k", "4", "--trials", "30")
        assert code == 0
        assert "expected_period=11" in out
        assert "ok=true" in out


class TestParseErrors:
    @pytest.mark.parametrize(
        "state",
        ["8,2,x", "1.5,2,3,4", "5", "1/-2,2,3,4", "1_000,0,0,0", "+3,0,0,0", "\u0663,0,0,0"],
    )
    def test_malformed_state_exit_2(self, capsys, state):
        code, _, err = run(capsys, "period", state)
        assert code == 2
        assert "error:" in err


#: synthesize(1009).state scaled by 7/5: a long orbit with mixed denominators.
SCALED_1009 = "602/5,623/10,0,21/5"

#: SHA-256 of the stdout of each command, taken before period-first
#: detection landed; output must stay byte-identical.
GOLDEN_STDOUT = [
    (("period", "8,2,1,5", "--json"),
     "5f13cd92d22b2734e92f2d3c25d6642952693e9bcacea583454fde6f0d51888d"),
    (("period", SCALED_1009),
     "959b1ade688dc642a735d709a81fce3dea769af691a2131274061c99bc2040fe"),
    (("period", SCALED_1009, "--json"),
     "404d1bf02cdc761670557e7afe70b9ecffadb56666edf91c9a396e131ef3a01a"),
    (("survey", "--k", "5", "--samples", "40", "--seed", "3", "--json"),
     "4c826e82d093976b31da4c9be31368792a5d6e143c3d6e7ceed008fccbee8b03"),
    (("survey", "--k", "5", "--samples", "40", "--seed", "3", "--csv"),
     "a3b24d7c28fd6fc2a6374a9c0601dd35a4d677f968b2bcaab5d898a1e96e44e4"),
    (("trace", "8,2,1,5"),
     "3cc37fa389055c4049f45433f0b2e16b8f4655d21b1951c2aaa532b2a7745273"),
    (("golomb", "--k", "5", "--trials", "20"),
     "51c67cd053a9b528d42aebf17eb52055d526fe376dc82bd97cfdc4938f8fa243"),
]


class TestGoldenStdout:
    def test_scaled_window_comes_from_synth(self):
        assert format_state(scale(synthesize(1009).state, Fraction(7, 5))) == SCALED_1009

    @pytest.mark.parametrize(
        "argv,digest", GOLDEN_STDOUT, ids=[" ".join(a) for a, _ in GOLDEN_STDOUT]
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRepeatedMain:
    def test_stdout_is_unchanged_after_failed_calls(self, capsys):
        # main shares one parser across calls in a process; neither a parse
        # failure nor a domain error may leave anything behind in it.
        for _ in range(2):
            for argv, digest in GOLDEN_STDOUT:
                code, out, _ = run(capsys, *argv)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == digest
                with pytest.raises(SystemExit) as exc:
                    main(["period", "8,2,1,5", "--cap"])
                assert exc.value.code == 2
                assert "usage:" in capsys.readouterr().err
                code, _, err = run(capsys, "synth", "277")
                assert code == 1 and "error:" in err
