import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import maxper
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

    def test_text_asks_only_for_the_period(self, capsys, monkeypatch):
        monkeypatch.setattr(maxper.detect, "detect_period", _refuse)
        assert run(capsys, "period", "8,2,1,5") == (0, "period=43\n", "")
        assert run(capsys, "period", "8,2,1,5", "--cap", "10") == (0, "not_closed=10\n", "")


class TestIterate:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "iterate", "8,2,1,5", "--n", "1")
        assert code == 0
        assert out.strip() == "2,1,5,-3"

    def test_backward(self, capsys):
        code, out, _ = run(capsys, "iterate", "2,1,5,-3", "--n", "-1")
        assert code == 0
        assert out.strip() == "8,2,1,5"

    def test_huge_n_is_reduced_modulo_the_period(self):
        # period 43 and 10**9 % 43 == 41, so F^(10**9) is 41 steps
        src = str(Path(maxper.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "maxper.cli", "iterate", "8,2,1,5", "--n", "1000000000"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=1,
        )
        w = maxper.parse_state("8,2,1,5")
        for _ in range(41):
            w = maxper.step(w)
        assert (done.returncode, done.stdout) == (0, format_state(w) + "\n")


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

    @pytest.mark.parametrize("fmt", [(), ("--json",), ("--csv",)])
    @pytest.mark.parametrize("lo,hi", [("5", "1"), ("0", "5")])
    def test_range_bad_bounds_exit_2_in_every_format(self, capsys, fmt, lo, hi):
        code, out, err = run(capsys, "perset", "range", lo, hi, *fmt)
        assert code == 2
        assert out == ""
        assert "lo <= hi" in err

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

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--denominator", "0", "denominator"),
            ("--denominator", "-12", "denominator"),
            ("--max-numerator", "-1", "numerator_bound"),
            ("--samples", "-5", "samples"),
            ("--cap", "0", "cap"),
        ],
    )
    def test_bad_sampler_exit_2(self, capsys, flag, value, field):
        code, out, err = run(capsys, "survey", "--k", "4", "--samples", "0", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err


def _refuse(*args, **kwargs):
    raise AssertionError("called for a format that is not printed")


class TestOnlyThePrintedFormatIsRendered:
    def test_text_period_builds_no_certificate_json(self, capsys, monkeypatch):
        monkeypatch.setattr(PeriodCertificate, "to_json", _refuse)
        code, out, _ = run(capsys, "period", "8,2,1,5")
        assert (code, out) == (0, "period=43\n")

    def test_range_csv_computes_no_member_list(self, capsys, monkeypatch):
        monkeypatch.setattr(maxper.perset, "periods_in_range", _refuse)
        code, out, _ = run(capsys, "perset", "range", "42", "43", "--csv")
        assert (code, out) == (0, "n,member,a,b\n42,false,,\n43,true,1,3\n")

    def test_contains_scans_once(self, capsys, monkeypatch):
        monkeypatch.setattr(maxper.perset, "contains", _refuse)
        code, out, _ = run(capsys, "perset", "contains", "43", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 43, "member": True, "witness": {"a": 1, "b": 3}}


class TestGolomb:
    def test_order_four(self, capsys):
        code, out, _ = run(capsys, "golomb", "--k", "4", "--trials", "30")
        assert code == 0
        assert "expected_period=11" in out
        assert "ok=true" in out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_exit_2(self, capsys, trials):
        code, out, err = run(capsys, "golomb", "--k", "5", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "trials" in err


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
    # Every other subcommand and format, taken before the output formats
    # were chosen in one place.
    (("iterate", "8,2,1,5", "--n", "11"),
     "889b92ba8a841daff63d8c1c5225d3cdfbfd0f9e50e5fd794a474caeaf71ce4e"),
    (("iterate", "3/2,1/2,0,1", "--n", "-7", "--json"),
     "07b231b9e50f7bb80c25705bfc9e407fdc78f9264549215f9b49a2e567903aa1"),
    (("period", "8,2,1,5"),
     "65b33d96032f48c08d50166b20e33de0a5ad50be164460f67f8c942d820cd3b5"),
    (("period", "8,2,1,5", "--cap", "10"),
     "31bdca15a6e7d89f4edb417503fa007a0222dab2f030789ff4c987297c9db2ff"),
    (("period", "8,2,1,5", "--cap", "10", "--json"),
     "e15c7dd043fbe7901ffc1faba1e6030cd8343da96b52e0dd67f9c8bde56ab884"),
    (("classify", "8,2,1,5"),
     "936a597d3738ec92dfbf241670b607954e35fa89d8264c024f03f45051200504"),
    (("classify", "8,2,1,5", "--json"),
     "209b0e98741c1249d91c249294a5f003b0d75bd0df2815db2517f59ff32ac9b1"),
    (("classify", "5,1,3,2"),
     "8f89c2a4828d76427fa55aaeec87d9baeceb54a90df9e073739aa3dec104cb4d"),
    (("classify", "5,1,3,2", "--json"),
     "42b3405cbd54d88d59fd1d3a3a420eed80a3ffa3f0e761855728ccf8b185ef24"),
    (("trace", "8,2,1,5", "--json"),
     "65212b46ce06cb6de9962f6799de4da3b7cc2b89b10b779da099031cc99b023c"),
    (("trace", "1,0,1,1/2"),
     "268c4a3aaac0bf91a6707c4c8989fb655b4201d8a744f1077e9f222958f51aa1"),
    (("trace", "1,0,1,1/2", "--json"),
     "7a8abe6e882c63893143b36461d5370df6c42476eddb598b67acce0fc5ebce8e"),
    (("trace", "8,2,1,5", "--max-blocks", "2"),
     "e351e7666217b49c9ce6fae3a711689acf3af068ccc73e44ac31a0afa1017f73"),
    (("trace", "8,2,1,5", "--max-blocks", "2", "--json"),
     "d22510a46d4852a50b69650776dafa8137a1c225c838a49fc977542a8e5a53ff"),
    (("perset", "contains", "43"),
     "8a2fddfee9efc606adab261d35669246bd79c35929cfb0b25f1d086a2500985e"),
    (("perset", "contains", "43", "--json"),
     "e426f34ecd0249dc8547c37c8002f5176f474f2bd0a92d039116dbfd47de877c"),
    (("perset", "contains", "8"),
     "acb0e0f2514ea193df7caf32bae24219acba026f265af61363595478431cf7f1"),
    (("perset", "contains", "8", "--json"),
     "bc8e02c60d9347b84bfa64da78daeccbb36ec331f5a0569ef74b5eb0185bb7fe"),
    (("perset", "contains", "277"),
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    (("perset", "contains", "277", "--json"),
     "2645d8053aad25843af6b519935054d1128d6db24d5b7db663705943368653cb"),
    (("perset", "decomp", "2000"),
     "f87be2bc4777326396f49d2a8f74b6476ca04324674b5769e9d080a4078a1393"),
    (("perset", "decomp", "2000", "--json"),
     "875fae59b5445c07f6312841c9192bb3a136599c1f8cef7f43f905bc76e11130"),
    (("perset", "decomp", "277"),
     "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    (("perset", "decomp", "277", "--json"),
     "f407bd1688e247a4a016779e9e8e7d1dcae61fe73d2b73732d0df27b1fd6f0e8"),
    (("perset", "range", "1", "2000"),
     "7fb587bbd670c59ef526f9ea9b468d3909e36166f6f508bff93abdb13d17cb42"),
    (("perset", "range", "1", "2000", "--json"),
     "eb43edf698b452ad674d9be2447d296c317625e5b1620b87a290f4218d0c2279"),
    (("perset", "range", "1", "2000", "--csv"),
     "0f676e2ec38d9fef8e4fab7c9eee5ce0f4c3f41fb27d640434d2961f8bf4841a"),
    (("perset", "gaps", "--limit", "4000"),
     "b5778ca719c11f9384173f8cedcabd9a47c18c6a9f14b4768ffa7dd65af61809"),
    (("perset", "gaps", "--limit", "4000", "--json"),
     "8a5f5a0da2cccc5b0b42800e3fce86aeb5ec527aeacca5b752f4ab255d4c90c4"),
    (("synth", "43"),
     "ef6fce41cc16425a90c09ed8bcdf4dd2862398449bba942837e906a1ccb7d1cf"),
    (("synth", "43", "--json"),
     "d37c171456b3dd85d36c53f82febe0495edd1c69b1486f392b8c424759273ac8"),
    (("survey", "--k", "5", "--samples", "40", "--seed", "3"),
     "7ecd3812cd00e574607cc12f4e20694a0d3bc6e1304a2623d89923e57819e3bc"),
    (("golomb", "--k", "5", "--trials", "20", "--json"),
     "e2db96274e7fc85f4386af68708779fe6972a3b2d914f8b054ff951663eb425c"),
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
        # failure nor a domain error may leave anything behind in it.  The
        # first seven digests suffice here; test_stdout_digest checks all.
        for _ in range(2):
            for argv, digest in GOLDEN_STDOUT[:7]:
                code, out, _ = run(capsys, *argv)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == digest
                with pytest.raises(SystemExit) as exc:
                    main(["period", "8,2,1,5", "--cap"])
                assert exc.value.code == 2
                assert "usage:" in capsys.readouterr().err
                code, _, err = run(capsys, "synth", "277")
                assert code == 1 and "error:" in err


README = Path(__file__).resolve().parent.parent / "README.md"

#: Lines each command of the README's "Command line" block must print, as
#: its comment states them.  The keys must be exactly the README's commands.
README_OUTPUT = {
    "maxper period 8,2,1,5": ["period=43"],
    "maxper period 2,1/2,0,1 --json": [],
    "maxper iterate 8,2,1,5 --n 11": ["8,1,4,5"],
    "maxper classify 8,1,5,2": ["labels=C2"],
    "maxper trace 8,2,1,5": ["blocks=C4/11,C5/11,C2/10,C1/11", "predicted=43"],
    "maxper perset contains 277": ["false"],
    "maxper perset decomp 131": ["a=1 b=11"],
    "maxper perset range 1 100": ["1,8,11,43,54,65,75,76,87,97,98"],
    "maxper perset range 1 100 --csv": ["n,member,a,b"],
    "maxper perset gaps --limit 4000": ["max_nonperiod=1674"],
    "maxper synth 43": ["state=2,3/2,0,1", "verified=true"],
    "maxper survey --k 5 --samples 500 --seed 1 --json": [],
    "maxper golomb --k 5 --trials 100": ["expected_period=14"],
}


def readme_commands():
    """The ``maxper ...`` lines of the README's "Command line" block, comments cut."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        line.split("#", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("maxper ")
    ]


class TestReadmeCommands:
    def test_every_command_has_its_expected_output(self):
        assert readme_commands() == list(README_OUTPUT)

    @pytest.mark.parametrize("command", list(README_OUTPUT))
    def test_command_runs_as_documented(self, capsys, command):
        code, out, _ = run(capsys, *command.split()[1:])
        assert code == 0
        lines = out.splitlines()
        for expected in README_OUTPUT[command]:
            assert expected in lines
        if command == "maxper period 2,1/2,0,1 --json":
            assert verify_certificate(PeriodCertificate.from_json(out))


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv,code",
        [(["synth", "43"], 0), (["synth", "277"], 1), (["period", "1.5,2"], 2)],
    )
    def test_python_m_maxper_cli(self, argv, code):
        src = str(Path(maxper.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "maxper.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == code
        if code == 0:
            assert "verified=true" in done.stdout.splitlines()
        else:
            assert done.stdout == ""
            assert done.stderr.startswith("error:")
