"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mp():
    return run.import_maxper()


def first_items(workload, mp, seed, count):
    return next(workload.blocks(mp, seed))[:count]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(name, mp):
    workload = WORKLOADS[name]
    items = first_items(workload, mp, 3, 4)
    raw, norm, failed = run.measure(workload, mp, items)
    assert failed == 0 and len(raw) == len(norm) == 4 and min(raw) > 0 and min(norm) > 0
    metrics = run.end_to_end([0.5, 0.4, 0.6], norm * 3)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(name, mp):
    workload = WORKLOADS[name]
    first = run.Inputs(workload, mp, 5).first(25)
    assert first == run.Inputs(workload, mp, 5).first(25)
    assert first != run.Inputs(workload, mp, 6).first(25)


def corrupt_cycle_entry(out):
    recipe, cert, verified = out
    cycle = list(cert.cycle)
    cycle[len(cycle) // 2] += Fraction(1, 7)
    return recipe, dataclasses.replace(cert, cycle=tuple(cycle)), verified


def period_off_by_one(out):
    recipe, trace = out
    return recipe, dataclasses.replace(trace, detected_period=trace.detected_period + 1)


def drop_range_member(out):
    return out[:-1]


def shift_survey_histogram(out):
    report, violations, combination = out
    histogram = dict(report.histogram)
    p = min(histogram)
    histogram[p + 1] = histogram.pop(p)
    return dataclasses.replace(report, histogram=histogram), violations, combination


@pytest.mark.parametrize("name,corrupt", [
    ("long_orbit", corrupt_cycle_entry),
    ("route_trace", period_off_by_one),
    ("oracle", drop_range_member),
    ("survey", shift_survey_histogram),
])
def test_corrupted_answer_counts_as_failure(name, corrupt, mp):
    workload = WORKLOADS[name]
    items = first_items(workload, mp, 3, 4)
    if name == "oracle":
        items = [i for i in items if i[0] == "range"]
    broken = dataclasses.replace(workload, run=lambda m, inp: corrupt(workload.run(m, inp)))
    raw, _, failed = run.measure(broken, mp, items)
    assert failed == len(items) == len(raw) > 0


def test_reference_agrees_with_known_values():
    assert ref.first_return((8, 2, 1, 5)) == 43
    assert not ref.member(1674) and all(ref.member(n) for n in range(1675, 3000))
    assert ref.decompositions(43) == [(1, 3)]
    assert ref.least_rotation([3, 1, 2, 1, 1]) == 3
    assert not ref.conjectured(5, 54) and ref.combination(5, 54)


def traced_counts(workload, mp, items):
    tracer = Tracer()
    plain, traced, failed = run.measure_traced(workload, mp, items, tracer)
    assert failed == 0 and len(plain) == len(traced) == len(items)
    metrics = tracer.metrics(sum(plain), sum(traced))
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "B") or k.endswith("_ratio")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, mp):
    workload = WORKLOADS[name]
    items = first_items(workload, mp, 11, 3)
    first = traced_counts(workload, mp, items)
    assert first == traced_counts(workload, mp, items)
    calls = {k[: -len(".calls")] for k, v in first.items() if k.endswith(".calls") and v}
    bypassed = {
        "long_orbit": {"cases", "survey"},
        "survey": {"cli", "cases", "perset", "synth", "detect.verify_certificate"},
        "route_trace": {"cli", "perset", "survey", "detect.verify_certificate"},
        "oracle": {"cli", "orbit", "detect", "cases", "synth", "survey"},
    }[name]
    assert not {c for c in calls if c in bypassed or c.split(".")[0] in bypassed}
    if name != "long_orbit":
        assert first["detect.verify_certificate.calls"] == 0
    assert (first["cases.trace_cycle.calls"] > 0) == (name == "route_trace")


def test_tracer_restores_the_library(mp):
    before = (mp.cases.detect_period, mp.detect.PeriodCertificate.__dict__["from_json"])
    tracer = Tracer()
    tracer.install(mp)
    assert mp.cases.detect_period is not before[0]
    tracer.uninstall()
    assert (mp.cases.detect_period, mp.detect.PeriodCertificate.__dict__["from_json"]) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.finish(inner)
    tracer.finish(outer)
    calls, self_s = tracer.self_times()
    total = tracer.end[outer] - tracer.start[outer]
    assert calls == {"outer": 1, "inner": 1}
    assert self_s["outer"] == pytest.approx(total - self_s["inner"])


def test_benchmark_json_lists_every_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == per_layer_units()
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        run.end_to_end([1.0], [1.0, 2.0]))


def test_command_prints_result_json_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "route_trace",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_ITEMS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
