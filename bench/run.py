#!/usr/bin/env python3
"""Benchmark maxper in process, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (set-up time, throughput, median and 90th-percentile
item latency, peak resident set); with --trace 1 they are the per-layer
ones from tracer.py.  Earlier lines give the environment and every
metric as `workload name value unit`, plus failed_frac.

Set-up is import of a fresh copy of the package, generation of the first
input block and two warm-up items on fixed inputs.  It is repeated
SETUP_REPS times and the median is reported, because one set-up is too
short to be steady.

The timed phase adds whole input blocks until it has MIN_ITEMS items and
--seconds of item time.  Every output is checked against the reference
right after it is timed, outside the timed region.

Times are speed-normalised.  On a shared machine, other tenants slow
this process by up to a factor of two for stretches of seconds to
minutes, which no amount of averaging inside one run removes.  So a
fixed probe (PROBE_STEPS steps of the reference's integer simulator) is
timed right before and right after every item and every set-up, and the
raw time is scaled by PROBE_REF_S / (mean probe time): every time reads
as it would on a machine that runs the probe in exactly PROBE_REF_S.
This cuts the spread of items_per_s between runs about fourfold.  The
raw figures are printed beside the normalised ones; the JSON line holds
the normalised ones.

A traced run measures a fixed number of items (so that its counts
repeat exactly), each once untraced and once traced, and reports the
difference in item time as trace.overhead_frac.  Its spans are written
to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
WARMUP_ITEMS = 2
MIN_ITEMS = 100
#: No block is added after this much wall time, whatever --seconds says,
#: so that a run ends well inside three minutes.
WALL_LIMIT_S = 90.0
PROBE_WINDOW = (8, 2, 1, 5)
PROBE_STEPS = 1500
PROBE_REF_S = 0.001


def probe():
    t0 = perf_counter()
    reference.values(PROBE_WINDOW, PROBE_STEPS)
    return perf_counter() - t0


def timed(fn, *args):
    """Call fn; return (raw seconds, normalised seconds, result)."""
    before = probe()
    t0 = perf_counter()
    result = fn(*args)
    raw = perf_counter() - t0
    return raw, raw * 2 * PROBE_REF_S / (before + probe()), result


def import_maxper():
    """Import a fresh copy of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "maxper" or m.startswith("maxper.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("maxper")
    importlib.import_module("maxper.cli")
    if Path(package.__file__).resolve().parent != SRC / "maxper":
        raise ImportError(f"maxper came from {package.__file__}, not from {SRC}")
    return package


class Inputs:
    """The seeded input blocks of one workload, generated on demand."""

    def __init__(self, workload, mp, seed):
        self._gen = workload.blocks(mp, seed)
        self._blocks = []

    def block(self, index):
        while len(self._blocks) <= index:
            self._blocks.append(next(self._gen))
        return self._blocks[index]

    def first(self, count):
        items, b = [], 0
        while len(items) < count:
            items += self.block(b)
            b += 1
        return items[:count]


def set_up(workload, seed):
    """One set-up: import, first inputs, warm-up.  Returns (mp, inputs)."""
    mp = import_maxper()
    inputs = Inputs(workload, mp, seed)
    inputs.block(0)
    for inp in next(workload.blocks(mp, "warm-up"))[:WARMUP_ITEMS]:
        run_item(workload, mp, inp)
    return mp, inputs


def run_item(workload, mp, inp):
    """Run one item; its output, or None if it raised."""
    try:
        return workload.run(mp, inp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def measure(workload, mp, items):
    """Time and check every input.  Returns (raw, normalised, failed)."""
    raw, norm, failed = [], [], 0
    gc.collect()
    for inp in items:
        r, n, out = timed(run_item, workload, mp, inp)
        raw.append(r)
        norm.append(n)
        failed += out is None or not workload.check(inp, out)
    return raw, norm, failed


def measure_for(workload, mp, inputs, seconds, min_items=MIN_ITEMS):
    """Whole blocks until `seconds` of raw item time and `min_items` items."""
    started = perf_counter()
    raw, norm, failed = [], [], 0
    b = 0
    while len(raw) < min_items or sum(raw) < seconds:
        if b and perf_counter() - started > WALL_LIMIT_S:
            break
        r, n, f = measure(workload, mp, inputs.block(b))
        raw += r
        norm += n
        failed += f
        b += 1
    return raw, norm, failed


def measure_traced(workload, mp, items, tracer):
    """Run every item untraced and traced, alternating which goes first.

    Returns (untraced latencies, traced latencies, failed).  Alternating
    the order cancels drift in machine speed out of the overhead.
    """
    plain, traced, failed = [], [], 0
    gc.collect()
    for i, inp in enumerate(items):
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on:
                tracer.install(mp)
                tracer.current_item = i
                root = tracer.begin("bench.item")
            t0 = perf_counter()
            out = run_item(workload, mp, inp)
            dt = perf_counter() - t0
            if on:
                tracer.finish(root)
                tracer.uninstall()
            (traced if on else plain).append(dt)
            failed += out is None or not workload.check(inp, out)
    return plain, traced, failed


def end_to_end(setup_times, latencies):
    ms = [1000 * x for x in latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def environment(args):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; or unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxper" / "__init__.py").is_file():
        print(f"error: no maxper package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_raw, setup_norm = [], []
    for _ in range(SETUP_REPS):
        raw, norm, (mp, inputs) = timed(set_up, workload, args.seed)
        setup_raw.append(raw)
        setup_norm.append(norm)

    print("env " + json.dumps(environment(args), sort_keys=True))
    if args.trace:
        tracer = Tracer()
        items = inputs.first(workload.trace_items)
        plain, traced, failed = measure_traced(workload, mp, items, tracer)
        attempted = 2 * len(items)
        metrics = tracer.metrics(sum(plain), sum(traced))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"spans {spans.relative_to(ROOT)} ({len(tracer.start)} spans)")
    else:
        raw, norm, failed = measure_for(workload, mp, inputs, args.seconds)
        attempted = len(raw)
        print(f"samples {attempted} items, {attempted - int(0.9 * attempted)} beyond p90")
        for name, (v, u) in end_to_end(setup_raw, raw).items():
            if u != "MiB":
                print(f"{args.workload} raw_{name} {v:.6g} {u}")
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in end_to_end(setup_norm, norm).items()}

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
