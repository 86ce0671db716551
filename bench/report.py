#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the results.

    python3 bench/report.py [--seeds 1,2,3] [--workloads a,b] [--seconds S]
                            [--trace] [--out FILE]

Each run is a separate `bench/run.py` process, started one at a time.
For every end-to-end metric the table gives the median over the seeds
and the quartile spread, (q3 - q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them; failed_frac is pooled over
all runs.  --trace adds one traced run per workload on the first seed.
--out appends everything, with the environment, as one point to a JSON
list such as bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Seed used while writing a change, and one kept back to re-check claims.
DEV_SEED = 7
HELDOUT_SEED = 1729


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return env, json.loads(lines[-1]), wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"{DEV_SEED},{HELDOUT_SEED},1,2,3")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    doc = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [run_once(name, seed, args.seconds, False) for seed in seeds]
        doc["env"] = {k: v for k, v in runs[0][0].items() if k not in ("seed", "workload")}
        attempted = sum(r["attempted"] for _, r, _ in runs)
        failed = sum(r["failed"] for _, r, _ in runs)
        entry = {
            "end_to_end": {
                metric: dict(summarise([r["metrics"][metric]["value"] for _, r, _ in runs]),
                             unit=m["unit"])
                for metric, m in runs[0][1]["metrics"].items()
            },
            "attempted": attempted,
            "failed_frac": failed / attempted,
            "wall_s": [round(w, 2) for _, _, w in runs],
        }
        for metric, s in entry["end_to_end"].items():
            print(f"{name:12s} {metric:14s} {s['median']:12.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.3f}", flush=True)
        print(f"{name:12s} {'failed_frac':14s} {entry['failed_frac']:12.6g} ratio "
              f"({failed} of {attempted}); run wall {entry['wall_s']}", flush=True)
        if args.trace:
            _, traced, wall = run_once(name, seeds[0], args.seconds, True)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["traced_wall_s"] = round(wall, 2)
            print(f"{name:12s} trace.overhead_frac "
                  f"{entry['per_layer']['trace.overhead_frac']:.3f}; traced run wall "
                  f"{wall:.1f} s", flush=True)
        doc["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        points = json.loads(out.read_text()) if out.exists() else []
        out.write_text(json.dumps(points + [doc], indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
