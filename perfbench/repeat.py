"""Repeatability of the benchmark: run it on several seeds, summarise each metric.

    python3 perfbench/repeat.py --workload desk-baselines --seeds 1-10
    python3 perfbench/repeat.py --workload all --seeds 1-10 --trace 0

Runs `run.py` once per seed, one run at a time, with BENCHMARK.json's
`run_seconds` unless `--seconds` is given.  For every metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and, for end-to-end metrics, that spread as a share
of the metric's bound.  It also prints each run's failed share of attempted
solves.  The summary goes to `.bench_results/repeat-<workload>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results")


def seed_list(text):
    """`1-10` or `3,5,8`."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(workload, runs, bounds):
    print(f"== {workload}: {len(runs)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"   correct in every run: {all(r['correct'] for r in runs)}; "
          f"failed shares: {shares}")
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        row = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
               "values": values}
        note = ""
        if name in bounds:
            row["of_bound"] = spread / bounds[name]
            note = f"  = {row['of_bound']:.2f} of bound {bounds[name]}"
        table[name] = row
        print(f"   {name:48s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}{note}", flush=True)
    return {"workload": workload, "correct": all(r["correct"] for r in runs),
            "failed_shares": shares, "metrics": table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name or `all`")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    os.makedirs(RESULTS, exist_ok=True)
    for workload in names:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        summary = summarise(workload, runs, bounds)
        summary.update(seeds=args.seeds, seconds=seconds, trace=args.trace)
        path = os.path.join(RESULTS, f"repeat-{workload}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
