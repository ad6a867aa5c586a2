"""Benchmark of aris-emf: one workload, one seed, one result line.

    python3 perfbench/run.py --workload desk-baselines --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end ones
(END_TO_END); with `--trace 1` they are the per-layer ones (per_layer_names), and
the span file and the tracing overhead go to `.bench_results/`.  See
perfbench/README.md for the workloads and what each metric should move.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# Seeded full-scale output is byte-identical only at a fixed BLAS thread
# count, and one thread is also the faster setting at these matrix sizes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_results")
FULL_CONFIG = os.path.join(ROOT, "configs", "full.cfg")
# Set-ups in fresh processes, half before the timed pass and half after it,
# besides this process's own.
SETUP_CHILDREN = 8

BASELINE_SCHEMES = ("no-ris", "random", "zero", "fixed")
BASELINE_SIZE = 16
BASELINE_TRIALS = 8
WORKLOADS = ("full-outer", "desk-baselines")
# Desk rounds are short, so each solve gets at least three repeats, spread
# over the run, to take the median of.  One full-outer round already fills
# the run, and a second would raise its peak memory by about 18 MB.
MIN_ROUNDS = {"full-outer": 1, "desk-baselines": 3}
MAX_ROUNDS = {"full-outer": 1, "desk-baselines": None}
# The traced run makes these counts of untraced-and-traced pairs.
MIN_PAIRS = {"full-outer": 1, "desk-baselines": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solves_per_min", "1/min"),
    ("exposure_index_mean", "W/kg"),
    ("max_user_exposure_mean", "W/kg"),
    ("peak_rss_mb", "MB"),
)

COUNTS = (
    "ris_phase.optimize_phases.changed",
    "beamforming.optimize_beamformer.dinkelbach_iters",
    "beamforming.optimize_beamformer.unconverged",
    "power_control.allocate_power.raised",
    "trajectory.sca_step.kept",
    "trajectory.fallbacks",
    "ris_phase.fallbacks",
    "orchestrator.outer_iters",
    "orchestrator.accepted.beams",
    "orchestrator.accepted.phases",
    "orchestrator.accepted.allocation",
    "orchestrator.accepted.power",
    "orchestrator.accepted.trajectory",
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in the order printed."""
    names = []
    for prefix, _, _ in TARGETS:
        names.append((prefix + ".calls", "count"))
        names.append((prefix + ".s", "s"))
    names.append(("ris_phase.optimize_phases.self_s", "s"))
    names.extend((name, "count") for name in COUNTS)
    return names


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    return ap.parse_args(argv)


sys.path.insert(0, os.path.join(ROOT, "src"))
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from dataclasses import dataclass  # noqa: E402


from aris_emf import desk_scenario, harness, load_scenario, orchestrator  # noqa: E402
from aris_emf.exposure import InfeasibleError  # noqa: E402
from aris_emf.harness import MC_EPS, MC_KNOBS, SweepSpec  # noqa: E402

import checks  # noqa: E402
from instrument import TARGETS, Capture, Tracer, span_cost  # noqa: E402


@dataclass
class Solve:
    """One scheme on one trial: its wall time, outputs and exposures."""

    label: str
    seconds: float = None
    outputs: list = None        # what Capture took, until checked
    exposure: float = None
    max_user: float = None      # largest per-user time-averaged exposure
    error: str = None


def solved(label, seconds, outputs, exposure, slot_duration):
    max_user = (float(outputs[-1][2].per_user_index(slot_duration).max())
                if outputs else None)
    return Solve(label, seconds, outputs, exposure, max_user)


def warm_up():
    """One small proposed solve, so lazy set-up is paid before timing."""
    tiny = desk_scenario(num_ris_elements=4, flight_time=45.0)
    orchestrator.run_ao(tiny, trial=0, max_outer=1, knobs=MC_KNOBS)


def build(workload, seed):
    """The workload's inputs.  The seed sets the fading (rng_seed); user
    positions, rates and endpoints are those of the named scenario."""
    if workload == "full-outer":
        return dataclasses.replace(load_scenario(FULL_CONFIG), rng_seed=seed)
    desk = dataclasses.replace(desk_scenario(), rng_seed=seed)
    return SweepSpec("num_ris_elements", (BASELINE_SIZE,), BASELINE_TRIALS,
                     BASELINE_SCHEMES, desk)


def set_up(workload, seed):
    inputs = build(workload, seed)
    warm_up()
    return inputs


def sweep_round(spec, capture):
    """One monte_carlo_sweep; each solve is timed from the previous one's end."""
    solves = []
    last = [time.perf_counter()]
    slot = spec.scenario.params.slot_duration

    def progress(value, scheme, trial, exposure):
        now = time.perf_counter()
        solves.append(solved(f"{scheme} N={value} trial {trial}", now - last[0],
                             capture.take(), exposure, slot))
        last[0] = now

    result = harness.monte_carlo_sweep(spec, eps=MC_EPS, knobs=MC_KNOBS,
                                       progress=progress)
    for (value, scheme), failures in sorted(result.failures.items()):
        for trial, msg in failures:
            solves.append(Solve(f"{scheme} N={value} trial {trial}",
                                error=f"InfeasibleError: {msg}"))
    return solves


def full_round(scenario, capture):
    start = time.perf_counter()
    try:
        _, report = orchestrator.run_ao(scenario, trial=0, max_outer=1,
                                        enable_trajectory=False)
    except InfeasibleError as exc:
        capture.take()
        return [Solve("proposed full trial 0", error=f"InfeasibleError: {exc}")]
    return [solved("proposed full trial 0", time.perf_counter() - start,
                   capture.take(), report.exposure_index,
                   scenario.params.slot_duration)]


def check(solve):
    """Runs the output checks on a solve; returns an error message or None."""
    try:
        for kind, obj, report in solve.outputs:
            if kind == "state":
                checks.check_state(obj, report)
            else:
                checks.check_report(report, obj)
        if not solve.outputs or solve.outputs[-1][2].exposure_index != solve.exposure:
            raise checks.CheckFailed("the harness reported another exposure "
                                     "than the solver returned")
    except checks.CheckFailed as exc:
        return f"check failed: {exc}"
    return None


def timed_rounds(run_round, inputs, capture, seconds, min_rounds=1, max_rounds=None,
                 tracer=None):
    """`min_rounds` whole rounds, then more while another fits in `seconds`,
    up to `max_rounds`.  With a `tracer`, each of these is a pair of rounds,
    one untraced and one traced, in the order `traced_round` gives.

    Returns (rounds, round wall times, errors), a round being its list of
    solves.  The first round's outputs are checked and every later round must
    repeat its exposures bit for bit, traced or not.
    """
    step = 1 if tracer is None else 2
    rounds, walls, errors = [], [], []
    while True:
        traced = tracer is not None and traced_round(len(rounds))
        with ExitStack() as stack:
            if traced:
                tracer.install(stack)
            start = time.perf_counter()
            batch = run_round(inputs, capture)
            walls.append(time.perf_counter() - start)
        if not rounds:
            for s in batch:
                s.error = s.error or check(s)
        elif [s.exposure for s in batch] != [s.exposure for s in rounds[0]]:
            kind = "traced" if traced else "untraced"
            errors.append(f"{kind} round {len(rounds)} gave other exposures than "
                          "the first, untraced one")
        for s in batch:
            s.outputs = None
        rounds.append(batch)
        if len(rounds) % step:
            continue
        done = len(rounds) // step
        if done == max_rounds or (done >= min_rounds
                                  and sum(walls) + sum(walls[-step:]) > seconds):
            return rounds, walls, errors


def traced_round(k):
    """Whether round k of a traced run is traced: untraced, traced, traced,
    untraced, and again, so that a drift in the machine's speed over the run
    favours neither side."""
    return k % 4 in (1, 2)


def count_warnings(counter):
    def show(message, *_args, **_kwargs):
        counter[str(message).split(":")[0]] += 1
    return show


def child_setup_seconds(workload, seed, count):
    """Set-up times of `count` fresh interpreters, one after another, as each
    process measures its own."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv):
    args = parse_args(argv)
    workload = args.workload
    run_round = full_round if workload == "full-outer" else sweep_round
    inputs = set_up(workload, args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(own_setup))
        return 0
    if not args.trace:
        setups = [own_setup] + child_setup_seconds(workload, args.seed,
                                                   SETUP_CHILDREN // 2)

    capture = Capture()
    tracer = Tracer() if args.trace else None
    warned = Counter()
    with ExitStack() as stack, warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = count_warnings(warned)
        capture.install(stack)
        min_rounds = (MIN_PAIRS if args.trace else MIN_ROUNDS)[workload]
        rounds, walls, errors = timed_rounds(run_round, inputs, capture, args.seconds,
                                             min_rounds, MAX_ROUNDS[workload], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    solves = [s for batch in rounds for s in batch]
    failed = [s for s in solves if s.error]
    first = [s for s in rounds[0] if not s.error]
    for s in failed[:5]:
        print(f"FAILED {s.label}: {s.error}", file=sys.stderr)
    for msg in errors:
        print(f"INCORRECT: {msg}", file=sys.stderr)
    for msg, n in sorted(warned.items()):
        print(f"warning x{n}: {msg}", file=sys.stderr)
    correct = not errors and not any(s.error.startswith("check failed") for s in failed)

    if args.trace:
        traced = [r for k, r in enumerate(rounds) if traced_round(k)]
        untraced = [r for k, r in enumerate(rounds) if not traced_round(k)]
        values = per_layer(tracer, len(traced))
        untraced_s = sum(typical_times(untraced))
        overhead = {
            # median repeat of each solve, traced against untraced
            "measured": sum(typical_times(traced)) / untraced_s - 1.0,
            # spans a round times what one traced call adds to a plain one
            "estimated": len(tracer.spans) / len(traced) * span_cost() / untraced_s,
        }
        os.makedirs(RESULTS, exist_ok=True)
        stem = os.path.join(RESULTS, f"trace-{workload}-seed{args.seed}")
        tracer.write(stem + ".jsonl")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": args.seed, "pairs": len(traced),
                       "round_s": walls, "traced": [traced_round(k) for k in range(len(walls))],
                       "overhead": overhead, "exposures_bit_identical": not errors,
                       "metrics": values}, fh, indent=1)
        print(f"tracing overhead: estimated {100 * overhead['estimated']:+.2f}%, "
              f"measured {100 * overhead['measured']:+.1f}% over {len(traced)} "
              f"untraced and traced pair(s); exposures bit-identical: {not errors}")
        units = dict(per_layer_names())
    else:
        setups += child_setup_seconds(workload, args.seed,
                                      SETUP_CHILDREN - SETUP_CHILDREN // 2)
        solve_s = statistics.fmean(typical_times(rounds))
        values = {
            # least of the set-ups, spread over the run; see perfbench/README.md
            "setup_s": min(setups),
            "solve_s": solve_s,
            "solves_per_min": 60.0 / solve_s,
            "exposure_index_mean": statistics.fmean(s.exposure for s in first),
            "max_user_exposure_mean": statistics.fmean(s.max_user for s in first),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    print(f"workload {workload} seed {args.seed}: {len(rounds)} round(s), "
          f"attempted {len(solves)} solves, failed {len(failed)}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": len(solves), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


def typical_times(rounds):
    """Each successful solve of a round, timed by the median of its repeats.

    The speed of a shared machine's CPU changes from one stretch of seconds
    to the next, and fast stretches are the rarer ones.  The fastest of a
    few repeats falls in a fast stretch on some runs and not on others; the
    median of three or more repeats, each in another round, is steadier.
    """
    return [statistics.median(b[i].seconds for b in rounds if b[i].seconds is not None)
            for i, first in enumerate(rounds[0]) if not first.error]


def per_layer(tracer, rounds):
    """Per-layer metrics per round of the workload (rounds are identical)."""
    totals = tracer.totals()
    values = {}
    for name, unit in per_layer_names():
        prefix, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and prefix in totals:
            calls, secs, self_s = totals[prefix]
            raw = {"calls": calls, "s": secs, "self_s": self_s}[field]
        else:
            raw = tracer.counts.get(name, 0)
        value = raw / rounds
        values[name] = int(value) if unit == "count" and value == int(value) else value
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
