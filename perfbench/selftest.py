"""Shows that each output check rejects a deliberately corrupted solve.

    python3 perfbench/selftest.py

Solves one small desk instance, confirms that the untouched state and
report pass every check, then corrupts one quantity at a time and confirms
that the check meant for it raises.  Also confirms that run.py prints the
metric names BENCHMARK.json lists.  Exits 0 when every case behaves.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from aris_emf import desk_scenario  # noqa: E402
from aris_emf.exposure import ExposureReport  # noqa: E402
from aris_emf.orchestrator import run_ao  # noqa: E402

import checks  # noqa: E402


def _first_link(state):
    l, u, n = np.nonzero(state.delta)
    return int(l[0]), int(u[0]), int(n[0])


def gain(state, report):
    state.gamma[_first_link(state)] *= 1.0 + 1e-6
    return state, report


def rate(state, report):
    state.powers[_first_link(state)] *= 0.9
    return state, report


def power_cap(state, report):
    l, u, n = _first_link(state)
    state.powers[l, u, n] += 2.0 * state.scenario.params.p_max
    return state, report


def owner(state, report):
    l, u, n = _first_link(state)
    state.delta[l, (u + 1) % state.delta.shape[1], n] = 1.0
    return state, report


def unit_modulus(state, report):
    state.thetas[0, 0] *= 1.01
    return state, report


def speed(state, report):
    state.trajectory = state.trajectory.copy()
    state.trajectory[2, 0] += 2.0 * state.scenario.params.max_slot_distance
    return state, report


def endpoint(state, report):
    state.trajectory = state.trajectory.copy()
    state.trajectory[-1, 0] += 1.0
    return state, report


def exposure(state, report):
    return state, ExposureReport(report.per_user_exposure,
                                 report.exposure_index * (1.0 + 1e-6),
                                 report.achieved_rates, report.label)


def trace(state, report):
    state.trace.insert(1, {"event": "beams", "slot": 0, "delta": 1e-12})
    return state, report


def report_index(scenario, report):
    return ExposureReport(report.per_user_exposure, report.exposure_index * (1.0 + 1e-6),
                          report.achieved_rates, report.label)


def report_rate(scenario, report):
    rates = report.achieved_rates.copy()
    rates[0] = 0.5 * scenario.rate_targets[0]
    return ExposureReport(report.per_user_exposure, report.exposure_index, rates,
                          report.label)


# corruption, the check that must reject it, and words its message holds
STATE_CASES = (
    (gain, lambda s, r: checks.check_gains_rates_caps(s), "cached link gain"),
    (rate, lambda s, r: checks.check_gains_rates_caps(s), "Shannon rate"),
    (power_cap, lambda s, r: checks.check_gains_rates_caps(s), "power cap"),
    (owner, lambda s, r: checks.check_allocation(s), "two owners"),
    (unit_modulus, lambda s, r: checks.check_phases(s), "unit modulus"),
    (speed, lambda s, r: checks.check_path(s), "speed limit"),
    (endpoint, lambda s, r: checks.check_path(s), "endpoints"),
    (exposure, checks.check_exposure, "exposure index"),
    (trace, lambda s, r: checks.check_trace(s.trace, r.exposure_index), "trace rises"),
)
REPORT_CASES = (
    (report_index, "per-user tensor"),
    (report_rate, "miss their targets"),
)


def _rejects(call, expected):
    try:
        call()
    except checks.CheckFailed as exc:
        return expected in str(exc), str(exc)
    return False, "accepted"


def check_metric_names():
    """The names run.py prints are exactly those BENCHMARK.json lists."""
    sys.path.insert(0, HERE)
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    ok = listed == set(run.END_TO_END)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    ok &= listed == run.per_layer_names()
    ok &= tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    return ok


def main():
    scenario = desk_scenario(num_ris_elements=8)
    state, report = run_ao(scenario, trial=0, max_outer=2)
    bad = 0
    try:
        checks.check_state(state, report)
        print("ok    untouched state passes every check")
    except checks.CheckFailed as exc:
        print(f"FAIL  untouched state rejected: {exc}")
        bad += 1
    for corrupt, check, expected in STATE_CASES:
        s, r = corrupt(copy.deepcopy(state), report)
        ok, why = _rejects(lambda: check(s, r), expected)
        print(f"{'ok   ' if ok else 'FAIL '} {corrupt.__name__}: {why}")
        bad += not ok
    for corrupt, expected in REPORT_CASES:
        r = corrupt(scenario, report)
        ok, why = _rejects(lambda: checks.check_report(r, scenario), expected)
        print(f"{'ok   ' if ok else 'FAIL '} {corrupt.__name__}: {why}")
        bad += not ok
    names_ok = check_metric_names()
    print(f"{'ok   ' if names_ok else 'FAIL '} BENCHMARK.json lists the metrics run.py prints")
    bad += not names_ok
    print(f"{bad} failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
