"""Monte Carlo experiment driver: parameter sweeps over paired trials,
empirical CDFs, flight-path reports, and deterministic table export.

All schemes at a sweep point see identical channel draws for a given trial
index (stream derivation depends only on seed/trial/slot/subcarrier/link),
so scheme orderings are free of channel noise.  Everything downstream of a
fixed (seed, spec) pair is deterministic, including output bytes.  At full
scale that holds only at a fixed BLAS thread count: a threaded BLAS may sum
the matrix products in another order, and `configs/full.cfg` results move
in the last bits between 1 and 2 threads.  Desk results on trials 0-2 did
not depend on the thread count.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .exposure import InfeasibleError
from .orchestrator import (
    AoKnobs,
    baseline_fixed_ris,
    baseline_no_ris,
    hover_path,
    run_ao,
)
from .scenario import scenario_with
from .trajectory import straight_trajectory

# sweepable parameters, by their command-line alias
SWEEPABLE = {"mr": "rx_antennas", "n": "num_ris_elements", "noise": "noise_psd"}
SCHEMES = ("proposed", "fixed", "random", "zero", "no-ris")

# Monte Carlo default budgets: one linearized path move, loose outer stop.
MC_KNOBS = AoKnobs(traj_outers=1)
MC_EPS = 1e-2


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: which knob, which values, how many paired trials,
    which schemes, on which base scenario."""

    parameter: str
    values: tuple
    trials: int
    schemes: tuple
    scenario: object

    def __post_init__(self):
        if self.parameter not in SWEEPABLE.values():
            raise ValueError(f"unknown sweep parameter {self.parameter!r}; "
                             f"choose one of {tuple(SWEEPABLE.values())}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        object.__setattr__(self, "values", values)
        trials = self.trials
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        schemes = tuple(self.schemes)
        unknown = [s for s in schemes if s not in SCHEMES]
        if not schemes or unknown:
            raise ValueError(f"schemes must be a non-empty subset of {SCHEMES},"
                             f" got {schemes}")
        object.__setattr__(self, "schemes", schemes)


@dataclass(frozen=True)
class Table:
    """Column-named rows, ready for deterministic export."""

    columns: tuple
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("row width does not match column count")


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_table(table, fmt, path):
    """Write a Table as `csv` (header row) or `dat` (two bare "x y" columns).

    Float cells use shortest round-trip formatting, so a fixed table yields
    byte-identical files across runs.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    elif fmt == "dat":
        if len(table.columns) != 2:
            raise ValueError("dat export needs exactly two columns (x, y); "
                             f"got {len(table.columns)}")
        text = "".join(f"{_cell(a)} {_cell(b)}\n" for a, b in table.rows)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _run_scheme(scheme, scenario, trial, eps, knobs, channel_set, direct=None):
    """One scheme's report on the trial's channel_set; `fixed` charges its
    travel slots at `direct`, the trial's no-ris report, when given."""
    args = dict(trial=trial, eps=eps, channel_set=channel_set)
    if scheme == "proposed":
        return run_ao(scenario, knobs=knobs, **args)[1]
    if scheme == "fixed":
        return baseline_fixed_ris(scenario, direct=direct, **args)
    if scheme in ("random", "zero"):
        return run_ao(scenario, knobs=knobs, phase_mode=scheme, label=scheme, **args)[1]
    if scheme == "no-ris":
        return baseline_no_ris(scenario, **args)
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass
class SweepResult:
    """Aggregated sweep output plus the raw per-trial samples."""

    table: Table
    # (value, scheme) -> list of per-trial max per-user exposure
    max_samples: dict = field(default_factory=dict)
    # (value, scheme) -> {trial: exposure index} of the successful trials in
    # trial order: the table's samples, and the pairs of paired comparisons
    by_trial: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


def monte_carlo_sweep(spec, eps=MC_EPS, knobs=MC_KNOBS, progress=None):
    """Run every (value, scheme, trial) cell of the sweep.

    Returns a SweepResult whose table has one row per (value, scheme) with
    mean exposure index, standard error, successful-trial count, failure
    count, and a flag set when more than 10% of trials failed.  Paired
    design: a trial index reuses the same channel draws across schemes.
    Each (value, trial) builds one ChannelSet, which every scheme solves on
    (`no-ris` through ChannelSet.without_surface).  `no-ris` runs first in
    each trial, and `fixed` charges its travel slots at that report.
    """
    rows = []
    result = SweepResult(table=None)
    for value in spec.values:
        scn = scenario_with(spec.scenario, **{spec.parameter: value})
        point = getattr(scn.params, spec.parameter)
        # no-ris runs first in each trial, so fixed can reuse its report
        keys = {scheme: (point, scheme)
                for scheme in sorted(spec.schemes, key=lambda s: s != "no-ris")}
        for key in keys.values():
            result.max_samples[key] = []
            result.by_trial[key] = {}
            result.failures[key] = []
        for trial in range(spec.trials):
            shared = ChannelSet(scn, trial)
            reports = {}
            for scheme, key in keys.items():
                try:
                    report = _run_scheme(scheme, scn, trial, eps, knobs, shared,
                                         direct=reports.get("no-ris"))
                except InfeasibleError as exc:
                    result.failures[key].append((trial, str(exc)))
                    continue
                reports[scheme] = report
                result.by_trial[key][trial] = report.exposure_index
                per_user = report.per_user_index(scn.params.slot_duration)
                result.max_samples[key].append(float(per_user.max()))
                if progress is not None:
                    progress(point, scheme, trial, report.exposure_index)
        for scheme in sorted(spec.schemes):
            vals = list(result.by_trial[keys[scheme]].values())
            fails = len(result.failures[keys[scheme]])
            if vals:
                mean = float(np.mean(vals))
                stderr = (float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                          if len(vals) > 1 else 0.0)
            else:
                mean, stderr = float("nan"), float("nan")
            rows.append((spec.parameter, point, scheme, mean, stderr,
                         len(vals), fails, int(fails > 0.1 * spec.trials)))
    result.table = Table(
        ("parameter", "value", "scheme", "mean_exposure", "stderr",
         "trials", "failures", "flagged"), rows)
    return result


def xy_table(result, scheme):
    """Two-column (value, mean exposure) view of one scheme's sweep curve."""
    rows = [(r[1], r[3]) for r in result.table.rows if r[2] == scheme]
    if not rows:
        raise ValueError(f"scheme {scheme!r} not present in the sweep table")
    return Table(("value", "mean_exposure"), rows)


def exposure_cdf(samples):
    """Empirical CDF of the given exposures as sorted (value, k/n) pairs."""
    vals = [float(v) for v in samples]
    if not vals:
        raise ValueError("cannot build a CDF from zero samples")
    vals.sort()
    n = len(vals)
    return [(v, (k + 1) / n) for k, v in enumerate(vals)]


def cdf_table(samples):
    return Table(("exposure", "cdf"), exposure_cdf(samples))


def trajectory_report(scenario, trial=0, eps=MC_EPS, knobs=MC_KNOBS):
    """Flight paths flown by the three path policies, as one long table.

    Columns: scheme, slot, x, y, z.  `optimized` re-plans the path inside
    the alternating loop, `direct` flies the straight start-to-end line,
    and `fixed` marches to the recursively chosen hover point.
    """
    p = scenario.params
    channel_set = ChannelSet(scenario, trial)
    state, _ = run_ao(scenario, trial=trial, eps=eps, knobs=knobs,
                      channel_set=channel_set)
    direct = straight_trajectory(scenario.aris_start, scenario.aris_end, p.num_slots)
    fixed, _ = hover_path(scenario, trial=trial, channel_set=channel_set)
    rows = []
    for name, path in (("optimized", state.trajectory), ("direct", direct),
                       ("fixed", fixed)):
        for ell, q in enumerate(path):
            rows.append((name, ell, float(q[0]), float(q[1]), float(q[2])))
    return Table(("scheme", "slot", "x", "y", "z"), rows)
