"""Command-line surface: optimize one instance, sweep a parameter, dump
flight paths, or build exposure CDFs.  Exit codes: 0 success, 2 when the
instance is infeasible (rate targets cannot be met under the power cap),
1 on any other error."""

import argparse
import os
import sys

from .exposure import InfeasibleError
from .harness import (
    SCHEMES,
    SWEEPABLE,
    SweepSpec,
    Table,
    cdf_table,
    export_table,
    monte_carlo_sweep,
    trajectory_report,
    xy_table,
)
from .orchestrator import run_ao
from .scenario import ConfigError, load_scenario, parse_value


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 (2 is reserved for infeasible instances)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="aris-emf",
                     description="EMF-exposure-minimizing uplink simulator "
                                 "with a flying reflective surface")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="scenario config file (key = value lines)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's master seed")
        p.add_argument("--out", default=None,
                       help="directory for output files (default: no files, "
                            "print a summary only)")

    p_opt = sub.add_parser("optimize",
                           help="run the full optimizer on one instance")
    common(p_opt)
    p_opt.add_argument("--trial", type=int, default=0,
                       help="channel-realization index (default 0)")

    p_sweep = sub.add_parser("sweep", help="Monte Carlo parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(SWEEPABLE),
                         help="swept parameter: mr (receive antennas), "
                              "n (surface elements), noise (PSD, dBm/Hz)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated, strictly increasing values")
    p_sweep.add_argument("--trials", type=int, default=10,
                         help="paired trials per sweep point (default 10)")
    p_sweep.add_argument("--schemes", default=",".join(SCHEMES),
                         help="comma-separated subset of: " + ", ".join(SCHEMES))

    p_traj = sub.add_parser("trajectory",
                            help="emit flight paths for the optimized, "
                                 "direct, and fixed-hover policies")
    common(p_traj)
    p_traj.add_argument("--trial", type=int, default=0)

    p_cdf = sub.add_parser("cdf",
                           help="empirical CDF of per-user maximum exposure, "
                                "with and without the surface")
    common(p_cdf)
    p_cdf.add_argument("--trials", type=int, default=20)
    return parser


def _load(args):
    overrides = {"seed": args.seed} if args.seed is not None else None
    return load_scenario(args.config, overrides)


def _outdir(args):
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cmd_optimize(args):
    scenario = _load(args)
    state, report = run_ao(scenario, trial=args.trial)
    p = scenario.params
    print(f"exposure index: {report.exposure_index!r}")
    init = next(e["exposure"] for e in state.trace if e["event"] == "init")
    print(f"reduction vs. initialization: {(1 - report.exposure_index / init) * 100:.2f}%")
    outers = sum(1 for e in state.trace if e["event"] == "outer")
    print(f"outer iterations: {outers}")
    rates = ", ".join(f"{r / 1e6:.3f}" for r in report.achieved_rates)
    print(f"achieved rates (Mb/s): {rates}")
    out = _outdir(args)
    if out is not None:
        summary = Table(("scheme", "exposure_index"),
                        [(report.label, report.exposure_index)])
        export_table(summary, "csv", os.path.join(out, "summary.csv"))
        rows = [(u, ell, float(report.per_user_exposure[u, ell]))
                for u in range(p.num_users) for ell in range(p.num_slots)]
        export_table(Table(("user", "slot", "exposure"), rows), "csv",
                     os.path.join(out, "per_user_exposure.csv"))
        path_rows = [(float(q[0]), float(q[1])) for q in state.trajectory]
        export_table(Table(("x", "y"), path_rows), "dat",
                     os.path.join(out, "path.dat"))
        print(f"wrote summary.csv, per_user_exposure.csv, path.dat to {out}")
    return 0


def _cmd_sweep(args):
    scenario = _load(args)
    parameter = SWEEPABLE[args.param]
    try:  # read in the config file's units, e.g. noise as dBm/Hz
        values = [parse_value(parameter, v) for v in args.values.split(",") if v.strip()]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"--values {args.values!r}: {exc}") from None
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    spec = SweepSpec(parameter, tuple(values), args.trials, schemes, scenario)
    result = monte_carlo_sweep(spec)
    for row in result.table.rows:
        print(" ".join(str(v) for v in row))
    flagged = [r for r in result.table.rows if r[-1]]
    if flagged:
        print(f"warning: {len(flagged)} sweep point(s) exceeded 10% trial "
              f"failures", file=sys.stderr)
    out = _outdir(args)
    if out is not None:
        export_table(result.table, "csv", os.path.join(out, "sweep.csv"))
        for scheme in schemes:
            export_table(xy_table(result, scheme), "dat",
                         os.path.join(out, f"{scheme}.dat"))
        print(f"wrote sweep.csv and per-scheme .dat files to {out}")
    return 0


def _cmd_trajectory(args):
    scenario = _load(args)
    table = trajectory_report(scenario, trial=args.trial)
    for row in table.rows:
        print(" ".join(str(v) for v in row))
    out = _outdir(args)
    if out is not None:
        export_table(table, "csv", os.path.join(out, "trajectory.csv"))
        for scheme in ("optimized", "direct", "fixed"):
            rows = [(r[2], r[3]) for r in table.rows if r[0] == scheme]
            export_table(Table(("x", "y"), rows), "dat",
                         os.path.join(out, f"{scheme}.dat"))
        print(f"wrote trajectory.csv and per-policy .dat files to {out}")
    return 0


def _cmd_cdf(args):
    scenario = _load(args)
    n = scenario.params.num_ris_elements
    spec = SweepSpec("num_ris_elements", (n,), args.trials,
                     ("proposed", "no-ris"), scenario)
    result = monte_carlo_sweep(spec)
    for scheme in spec.schemes:
        if not result.max_samples[(n, scheme)]:
            trial, message = result.failures[(n, scheme)][0]
            raise InfeasibleError(f"{scheme} failed every trial; trial {trial}: {message}")
    with_aris = cdf_table(result.max_samples[(n, "proposed")])
    without = cdf_table(result.max_samples[(n, "no-ris")])
    print("max-exposure CDF (with surface):")
    for v, f in with_aris.rows:
        print(f"  {v!r} {f!r}")
    print("max-exposure CDF (no surface):")
    for v, f in without.rows:
        print(f"  {v!r} {f!r}")
    out = _outdir(args)
    if out is not None:
        export_table(with_aris, "dat", os.path.join(out, "cdf_with_aris.dat"))
        export_table(without, "dat", os.path.join(out, "cdf_no_ris.dat"))
        export_table(with_aris, "csv", os.path.join(out, "cdf_with_aris.csv"))
        export_table(without, "csv", os.path.join(out, "cdf_no_ris.csv"))
        print(f"wrote CDF tables to {out}")
    return 0


_COMMANDS = {"optimize": _cmd_optimize, "sweep": _cmd_sweep,
             "trajectory": _cmd_trajectory, "cdf": _cmd_cdf}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
