"""Monte Carlo driver and CLI: sweep aggregation, CDFs, deterministic
exports, flight-path tables, and exit codes."""

import csv
import filecmp
import io

import numpy as np
import pytest

from aris_emf import orchestrator
from aris_emf.channel import ChannelSet
from aris_emf.cli import main
from aris_emf.harness import (
    MC_EPS,
    MC_KNOBS,
    SCHEMES,
    SweepSpec,
    Table,
    cdf_table,
    export_table,
    exposure_cdf,
    monte_carlo_sweep,
    trajectory_report,
    xy_table,
)
from aris_emf.orchestrator import baseline_fixed_ris, baseline_no_ris, run_ao
from aris_emf.scenario import desk_scenario, save_scenario, scenario_with
from oracles import fingerprint

DESK = desk_scenario()


# ---------------------------------------------------------------------------
# sweep specification


def test_sweep_spec_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="parameter"):
        SweepSpec("tx_power", (1, 2), 1, ("proposed",), DESK)


def test_sweep_spec_requires_values():
    with pytest.raises(ValueError):
        SweepSpec("rx_antennas", (), 1, ("proposed",), DESK)


def test_sweep_spec_requires_strictly_increasing_values():
    with pytest.raises(ValueError, match="increasing"):
        SweepSpec("rx_antennas", (8, 8), 1, ("proposed",), DESK)
    with pytest.raises(ValueError, match="increasing"):
        SweepSpec("rx_antennas", (16, 8), 1, ("proposed",), DESK)


@pytest.mark.parametrize("trials", [0, -1, 2.5, 2.0, True, "3"])
def test_sweep_spec_requires_a_positive_integer_trial_count(trials):
    with pytest.raises(ValueError, match="trials"):
        SweepSpec("rx_antennas", (4, 8), trials, ("proposed",), DESK)


def test_sweep_spec_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="schemes"):
        SweepSpec("rx_antennas", (4, 8), 1, ("proposed", "psychic"), DESK)


# ---------------------------------------------------------------------------
# sweep execution


def test_minimal_sweep_yields_one_row():
    spec = SweepSpec("num_ris_elements", (16,), 1, ("no-ris",), DESK)
    result = monte_carlo_sweep(spec)
    assert len(result.table.rows) == 1
    row = dict(zip(result.table.columns, result.table.rows[0]))
    assert row["scheme"] == "no-ris"
    assert row["trials"] == 1
    assert row["failures"] == 0
    assert row["stderr"] == 0.0
    assert np.isfinite(row["mean_exposure"])


def test_sweep_is_deterministic_to_the_byte(tmp_path):
    spec = SweepSpec("num_ris_elements", (16,), 2, ("no-ris",), DESK)
    paths = []
    for name in ("a.csv", "b.csv"):
        result = monte_carlo_sweep(spec)
        paths.append(export_table(result.table, "csv", tmp_path / name))
    assert filecmp.cmp(*paths, shallow=False)


def test_sweep_records_and_flags_failures():
    sc = desk_scenario(p_max=1e-9)
    spec = SweepSpec("num_ris_elements", (16,), 2, ("no-ris",), sc)
    result = monte_carlo_sweep(spec)
    row = dict(zip(result.table.columns, result.table.rows[0]))
    assert row["failures"] == 2
    assert row["trials"] == 0
    assert row["flagged"] == 1
    assert np.isnan(row["mean_exposure"])
    assert len(result.failures[(16, "no-ris")]) == 2


def test_sweep_keeps_per_trial_pairing():
    spec = SweepSpec("num_ris_elements", (16,), 2, ("no-ris", "zero"), DESK)
    result = monte_carlo_sweep(spec)
    assert set(result.by_trial[(16, "no-ris")]) == {0, 1}
    assert set(result.by_trial[(16, "zero")]) == {0, 1}


def solved_alone(scheme, trial):
    """A scheme's exposure index from its own call, on a ChannelSet of its own."""
    args = dict(trial=trial, eps=MC_EPS)
    if scheme == "proposed":
        return run_ao(DESK, knobs=MC_KNOBS, **args)[1].exposure_index
    if scheme == "fixed":
        return baseline_fixed_ris(DESK, **args).exposure_index
    if scheme == "no-ris":
        return baseline_no_ris(DESK, **args).exposure_index
    return run_ao(DESK, knobs=MC_KNOBS, phase_mode=scheme, label=scheme,
                  **args)[1].exposure_index


@pytest.mark.parametrize("schemes", [SCHEMES, ("fixed",)], ids=["all", "fixed-alone"])
def test_shared_sweep_matches_each_scheme_run_alone(schemes):
    # fixed takes the trial's no-ris report for its travel slots, or solves
    # no-ris itself when that scheme is not swept
    result = monte_carlo_sweep(SweepSpec("num_ris_elements", (16,), 2, schemes, DESK))
    for scheme in schemes:
        assert result.by_trial[(16, scheme)] == {t: solved_alone(scheme, t) for t in (0, 1)}


def counting_channel_sets(monkeypatch):
    """The (surface size, trial) of each ChannelSet built, as it is built."""
    built = []
    init = ChannelSet.__init__

    def counting(self, scenario, trial):
        built.append((scenario.params.num_ris_elements, trial))
        init(self, scenario, trial)

    monkeypatch.setattr(ChannelSet, "__init__", counting)
    return built


def test_sweep_builds_one_channel_set_and_one_no_ris_solve_per_trial(monkeypatch):
    built, bare_solves = counting_channel_sets(monkeypatch), []
    solve = orchestrator.run_ao

    def counting_solves(scenario, **kwargs):
        if scenario.params.num_ris_elements == 0:
            bare_solves.append(kwargs["trial"])
        return solve(scenario, **kwargs)

    monkeypatch.setattr(orchestrator, "run_ao", counting_solves)
    # the default order lists fixed before no-ris
    monte_carlo_sweep(SweepSpec("num_ris_elements", (8, 16), 2, SCHEMES, DESK))
    assert built == [(8, 0), (8, 1), (16, 0), (16, 1)]
    assert bare_solves == [0, 1, 0, 1]


def test_no_ris_set_shares_the_trials_direct_draws():
    shared = ChannelSet(DESK, 3)
    before = fingerprint(shared)
    bare = scenario_with(DESK, num_ris_elements=0)
    derived, fresh = shared.without_surface(bare), ChannelSet(bare, 3)
    assert fingerprint(derived) == fingerprint(fresh)
    assert [a.shape for a in (derived._wg, derived._wh, derived._hd)] == \
        [a.shape for a in (fresh._wg, fresh._wh, fresh._hd)]
    assert np.shares_memory(derived._hd, shared._hd)
    report = baseline_no_ris(DESK, trial=3, eps=MC_EPS, channel_set=shared)
    assert report.exposure_index == solved_alone("no-ris", 3)
    assert fingerprint(shared) == before
    with pytest.raises(ValueError, match="no surface"):
        shared.without_surface(DESK)


def test_xy_table_extracts_one_scheme():
    spec = SweepSpec("num_ris_elements", (16,), 1, ("no-ris",), DESK)
    result = monte_carlo_sweep(spec)
    xy = xy_table(result, "no-ris")
    assert xy.columns == ("value", "mean_exposure")
    assert len(xy.rows) == 1
    with pytest.raises(ValueError):
        xy_table(result, "proposed")


# ---------------------------------------------------------------------------
# CDF


def test_cdf_single_sample():
    assert exposure_cdf([1]) == [(1.0, 1.0)]


def test_cdf_two_samples():
    assert exposure_cdf([2, 1]) == [(1.0, 0.5), (2.0, 1.0)]


def test_cdf_rejects_empty_input():
    with pytest.raises(ValueError):
        exposure_cdf([])


# ---------------------------------------------------------------------------
# table export


def test_csv_export_round_trips(tmp_path):
    table = Table(("x", "y"), [(1, 0.5), (2, 0.25)])
    path = export_table(table, "csv", tmp_path / "t.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y"]
    assert [(int(a), float(b)) for a, b in rows[1:]] == [(1, 0.5), (2, 0.25)]


def test_dat_export_is_two_bare_columns(tmp_path):
    table = Table(("x", "y"), [(1, 0.5), (2, 0.25)])
    path = export_table(table, "dat", tmp_path / "t.dat")
    lines = open(path).read().splitlines()
    assert all(len(line.split()) == 2 for line in lines)
    assert lines[0].split() == ["1", "0.5"]


def test_dat_export_rejects_wide_tables(tmp_path):
    table = Table(("x", "y", "z"), [(1, 2, 3)])
    with pytest.raises(ValueError, match="two columns"):
        export_table(table, "dat", tmp_path / "t.dat")


def test_unknown_export_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        export_table(Table(("x",), [(1,)]), "xlsx", tmp_path / "t.xlsx")


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="width"):
        Table(("x", "y"), [(1,)])


# ---------------------------------------------------------------------------
# trajectory report


def test_trajectory_report_covers_all_policies(monkeypatch):
    built = counting_channel_sets(monkeypatch)
    table = trajectory_report(DESK, trial=0)
    assert built == [(16, 0)]
    schemes = {r[0] for r in table.rows}
    assert schemes == {"optimized", "direct", "fixed"}
    n_slots = DESK.params.num_slots
    assert len(table.rows) == 3 * n_slots
    by_scheme = {s: [r for r in table.rows if r[0] == s] for s in schemes}
    for s in ("optimized", "direct"):
        first, last = by_scheme[s][0], by_scheme[s][-1]
        np.testing.assert_allclose(first[2:], DESK.aris_start)
        np.testing.assert_allclose(last[2:], DESK.aris_end)


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "desk.cfg"
    save_scenario(DESK, path)
    return str(path)


def test_cli_optimize_succeeds(config_path, tmp_path, capsys):
    code = main(["optimize", "--config", config_path,
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "exposure index" in out
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "path.dat").exists()


def test_cli_sweep_outputs_are_reproducible(config_path, tmp_path, capsys):
    args = ["sweep", "--config", config_path, "--param", "n",
            "--values", "16", "--trials", "1", "--schemes", "no-ris,zero"]
    for sub in ("r1", "r2"):
        code = main(args + ["--out", str(tmp_path / sub)])
        assert code == 0
    capsys.readouterr()
    for name in ("sweep.csv", "no-ris.dat", "zero.dat"):
        assert filecmp.cmp(tmp_path / "r1" / name, tmp_path / "r2" / name,
                           shallow=False)


def test_cli_trajectory_writes_path_files(config_path, tmp_path, capsys):
    code = main(["trajectory", "--config", config_path,
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    for name in ("trajectory.csv", "optimized.dat", "direct.dat",
                 "fixed.dat"):
        assert (tmp_path / name).exists()


def test_cli_cdf_writes_both_curves(config_path, tmp_path, capsys):
    code = main(["cdf", "--config", config_path, "--trials", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "cdf_with_aris.dat").exists()
    assert (tmp_path / "cdf_no_ris.dat").exists()


def test_cli_exit_codes(config_path, tmp_path, capsys):
    assert main(["optimize", "--config", "/does/not/exist.cfg"]) == 1
    infeasible = tmp_path / "tiny.cfg"
    infeasible.write_text("num_users = 4\nnum_subcarriers = 8\n"
                          "p_max = -40\nrates = [8e6, 6.5e6, 7.5e6, 5e6]\n")
    assert main(["optimize", "--config", str(infeasible)]) == 2
    assert main(["trajectory", "--config", str(infeasible)]) == 2
    assert main(["cdf", "--config", str(infeasible), "--trials", "1"]) == 2
    assert "infeasible: proposed failed every trial" in capsys.readouterr().err
    assert main(["sweep", "--config", config_path, "--param", "bogus",
                 "--values", "1"]) == 1
    assert main(["sweep", "--config", config_path, "--param", "n",
                 "--values", "16,8", "--trials", "1"]) == 1
    capsys.readouterr()


def test_cli_seed_override_changes_the_instance(config_path, capsys):
    assert main(["optimize", "--config", config_path]) == 0
    base = capsys.readouterr().out
    assert main(["optimize", "--config", config_path, "--seed", "11"]) == 0
    other = capsys.readouterr().out
    assert base != other
