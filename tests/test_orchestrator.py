"""Alternating-optimization loop: initialization, safeguarded descent,
feasibility audits, and the benchmark schemes."""

import warnings

import numpy as np
import pytest

from aris_emf.exposure import InfeasibleError, exposure_index, min_power_for_rate
from aris_emf.harness import MC_EPS, MC_KNOBS
from aris_emf.orchestrator import (
    AoKnobs,
    _trajectory_field,
    baseline_fixed_ris,
    baseline_no_ris,
    baseline_unoptimized_phases,
    initialize_state,
    run_ao,
)
from aris_emf.channel import ChannelSet
from aris_emf.scenario import Scenario, SystemParams, desk_scenario
from aris_emf.trajectory import link_distances, straight_trajectory

FAST = AoKnobs(traj_outers=1)


def straight_path(scenario):
    return straight_trajectory(scenario.aris_start, scenario.aris_end,
                               scenario.num_slots).points


def make_state(scenario, trial=0):
    cs = ChannelSet(scenario, trial)
    return initialize_state(scenario, cs, straight_path(scenario))


# ---------------------------------------------------------------------------
# initialization


def test_single_user_single_re_power_is_minimal():
    sc = desk_scenario(num_users=1, num_subcarriers=1, flight_time=30.0,
                       rates=(1e6,))
    assert sc.params.num_slots == 2
    state = make_state(sc)
    assert state.delta.sum() == sc.params.num_slots  # the one RE, every slot
    for ell in range(sc.params.num_slots):
        assert state.delta[ell, 0, 0] == 1.0
        expected = min_power_for_rate(sc.rate_targets[0], state.gamma[ell, 0, 0],
                                      sc.params.noise_per_re,
                                      sc.params.bandwidth_per_re)
        assert state.powers[ell, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_equidistant_users_get_equal_re_counts():
    base = desk_scenario()
    radius = 50.0
    angles = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
    users = np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                             np.zeros(4)])
    sc = Scenario(params=base.params, bs_position=base.bs_position,
                  user_positions=users,
                  rate_targets=np.full(4, 6e6), aris_start=base.aris_start,
                  aris_end=base.aris_end, sar_model=base.sar_model,
                  rng_seed=base.rng_seed, cell_radius=base.cell_radius)
    state = make_state(sc)
    counts = state.delta.sum(axis=2)  # (N_T, U)
    assert counts.max() - counts.min() <= 1.0


def test_initial_rates_meet_targets_with_equality():
    sc = desk_scenario()
    state = make_state(sc)
    for ell in range(sc.params.num_slots):
        rates = state.slot_rates(ell)
        np.testing.assert_allclose(rates, sc.rate_targets, rtol=1e-9)


def test_infeasible_initialization_names_users():
    sc = desk_scenario(p_max=1e-9)
    with pytest.raises(InfeasibleError, match="users"):
        make_state(sc)


def test_initialization_realizes_channels_at_the_given_path():
    sc = desk_scenario()
    path = straight_path(sc).copy()
    path[1:-1, 0] += 10.0
    state = initialize_state(sc, ChannelSet(sc, 0), path)
    np.testing.assert_array_equal(state.channels.trajectory, path)
    np.testing.assert_array_equal(state.trajectory, path)


def test_initialization_checks_caps_at_the_given_path():
    # a cap the straight start meets, broken by a start parked elsewhere
    sc = desk_scenario()
    pos = np.array([-50.0, -50.0, sc.params.aris_height])
    parked = straight_trajectory(pos, pos, sc.num_slots).points
    straight_spend = make_state(sc).powers.sum(axis=2).max()
    parked_state = initialize_state(sc, ChannelSet(sc, 0), parked)
    parked_spend = parked_state.powers.sum(axis=2).max()
    assert parked_spend > 1.001 * straight_spend
    capped = desk_scenario(p_max=1.0001 * straight_spend)
    make_state(capped)
    with pytest.raises(InfeasibleError, match=r"power cap for users \[\d"):
        initialize_state(capped, ChannelSet(capped, 0), parked)


def test_initialization_requires_enough_resource_elements():
    with pytest.raises(InfeasibleError):
        make_state(desk_scenario(num_users=4, num_subcarriers=3,
                                 rates=(1e6,) * 4))


# ---------------------------------------------------------------------------
# the alternating loop


def test_desk_run_never_increases_exposure():
    sc = desk_scenario()
    for trial in range(3):
        state, report = run_ao(sc, trial=trial, eps=1e-2, knobs=FAST)
        init = next(e["exposure"] for e in state.trace if e["event"] == "init")
        assert state.exposure() <= init
        outer_values = [e["exposure"] for e in state.trace
                        if e["event"] == "outer"]
        assert all(b <= a * (1 + 1e-12)
                   for a, b in zip(outer_values, outer_values[1:]))
        np.testing.assert_allclose(report.achieved_rates, sc.rate_targets,
                                   rtol=1e-6)


def test_run_starts_from_the_straight_line_initialization():
    sc = desk_scenario()
    state, _ = run_ao(sc, trial=0, max_outer=1, enable_trajectory=False)
    init = next(e["exposure"] for e in state.trace if e["event"] == "init")
    expected = initialize_state(sc, ChannelSet(sc, 0), straight_path(sc))
    assert init == expected.exposure()


@pytest.mark.slow
def test_logged_block_deltas_are_never_positive():
    sc = desk_scenario()
    block_names = {"beams", "phases", "allocation", "power", "trajectory"}
    seen = set()
    for trial in range(20):
        state, _ = run_ao(sc, trial=trial, eps=1e-2, knobs=FAST)
        for entry in state.trace:
            if entry["event"] in block_names:
                assert entry["delta"] <= 0.0
                seen.add(entry["event"])
    assert "beams" in seen and "phases" in seen and "power" in seen


def test_audit_passes_on_final_state():
    sc = desk_scenario()
    state, _ = run_ao(sc, trial=1, eps=1e-2, knobs=FAST)
    state.audit()  # raises on any violated constraint


def test_counters_track_inner_solver_work():
    sc = desk_scenario()
    state, _ = run_ao(sc, trial=0, eps=1e-2, knobs=FAST)
    assert state.counters["dinkelbach_calls"] > 0
    assert state.counters["phase_calls"] > 0
    assert state.counters["sca_iters"] > 0


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_path_field_matches_the_cached_gains(trial):
    # the path block's a, b and direct floor rebuild each active link's gain
    # at the current path; they must agree with the gains the other blocks cache
    sc = desk_scenario()
    state, _ = run_ao(sc, trial=trial, eps=MC_EPS, max_outer=1, knobs=MC_KNOBS)
    d_ur, d_rb = link_distances(state.trajectory, sc.user_positions, sc.bs_position)
    gains = _trajectory_field(state).gains(d_ur, d_rb)
    active = state.delta > 0
    assert np.allclose(gains[active], state.gamma[active], rtol=1e-12, atol=0)


@pytest.mark.parametrize("trial", [5, 8, 13, 16])
def test_path_subproblem_converges_on_desk_trials(trial):
    # these trials once ran the path block's barrier out of Newton steps, and
    # the SCA step fell back to the incumbent waypoints with a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_ao(desk_scenario(), trial=trial, eps=MC_EPS, knobs=MC_KNOBS)
    failed = [str(w.message) for w in caught
              if "path subproblem failed" in str(w.message)]
    assert failed == []


def test_beams_are_a_float_record_array():
    state = make_state(desk_scenario())
    assert state.beams.shape == state.delta.shape
    assert state.beams.alpha.dtype == float and state.beams.alpha.shape[-1] == 2
    assert np.all(state.beams.alpha[..., 0] == 1.0)
    assert np.all(state.beams.beta[..., 0] == 0.0)


def test_same_trial_reruns_identically():
    sc = desk_scenario()
    a, _ = run_ao(sc, trial=3, eps=1e-2, knobs=FAST)
    b, _ = run_ao(sc, trial=3, eps=1e-2, knobs=FAST)
    assert a.exposure() == b.exposure()
    np.testing.assert_array_equal(a.trajectory, b.trajectory)


# ---------------------------------------------------------------------------
# benchmark schemes


def test_zero_users_exposure_is_zero_by_convention():
    # The scenario type requires at least one user, so the empty-network
    # convention lives in the aggregation: an empty per-user matrix scores 0.
    assert exposure_index(np.zeros((0, 6)), 15.0) == 0.0


def test_no_ris_baseline_runs_without_surface():
    sc = desk_scenario()
    report = baseline_no_ris(sc, trial=0, eps=1e-2, knobs=FAST)
    assert report.label == "no-ris"
    assert report.exposure_index > 0
    assert np.all(report.achieved_rates >= sc.rate_targets * (1 - 1e-6))


def test_fixed_ris_beats_direct_trajectory_at_desk_scale():
    sc = desk_scenario()
    fixed = baseline_fixed_ris(sc, trial=0, eps=1e-2, knobs=FAST)
    direct, _ = run_ao(sc, trial=0, eps=1e-2, knobs=FAST,
                       enable_trajectory=False)
    assert fixed.exposure_index <= direct.exposure()


def test_zero_phase_baseline_is_deterministic():
    sc = desk_scenario()
    a = baseline_unoptimized_phases(sc, "zero", trial=0, eps=1e-2, knobs=FAST)
    b = baseline_unoptimized_phases(sc, "zero", trial=0, eps=1e-2, knobs=FAST)
    assert a.exposure_index == b.exposure_index


def test_random_phase_baseline_is_reproducible():
    sc = desk_scenario()
    a = baseline_unoptimized_phases(sc, "random", trial=2, eps=1e-2, knobs=FAST)
    b = baseline_unoptimized_phases(sc, "random", trial=2, eps=1e-2, knobs=FAST)
    assert a.exposure_index == b.exposure_index


def test_unoptimized_phase_mode_is_validated():
    with pytest.raises(ValueError):
        baseline_unoptimized_phases(desk_scenario(), "fancy")


def test_schemes_share_channel_realizations_per_trial():
    sc = desk_scenario()
    with_ris = ChannelSet(sc, trial=5)
    again = ChannelSet(sc, trial=5)
    assert with_ris.fingerprint() == again.fingerprint()
    other_trial = ChannelSet(sc, trial=6)
    assert with_ris.fingerprint() != other_trial.fingerprint()


def test_optimized_beats_unoptimized_benchmarks_on_most_trials():
    sc = desk_scenario()
    wins_random, wins_noris = 0, 0
    trials = range(5)
    for trial in trials:
        opt, _ = run_ao(sc, trial=trial, eps=1e-2, knobs=FAST)
        rnd = baseline_unoptimized_phases(sc, "random", trial=trial, eps=1e-2,
                                          knobs=FAST)
        bare = baseline_no_ris(sc, trial=trial, eps=1e-2, knobs=FAST)
        wins_random += opt.exposure() <= rnd.exposure_index
        wins_noris += opt.exposure() <= bare.exposure_index
    assert wins_random >= 4
    assert wins_noris >= 4
