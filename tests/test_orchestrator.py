"""Alternating-optimization loop: initialization, safeguarded descent,
feasibility audits, and the benchmark schemes."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from aris_emf import channel, orchestrator, ris_phase, trajectory
from aris_emf.beamforming import optimize_beamformer
from aris_emf.channel import channel_gain, gram
from aris_emf.convex_kernels import ConvexSolverError
from aris_emf.exposure import (InfeasibleError, exposure_index, power_factor,
                               reference_sar)
from aris_emf.harness import MC_EPS, MC_KNOBS
from aris_emf.orchestrator import (
    AoKnobs,
    _block_beams,
    _trajectory_field,
    baseline_fixed_ris,
    baseline_no_ris,
    initialize_state,
    march_path,
    run_ao,
)
from aris_emf.channel import STREAM_GR, ChannelSet, rng_stream, slot_groups
from aris_emf.scenario import Scenario, SystemParams, desk_scenario, load_scenario
from aris_emf.trajectory import link_distances, straight_trajectory
from oracles import fingerprint, min_power_for_rate, slot_major_sweep

FAST = AoKnobs(traj_outers=1)
FULL_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "full.cfg")


def straight_path(scenario):
    return straight_trajectory(scenario.aris_start, scenario.aris_end, scenario.params.num_slots)


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
    parked = straight_trajectory(pos, pos, sc.params.num_slots)
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
def test_a_given_straight_path_runs_as_the_default_start():
    sc = desk_scenario()
    a, ra = run_ao(sc, trial=1, eps=MC_EPS, knobs=MC_KNOBS)
    b, rb = run_ao(sc, trial=1, eps=MC_EPS, knobs=MC_KNOBS, path=straight_path(sc))
    assert repr(ra.exposure_index) == repr(rb.exposure_index)
    for x, y in ((ra.per_user_exposure, rb.per_user_exposure),
                 (ra.achieved_rates, rb.achieved_rates), (a.trajectory, b.trajectory)):
        assert x.tobytes() == y.tobytes()
    assert a.trace == b.trace


def test_with_the_path_block_off_a_given_march_path_is_kept():
    sc = desk_scenario()
    p = sc.params
    march = march_path(sc.aris_start, [0.0, 0.0, p.aris_height], p.max_slot_distance,
                       p.num_slots)
    assert not np.array_equal(march, straight_path(sc))
    pinned = dataclasses.replace(sc, aris_start=march[0], aris_end=march[-1])
    state, _ = run_ao(pinned, trial=0, eps=MC_EPS, knobs=MC_KNOBS,
                      enable_trajectory=False, path=march.copy())
    np.testing.assert_array_equal(state.trajectory, march)
    assert state.audit()


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
    assert state.counters["beam_links"] > 0
    assert state.counters["phase_calls"] > 0
    assert state.counters["phase_steps"] >= state.counters["phase_calls"]
    assert state.counters["sca_iters"] > 0
    # on a full-scale phase block most restarts rejoin a no-worse column and
    # retire; with no restarts none does
    sc = load_scenario(FULL_CFG)
    rngs = [rng_stream(sc.rng_seed, 0, ell, 0, STREAM_GR) for ell in range(sc.params.num_slots)]
    state = make_state(sc)
    orchestrator._block_phases(state, rngs)
    assert state.counters["phase_retired"] > 0
    state = make_state(sc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ris_phase, "MM_RESTARTS", 0)
        orchestrator._block_phases(state, rngs)
    assert state.counters["phase_calls"] > 0 and state.counters["phase_retired"] == 0


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


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_block_major_sweep_matches_the_slot_major_order(trial, monkeypatch):
    # the orders differ only where a candidate ties its slot to within
    # rounding; on desk that moves per-user exposures by about 1e-15
    sc = desk_scenario()
    got, _ = run_ao(sc, trial=trial, eps=MC_EPS, knobs=MC_KNOBS)
    monkeypatch.setattr(orchestrator, "_sweep_slots", slot_major_sweep)
    want, _ = run_ao(sc, trial=trial, eps=MC_EPS, knobs=MC_KNOBS)
    np.testing.assert_allclose(got.per_user_exposure(), want.per_user_exposure(),
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.achieved_rates(), want.achieved_rates(),
                               rtol=1e-13, atol=0)


def test_a_failing_power_call_keeps_every_slot_and_is_counted(monkeypatch):
    def failing(*args):
        raise ArithmeticError("multiplier solve left user 0 short of its rate target")

    monkeypatch.setattr(orchestrator, "allocate_power", failing)
    sc = desk_scenario()
    start = make_state(sc)
    state, _ = run_ao(sc, trial=0, eps=MC_EPS, knobs=MC_KNOBS)
    assert state.counters["power_fallbacks"] > 0
    assert not any(e["event"] == "power" for e in state.trace)
    # only the power block writes delta and shares
    assert np.array_equal(state.delta, start.delta)
    assert np.array_equal(state.shares, start.shares)
    fields = ("delta", "shares", "powers")
    before = [getattr(start, f).copy() for f in fields]
    orchestrator._accept(start, "power", *orchestrator._block_power(start))
    for fname, arr in zip(fields, before):
        assert np.array_equal(getattr(start, fname), arr)
    assert start.counters["power_fallbacks"] == 1 and start.trace == []


@pytest.mark.parametrize("name", ["beams", "phases"])
def test_accept_refuses_a_slot_whose_lower_exposure_breaks_a_power_cap(name):
    # every slot's candidate lowers that slot's exposure sum, but in slot 2
    # it lifts user 1 to 1.5 p_max: that slot keeps its incumbent, whichever
    # block offers the candidate, and the other slots take theirs
    sc = desk_scenario()
    p = sc.params
    state = make_state(sc)
    bad, user = 2, 1
    sar, powers = 0.5 * state.sar, state.powers.copy()
    over = 1.5 * p.p_max / powers[bad, user].sum()
    powers[bad, user] *= over
    sar[bad] /= 2.0 * over
    cand = {"sar": sar, "powers": powers}
    assert np.all(np.einsum("lun,lun,lun->l", state.delta, powers, sar)
                  < state.per_user_exposure().sum(axis=0))
    incumbent = {fname: getattr(state, fname).copy() for fname in cand}
    orchestrator._accept(state, name, np.ones(p.num_slots, dtype=bool), cand)
    kept = np.arange(p.num_slots) != bad
    for fname, value in cand.items():
        assert np.array_equal(getattr(state, fname)[kept], value[kept])
        assert np.array_equal(getattr(state, fname)[bad], incumbent[fname][bad])
    assert [(e["event"], e["slot"]) for e in state.trace] == [
        (name, ell) for ell in np.flatnonzero(kept)]


def test_a_failing_path_solve_keeps_the_path_and_is_counted(monkeypatch):
    def failing(*args, **kwargs):
        raise ConvexSolverError("synthetic failure")

    monkeypatch.setattr(trajectory, "solve_convex_program", failing)
    sc = desk_scenario()
    start = make_state(sc)
    with pytest.warns(RuntimeWarning, match="keeping current waypoints"):
        state, _ = run_ao(sc, trial=0, eps=MC_EPS, knobs=MC_KNOBS)
    assert state.counters["path_fallbacks"] > 0
    assert np.array_equal(state.trajectory, start.trajectory)


def per_slot_beam_candidate(state, ell):
    """The beam block's candidate for slot ell from a search on that slot's
    links alone, as a search at the slot's own turn in the sweep builds it."""
    sc = state.scenario
    p = sc.params
    u, n = np.nonzero(state.delta[ell])
    h_eff = state.channels.effective(ell, n, u, state.thetas[ell])
    pf = power_factor(state.shares[ell, u, n], p.noise_per_re, p.bandwidth_per_re)
    found, _ = optimize_beamformer(gram(h_eff), sc.sar_model, pf)
    new_gain = channel_gain(h_eff, found)
    new_sar = reference_sar(sc.sar_model, np.moveaxis(found.alpha, -1, 0),
                            found.beta[..., 1])
    old_gain, old_sar = state.gamma[ell, u, n], state.sar[ell, u, n]
    take = (new_gain > 0) & (new_sar * pf / new_gain
                             <= old_sar * pf / old_gain * (1.0 + 1e-12))
    beams, gamma, sar = (arr[ell].copy() for arr in (state.beams, state.gamma, state.sar))
    u, n = u[take], n[take]
    beams[u, n], gamma[u, n], sar[u, n] = found[take], new_gain[take], new_sar[take]
    active = state.delta[ell] > 0
    powers = np.zeros_like(gamma)
    powers[active] = power_factor(state.shares[ell][active], p.noise_per_re,
                                  p.bandwidth_per_re) / gamma[active]
    return beams, gamma, sar, powers


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_sweep_wide_beam_candidates_match_per_slot_searches(trial):
    # at the first sweep's start (neutral beams) and at the second's
    sc = desk_scenario()
    first = make_state(sc, trial)
    second, _ = run_ao(sc, trial=trial, eps=MC_EPS, max_outer=1, knobs=MC_KNOBS)
    for state in (first, second):
        ok, cand = _block_beams(state)
        assert ok.shape == (sc.params.num_slots,)
        for ell in range(sc.params.num_slots):
            want = per_slot_beam_candidate(state, ell)
            assert ok[ell]
            for got_arr, want_arr in zip([a[ell] for a in cand.values()], want):
                assert np.array_equal(got_arr, want_arr)


def counting_beam_searches(monkeypatch):
    """The link counts of the AO's optimize_beamformer calls, as they happen."""
    calls = []
    search = orchestrator.optimize_beamformer

    def counting(k_mat, model, constants):
        calls.append(len(k_mat))
        return search(k_mat, model, constants)

    monkeypatch.setattr(orchestrator, "optimize_beamformer", counting)
    return calls


@pytest.mark.parametrize("group_links, searched", [(1, [8] * 6), (20, [16] * 3),
                                                    (128, [48])])
def test_grouped_beam_search_matches_per_slot_calls(group_links, searched, monkeypatch):
    # desk's six 8-link slots: one slot a group, two slots a group, all in one
    monkeypatch.setattr(channel, "GROUP_LINKS", group_links)
    calls = counting_beam_searches(monkeypatch)
    state = make_state(desk_scenario(), trial=1)
    ok, cand = _block_beams(state)
    assert calls == searched
    for ell in range(state.scenario.params.num_slots):
        assert ok[ell]
        for got_arr, want_arr in zip([a[ell] for a in cand.values()],
                                     per_slot_beam_candidate(state, ell)):
            assert np.array_equal(got_arr, want_arr)


def test_a_zero_gain_link_marks_only_its_slot_unusable(monkeypatch):
    sc = desk_scenario()
    state = make_state(sc, trial=0)
    _, want = _block_beams(state)
    l, u, n = np.nonzero(state.delta)
    assert slot_groups(l) == [(0, l.size)]
    dead = np.flatnonzero(l == 3)[2]
    effective = state.channels.effective

    def with_a_dead_link(ell, *args):
        h_eff = effective(ell, *args)
        if np.ndim(ell):        # the block's sweep-wide call
            h_eff[dead] = 0.0
        return h_eff

    monkeypatch.setattr(state.channels, "effective", with_a_dead_link)
    calls = counting_beam_searches(monkeypatch)
    ok, got = _block_beams(state)
    assert calls == [l.size]
    assert not ok[3]
    assert state.counters["beam_unusable"] == 1
    for ell in set(range(sc.params.num_slots)) - {3}:
        assert ok[ell]
        for got_arr, want_arr in zip([a[ell] for a in got.values()],
                                     [a[ell] for a in want.values()]):
            assert np.array_equal(got_arr, want_arr)


def test_full_scale_beam_block_stays_small_in_memory():
    # each 80-link full.cfg slot is its own group; tracemalloc read 7.6 MB
    # for the block, and 135 MB with all 20 slots searched and mixed as one
    sc = load_scenario(FULL_CFG)
    state = make_state(sc)
    tracemalloc.start()
    try:
        ok, _ = _block_beams(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.shape == (sc.params.num_slots,)
    assert peak < 16e6


def test_full_scale_phase_block_stays_small_in_memory():
    # one ascent per slot; tracemalloc read 11.4 MB for the block, and every
    # slot's cascades gathered at once would add about 65 MB
    sc = load_scenario(FULL_CFG)
    state = make_state(sc)
    rngs = [rng_stream(sc.rng_seed, 0, ell, 0, STREAM_GR) for ell in range(sc.params.num_slots)]
    tracemalloc.start()
    try:
        ok, _ = orchestrator._block_phases(state, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.shape == (sc.params.num_slots,)
    assert peak < 24e6


def stencil_search_reference(scenario, channel_set, resolution=1.0):
    """fixed_position_search with every probe evaluated; returns the center
    and the probed points in order."""
    probes = []

    def value(point):
        probes.append((float(point[0]), float(point[1])))
        return orchestrator._hover_exposure(scenario, channel_set, point)

    center = np.zeros(2)
    radius = float(scenario.cell_radius)
    best_val = value(center)
    while radius >= resolution:
        moved = False
        for dx in (-radius, 0.0, radius):
            for dy in (-radius, 0.0, radius):
                cand = center + np.array([dx, dy])
                if (dx, dy) == (0.0, 0.0) or np.hypot(*cand) > scenario.cell_radius:
                    continue
                val = value(cand)
                if val < best_val:
                    best_val, center, moved = val, cand, True
        if not moved:
            radius *= 0.5
    return center, probes


@pytest.mark.parametrize("trial", [0, 1])
def test_hover_search_probes_each_distinct_point_once(trial, monkeypatch):
    sc = desk_scenario()
    cs = ChannelSet(sc, trial)
    want, probes = stencil_search_reference(sc, cs)
    probed = []
    initialize = orchestrator.initialize_state

    def counting(scenario, channel_set, path):
        probed.append((float(path[0, 0]), float(path[0, 1])))
        return initialize(scenario, channel_set, path)

    monkeypatch.setattr(orchestrator, "initialize_state", counting)
    got = orchestrator.fixed_position_search(sc, trial=trial, channel_set=cs)
    assert np.array_equal(got, want)
    assert len(set(probes)) < len(probes)
    assert len(probed) == len(set(probed)) == len(set(probes))


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
    report = baseline_no_ris(sc, trial=0, eps=1e-2)
    assert report.label == "no-ris"
    assert report.exposure_index > 0
    assert np.all(report.achieved_rates >= sc.rate_targets * (1 - 1e-6))


def test_fixed_ris_beats_direct_trajectory_at_desk_scale():
    sc = desk_scenario()
    fixed = baseline_fixed_ris(sc, trial=0, eps=1e-2)
    direct, _ = run_ao(sc, trial=0, eps=1e-2, knobs=FAST,
                       enable_trajectory=False)
    assert fixed.exposure_index <= direct.exposure()


def test_zero_phase_baseline_is_deterministic():
    sc = desk_scenario()
    a = run_ao(sc, trial=0, eps=1e-2, knobs=FAST, phase_mode="zero", label="zero")[1]
    b = run_ao(sc, trial=0, eps=1e-2, knobs=FAST, phase_mode="zero", label="zero")[1]
    assert a.exposure_index == b.exposure_index


def test_random_phase_baseline_is_reproducible():
    sc = desk_scenario()
    a = run_ao(sc, trial=2, eps=1e-2, knobs=FAST, phase_mode="random", label="random")[1]
    b = run_ao(sc, trial=2, eps=1e-2, knobs=FAST, phase_mode="random", label="random")[1]
    assert a.exposure_index == b.exposure_index


def test_unoptimized_phase_mode_is_validated():
    with pytest.raises(ValueError):
        run_ao(desk_scenario(), phase_mode="fancy", label="fancy")[1]


def test_schemes_share_channel_realizations_per_trial():
    sc = desk_scenario()
    with_ris = ChannelSet(sc, trial=5)
    again = ChannelSet(sc, trial=5)
    assert fingerprint(with_ris) == fingerprint(again)
    other_trial = ChannelSet(sc, trial=6)
    assert fingerprint(with_ris) != fingerprint(other_trial)


def test_optimized_beats_unoptimized_benchmarks_on_most_trials():
    sc = desk_scenario()
    wins_random, wins_noris = 0, 0
    trials = range(5)
    for trial in trials:
        opt, _ = run_ao(sc, trial=trial, eps=1e-2, knobs=FAST)
        rnd = run_ao(sc, trial=trial, eps=1e-2, knobs=FAST, phase_mode="random",
                     label="random")[1]
        bare = baseline_no_ris(sc, trial=trial, eps=1e-2)
        wins_random += opt.exposure() <= rnd.exposure_index
        wins_noris += opt.exposure() <= bare.exposure_index
    assert wins_random >= 4
    assert wins_noris >= 4
