"""Channel synthesis, effective channels, and the beamforming gain."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aris_emf import channel
from aris_emf.channel import (TWO_PI, TX_ANTENNAS, ChannelSet, beam_array,
                              beam_vector, channel_gain, gram, rng_stream, slot_groups)
from aris_emf.orchestrator import initialize_state, run_ao
from aris_emf.scenario import desk_scenario, load_scenario, scenario_from_options
from oracles import dense_mixtures, fingerprint

FULL_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "full.cfg")


# Per-link reference model: one draw of each channel at a given geometry,
# built from scratch, against which ChannelSet's batched realization is checked.

def _cgauss(rng, shape):
    """i.i.d. standard complex Gaussian entries, E|x|^2 = 1."""
    z = rng.standard_normal(size=shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)


def steering_vector(m, gamma, spacing):
    """ULA steering vector: entry k is exp(-j*2*pi*spacing*k*gamma), k = 0..m-1."""
    return np.exp(-1j * TWO_PI * spacing * np.arange(m) * gamma)


def _rician(rng_draw, los, k_factor):
    return math.sqrt(k_factor / (k_factor + 1.0)) * los \
        + math.sqrt(1.0 / (k_factor + 1.0)) * rng_draw


def synth_user_aris_channel(rng, user_pos, aris_pos, params):
    """One user->surface channel draw (N x M_t) at the given geometry."""
    p = params
    d = float(np.linalg.norm(np.asarray(user_pos) - np.asarray(aris_pos)))
    if d <= 0:
        raise ValueError("degenerate geometry: user and surface positions coincide")
    sin_arr = (user_pos[1] - aris_pos[1]) / d
    a_n = steering_vector(p.num_ris_elements, sin_arr, p.antenna_spacing_ratio)
    a_t = steering_vector(TX_ANTENNAS, sin_arr, p.antenna_spacing_ratio)
    los = np.outer(a_n, a_t.conj())
    w = _cgauss(rng, (p.num_ris_elements, TX_ANTENNAS))
    scale = math.sqrt(p.los_pathloss_ref * d ** (-p.ris_pathloss_exps[0]))
    return scale * _rician(w, los, p.rician_factors[0])


def synth_aris_bs_channel(rng, aris_pos, bs_pos, params):
    """One surface->BS channel draw (M_r x N) at the given geometry."""
    p = params
    d = float(np.linalg.norm(np.asarray(aris_pos) - np.asarray(bs_pos)))
    if d <= 0:
        raise ValueError("degenerate geometry: surface and BS positions coincide")
    sin_ang = (bs_pos[0] - aris_pos[0]) / d
    a_r = steering_vector(params.rx_antennas, sin_ang, p.antenna_spacing_ratio)
    a_n = steering_vector(params.num_ris_elements, sin_ang, p.antenna_spacing_ratio)
    los = np.outer(a_r, a_n.conj())
    w = _cgauss(rng, (p.rx_antennas, p.num_ris_elements))
    scale = math.sqrt(p.los_pathloss_ref * d ** (-p.ris_pathloss_exps[1]))
    return scale * _rician(w, los, p.rician_factors[1])


def synth_direct_channel(rng, user_pos, bs_pos, params):
    """One direct user->BS Rayleigh draw (M_r x M_t), per-entry variance rho1 * d^-kappa."""
    p = params
    d = float(np.linalg.norm(np.asarray(user_pos) - np.asarray(bs_pos)))
    if d <= 0:
        raise ValueError("degenerate geometry: user and BS positions coincide")
    scale = math.sqrt(p.nlos_pathloss_ref * d ** (-p.direct_pathloss_exp))
    return scale * _cgauss(rng, (p.rx_antennas, TX_ANTENNAS))


def effective_channel(h_mat, theta, g_mat, hd_mat):
    """Overall M_r x M_t channel H * diag(theta) * G + Hd."""
    h_mat = np.asarray(h_mat)
    g_mat = np.asarray(g_mat)
    theta = np.asarray(theta)
    if h_mat.shape[1] != theta.shape[0] or g_mat.shape[0] != theta.shape[0]:
        raise ValueError("dimension mismatch between surface response and channels")
    return h_mat @ (theta[:, None] * g_mat) + np.asarray(hd_mat)


def gain_from_quadratic(k_mat, alpha, beta):
    """Beamforming gain from the channel Gram matrix via the expanded cosine form.

    gamma = sum_i alpha_i k_ii
          + 2 sum_{i<j} sqrt(alpha_i alpha_j) |k_ij| cos(beta_j - beta_i + arg k_ij)
    """
    k_mat = np.asarray(k_mat)
    m = k_mat.shape[0]
    total = 0.0
    for i in range(m):
        total += alpha[i] * k_mat[i, i].real
    for i in range(m):
        for j in range(i + 1, m):
            kij = k_mat[i, j]
            total += 2.0 * math.sqrt(alpha[i] * alpha[j]) * abs(kij) \
                * math.cos(beta[j] - beta[i] + np.angle(kij))
    return float(total)


def gain_decomposition(hbar, gbar, hd_mat, f_vec, theta, rho):
    """Distance-free split of the gain: gamma = a/(d1^k1 d2^k2) + b/sqrt(d1^k1 d2^k2) + ||Hd f||^2.

    hbar, gbar are the unit-scale Rician mixtures (pathloss removed);
    hd_mat is the full direct channel. Returns (a, b).
    """
    cascade = np.asarray(hbar) @ (np.asarray(theta)[:, None] * np.asarray(gbar)) @ np.asarray(f_vec)
    direct = np.asarray(hd_mat) @ np.asarray(f_vec)
    a = rho ** 2 * float(np.vdot(cascade, cascade).real)
    b = 2.0 * rho * float(np.vdot(direct, cascade).real)
    return a, b


def small_params(**over):
    opts = dict(num_users=2, num_subcarriers=2, num_ris_elements=4,
                rx_antennas=3, slot_duration=15.0, flight_time=30.0,
                rates=(1e6, 1e6), seed=0)
    opts.update(over)
    return scenario_from_options(opts).params


def test_steering_vector_points():
    assert np.allclose(steering_vector(3, 0.0, 0.7), np.ones(3))
    assert np.allclose(steering_vector(4, 1.0, 0.5), [1, -1, 1, -1])
    assert np.allclose(steering_vector(2, 0.5, 0.5), [1, -1j])


@given(st.integers(min_value=1, max_value=16),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_steering_vector_unit_modulus(m, gamma, spacing):
    v = steering_vector(m, gamma, spacing)
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)


def test_user_aris_pure_los_rank_one():
    params = small_params(rician_factors=(1e12, 1e12))
    rng = np.random.default_rng(0)
    g = synth_user_aris_channel(rng, np.array([30.0, -20.0, 0.0]),
                                np.array([0.0, 0.0, 100.0]), params)
    d = math.sqrt(30 ** 2 + 20 ** 2 + 100 ** 2)
    want = params.los_pathloss_ref * d ** (-params.ris_pathloss_exps[0]) * 4 * 2
    assert np.linalg.norm(g, "fro") ** 2 == pytest.approx(want, rel=1e-6)
    s = np.linalg.svd(g, compute_uv=False)
    assert s[1] / s[0] < 1e-5


def test_user_aris_rayleigh_statistics():
    params = small_params(rician_factors=(1e-15, 1e-15))
    rng = np.random.default_rng(7)
    user, aris = np.array([40.0, 10.0, 0.0]), np.array([-10.0, 5.0, 100.0])
    d = np.linalg.norm(user - aris)
    total = 0.0
    count = 10000
    for _ in range(count):
        g = synth_user_aris_channel(rng, user, aris, params)
        total += np.linalg.norm(g, "fro") ** 2
    per_entry = total / count / (4 * 2)
    assert per_entry == pytest.approx(
        params.los_pathloss_ref * d ** (-params.ris_pathloss_exps[0]), rel=0.03)


def test_scalar_pure_los_unit_modulus():
    opts = dict(num_users=1, num_subcarriers=1, num_ris_elements=1,
                rx_antennas=1, rates=(1e6,), seed=0,
                los_pathloss_ref=1.0, rician_factors=(1e12, 1e12))
    sc = scenario_from_options(opts)
    # TX_ANTENNAS is fixed at 2; check the N=1 column magnitudes instead
    rng = np.random.default_rng(0)
    g = synth_user_aris_channel(rng, np.array([1.0, 0.0, 0.0]),
                                np.array([0.0, 0.0, 0.0001]), sc.params)
    d = np.linalg.norm(np.array([1.0, 0.0, 0.0]) - np.array([0.0, 0.0, 0.0001]))
    want = d ** (-sc.params.ris_pathloss_exps[0] / 2)
    assert np.allclose(np.abs(g), want, rtol=1e-5)


def test_aris_bs_pure_los():
    params = small_params(rician_factors=(1e12, 1e12))
    rng = np.random.default_rng(1)
    h = synth_aris_bs_channel(rng, np.array([50.0, 40.0, 100.0]),
                              np.array([0.0, 0.0, 25.0]), params)
    d = math.sqrt(50 ** 2 + 40 ** 2 + 75 ** 2)
    want = params.los_pathloss_ref * d ** (-params.ris_pathloss_exps[1]) * 3 * 4
    assert np.linalg.norm(h, "fro") ** 2 == pytest.approx(want, rel=1e-6)


def test_direct_channel_statistics():
    params = small_params()
    rng = np.random.default_rng(3)
    user, bs = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])
    draws = np.stack([synth_direct_channel(rng, user, bs, params) for _ in range(10000)])
    var = np.mean(np.abs(draws) ** 2)
    assert var == pytest.approx(params.nlos_pathloss_ref, rel=0.03)
    mean = draws.mean()
    sigma = math.sqrt(params.nlos_pathloss_ref / (2 * draws.size))
    assert abs(mean.real) < 3 * sigma and abs(mean.imag) < 3 * sigma


def test_direct_channel_distance_scaling():
    params = small_params()
    rng = np.random.default_rng(4)
    bs = np.array([0.0, 0.0, 0.0])
    near = np.stack([synth_direct_channel(rng, np.array([1.0, 0, 0]), bs, params)
                     for _ in range(10000)])
    far = np.stack([synth_direct_channel(rng, np.array([10.0, 0, 0]), bs, params)
                    for _ in range(10000)])
    ratio = np.mean(np.abs(far) ** 2) / np.mean(np.abs(near) ** 2)
    assert ratio == pytest.approx(10 ** (-3.908), rel=0.05)


def test_pathloss_scaling_with_distance():
    # doubling the user->surface distance scales E||G||_F^2 by 2^-kappa1
    params = small_params()
    aris = np.array([0.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    e1 = np.mean([np.linalg.norm(
        synth_user_aris_channel(rng, np.array([0, 30.0, 0]), aris, params), "fro") ** 2
        for _ in range(10000)])
    e2 = np.mean([np.linalg.norm(
        synth_user_aris_channel(rng, np.array([0, 60.0, 0]), aris, params), "fro") ** 2
        for _ in range(10000)])
    assert e2 / e1 == pytest.approx(2 ** (-params.ris_pathloss_exps[0]), rel=0.03)


def test_effective_channel_identity_theta_zero_g():
    hd = np.arange(6, dtype=complex).reshape(3, 2)
    h = np.ones((3, 4), dtype=complex)
    g = np.zeros((4, 2), dtype=complex)
    theta = np.ones(4, dtype=complex)
    assert np.array_equal(effective_channel(h, theta, g, hd), hd)


def test_effective_channel_scalar_phase():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    g = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
    base = effective_channel(h, np.ones(1), g, np.zeros((3, 2)))
    for phi in (0.3, 1.2, 4.0):
        rot = effective_channel(h, np.array([np.exp(1j * phi)]), g, np.zeros((3, 2)))
        assert np.allclose(rot, np.exp(1j * phi) * base, atol=1e-12)
        assert np.linalg.norm(rot) == pytest.approx(np.linalg.norm(base), rel=1e-12)


def test_effective_channel_naive_oracle():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    hd = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    want = h @ np.diag(theta) @ g + hd
    assert np.allclose(effective_channel(h, theta, g, hd), want, atol=1e-12)


def test_effective_channel_dim_mismatch():
    with pytest.raises(ValueError):
        effective_channel(np.ones((3, 4)), np.ones(5), np.ones((4, 2)), np.zeros((3, 2)))


def test_gain_single_column():
    h = np.array([[1.0], [2.0], [2.0]])
    assert gain_from_quadratic(h.conj().T @ h, [1.0], [0.0]) == pytest.approx(9.0)


def test_gain_identity_k():
    for beta2 in (0.0, 1.0, 3.5):
        f = beam_array((), 1.0, beta2)
        val = gain_from_quadratic(np.eye(2, dtype=complex), f.alpha, f.beta)
        assert val == pytest.approx(2.0, rel=1e-12)


def test_gain_identity_random_instances():
    # expanded cosine form vs direct ||H f||^2 on random PSD Gram matrices
    rng = np.random.default_rng(10)
    for _ in range(1000):
        h = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        alpha = (1.0, float(rng.uniform(0, 4)))
        beta = (0.0, float(rng.uniform(0, 2 * np.pi)))
        f = np.sqrt(alpha) * np.exp(1j * np.array(beta))
        want = np.linalg.norm(h @ f) ** 2
        got = channel_gain(h, beam_array((), alpha[1], beta[1]))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_gain_decomposition_no_direct():
    rng = np.random.default_rng(12)
    n, mr, mt = 4, 3, 2
    hbar = rng.normal(size=(mr, n)) + 1j * rng.normal(size=(mr, n))
    gbar = rng.normal(size=(n, mt)) + 1j * rng.normal(size=(n, mt))
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    f = beam_vector(beam_array((), 0.7, 1.1))
    rho, k1, k2 = 0.01, 2.2, 2.2
    d1, d2 = 35.0, 80.0
    a, b = gain_decomposition(hbar, gbar, np.zeros((mr, mt)), f, theta, rho)
    assert b == 0.0
    h_full = math.sqrt(rho * d2 ** -k2) * hbar
    g_full = math.sqrt(rho * d1 ** -k1) * gbar
    gamma = np.linalg.norm(effective_channel(h_full, theta, g_full, np.zeros((mr, mt))) @ f) ** 2
    assert gamma * d1 ** k1 * d2 ** k2 == pytest.approx(a, rel=1e-9)


def test_gain_decomposition_unit_distances():
    rng = np.random.default_rng(13)
    n, mr, mt = 5, 4, 2
    hbar = rng.normal(size=(mr, n)) + 1j * rng.normal(size=(mr, n))
    gbar = rng.normal(size=(n, mt)) + 1j * rng.normal(size=(n, mt))
    hd = rng.normal(size=(mr, mt)) + 1j * rng.normal(size=(mr, mt))
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    f = beam_vector(beam_array((), 1.4, 0.4))
    rho = 0.003
    a, b = gain_decomposition(hbar, gbar, hd, f, theta, rho)
    h_full = math.sqrt(rho) * hbar
    g_full = math.sqrt(rho) * gbar
    gamma = np.linalg.norm(effective_channel(h_full, theta, g_full, hd) @ f) ** 2
    resid = np.linalg.norm(hd @ f) ** 2
    assert a + b + resid == pytest.approx(gamma, rel=1e-9)


def test_gain_decomposition_homogeneity():
    rng = np.random.default_rng(14)
    hbar = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    gbar = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    hd = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    f = beam_vector(beam_array((), 1.0, 2.0))
    a1, b1 = gain_decomposition(hbar, gbar, hd, f, theta, 0.1)
    a2, b2 = gain_decomposition(hbar, 2 * gbar, hd, f, theta, 0.1)
    assert a2 == pytest.approx(4 * a1, rel=1e-12)
    assert b2 == pytest.approx(2 * b1, rel=1e-12)


def test_channel_set_matches_op_level_formulas():
    sc = desk_scenario(seed=2)
    cs = ChannelSet(sc, trial=0)
    q = np.linspace(sc.aris_start, sc.aris_end, sc.params.num_slots)
    q[2, 0] += 40.0  # bend the path so distances vary
    real = cs.realize(q)
    p = sc.params
    k1 = p.rician_factors[0]
    ell, n, u = 2, 5, 1
    d = np.linalg.norm(sc.user_positions[u] - q[ell])
    assert real.d_ur[ell, u] == pytest.approx(d, rel=1e-12)
    sin_a = (sc.user_positions[u][1] - q[ell][1]) / d
    los = np.outer(steering_vector(p.num_ris_elements, sin_a, p.antenna_spacing_ratio),
                   steering_vector(TX_ANTENNAS, sin_a, p.antenna_spacing_ratio).conj())
    want = (math.sqrt(k1 / (k1 + 1)) * los
            + math.sqrt(1 / (k1 + 1)) * cs._wg[ell, n, u])
    assert np.allclose(real.gbar[ell, n, u], want, atol=1e-12)
    # full channel = sqrt(rho d^-kappa1) * gbar
    full = real.g_scale[ell, u] * real.gbar[ell, n, u]
    assert np.allclose(np.abs(full), math.sqrt(p.los_pathloss_ref * d ** -2.2)
                       * np.abs(want), rtol=1e-12)


def test_channel_set_same_fading_across_trajectories():
    sc = desk_scenario(seed=3)
    cs = ChannelSet(sc, trial=1)
    qa = np.linspace(sc.aris_start, sc.aris_end, sc.params.num_slots)
    qb = qa.copy()
    qb[1:5, 0] += 25.0
    ra, rb = cs.realize(qa), cs.realize(qb)
    # direct link identical; cascade links differ only through geometry
    assert np.array_equal(ra.hd, rb.hd)
    assert not np.allclose(ra.gbar[()], rb.gbar[()])


@pytest.mark.parametrize("num_ris_elements", [16, 0])
def test_lazy_mixtures_match_the_dense_mix_bit_for_bit(num_ris_elements):
    sc = desk_scenario(num_ris_elements=num_ris_elements)
    p = sc.params
    cs = ChannelSet(sc, trial=2)
    q = np.linspace(sc.aris_start, sc.aris_end, p.num_slots)
    q[3, 0] += 30.0
    real = cs.realize(q)
    gbar, hbar = dense_mixtures(cs, q)
    drawn = fingerprint(cs)
    ell = np.array([0, 2, 2, 4])
    n = np.array([0, 3, 3, p.num_subcarriers - 1])
    u = np.array([1, 0, 2, 1])
    common = [(2,), (2, 5), (2, n), (ell, n), (ell, slice(None)), (slice(1, 4), slice(2, 6)),
              (slice(None), 3), (slice(None), n), (ell[:, None], n[None, :]), ()]
    g_keys = common + [(2, 5, 1), (2, n, u), (ell, n, u), (ell, slice(1, 3), u),
                       (slice(None), n, u)]
    h_keys = common + [(2, 5, 3), (ell, n, slice(None, None, 2))]
    if num_ris_elements:
        g_keys.append((2, 5, 1, 7, 1))
        h_keys.append((2, 5, 3, 7))
    for dense, lazy, keys in ((gbar, real.gbar, g_keys), (hbar, real.hbar, h_keys)):
        assert lazy.shape == dense.shape and lazy.size == dense.size
        for key in keys:
            assert np.array_equal(lazy[key], dense[key]), key
    # reading scalar entries must not write into the stored draws
    assert fingerprint(cs) == drawn
    for key in ((Ellipsis, 0), (2, None)):
        with pytest.raises(IndexError):
            real.gbar[key]


def test_full_scale_channels_and_solve_stay_small_in_memory():
    # traced numpy allocations above the ChannelSet's draws; tracemalloc
    # counts them deterministically where the resident set size does not
    sc = load_scenario(FULL_CFG)
    cs = ChannelSet(sc, trial=0)
    q = np.linspace(sc.aris_start, sc.aris_end, sc.params.num_slots)
    tracemalloc.start()
    try:
        cs.realize(q)
        realize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_ao(sc, trial=0, max_outer=1, enable_trajectory=False, channel_set=cs)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert realize_peak < 8e6
    assert solve_peak < 48e6


def test_rng_streams_reproducible_and_distinct():
    a = rng_stream(9, 0, 1, 2, 1).standard_normal(4)
    b = rng_stream(9, 0, 1, 2, 1).standard_normal(4)
    c = rng_stream(9, 0, 1, 3, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_channel_set_fingerprint_pairs_trials():
    sc = desk_scenario(seed=4)
    assert fingerprint(ChannelSet(sc, 0)) == fingerprint(ChannelSet(sc, 0))
    assert fingerprint(ChannelSet(sc, 0)) != fingerprint(ChannelSet(sc, 1))


def test_batched_link_primitives_match_per_link_oracles():
    sc = desk_scenario()
    p = sc.params
    assert p.num_ris_elements == 16
    real = ChannelSet(sc, trial=0).realize(
        np.linspace(sc.aris_start, sc.aris_end, p.num_slots))
    rng = np.random.default_rng(15)
    u, n = (a.ravel() for a in np.meshgrid(np.arange(p.num_users),
                                           np.arange(p.num_subcarriers),
                                           indexing="ij"))
    beams = beam_array(u.shape, rng.uniform(0, 4, u.size),
                       rng.uniform(0, TWO_PI, u.size))
    f = beam_vector(beams)
    for ell in range(p.num_slots):
        theta = np.exp(1j * rng.uniform(0, TWO_PI, p.num_ris_elements))
        h_eff = real.effective(ell, n, u, theta)
        cascade, direct = real.cascade_and_direct(ell, n, u, f)
        gains = channel_gain(h_eff, beams)
        assert np.allclose(gram(h_eff), np.swapaxes(h_eff.conj(), 1, 2) @ h_eff)
        for k in range(u.size):
            h_full = real.h_scale[ell] * real.hbar[ell, n[k]]
            g_full = real.g_scale[ell, u[k]] * real.gbar[ell, n[k], u[k]]
            hd = real.hd[ell, n[k], u[k]]
            want = effective_channel(h_full, theta, g_full, hd)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(h_eff[k] - want)) <= 1e-12 * scale
            want_casc = h_full * (g_full @ f[k])[None, :]
            assert np.max(np.abs(cascade[k] - want_casc)) <= 1e-12 * np.max(np.abs(want_casc))
            assert np.max(np.abs(direct[k] - hd @ f[k])) <= 1e-12 * np.max(np.abs(hd @ f[k]))
            gain = np.linalg.norm(want @ f[k]) ** 2
            assert gains[k] == pytest.approx(gain, rel=1e-12)
            assert np.linalg.norm(cascade[k] @ theta + direct[k]) ** 2 == pytest.approx(
                gain, rel=1e-12)
            assert channel_gain(want, beams[k, ...]) == pytest.approx(gain, rel=1e-12)


@pytest.mark.parametrize("num_ris_elements", [16, 0])
def test_effective_on_a_slot_array_matches_per_slot_calls(num_ris_elements):
    # every (user, RE) pair of a slot, so each (slot, RE) repeats across
    # users; slot 2 carries no link, and each link brings its slot's phases
    sc = desk_scenario(num_ris_elements=num_ris_elements)
    p = sc.params
    real = ChannelSet(sc, trial=1).realize(
        np.linspace(sc.aris_start, sc.aris_end, p.num_slots))
    rng = np.random.default_rng(16)
    thetas = np.exp(1j * rng.uniform(0, TWO_PI, (p.num_slots, p.num_ris_elements)))
    delta = np.ones((p.num_slots, p.num_users, p.num_subcarriers))
    delta[2] = 0.0
    delta[4] = rng.uniform(size=delta[4].shape) < 0.5
    ell, u, n = np.nonzero(delta)
    got = real.effective(ell, n, u, thetas[ell])
    assert got.shape == (ell.size, p.rx_antennas, TX_ANTENNAS)
    for slot in np.unique(ell):
        k = ell == slot
        want = real.effective(slot, n[k], u[k], thetas[slot])
        assert np.array_equal(got[k].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("group_links", [1, 40, 128])
def test_effective_over_slot_groups_matches_per_slot_calls(group_links, monkeypatch):
    # about 60% of the (user, RE) pairs, with slot 3 full (32 links): groups
    # of one slot, of several, and a slot larger than GROUP_LINKS alone
    monkeypatch.setattr(channel, "GROUP_LINKS", group_links)
    sc = desk_scenario()
    p = sc.params
    real = ChannelSet(sc, trial=2).realize(
        np.linspace(sc.aris_start, sc.aris_end, p.num_slots))
    rng = np.random.default_rng(17)
    thetas = np.exp(1j * rng.uniform(0, TWO_PI, (p.num_slots, p.num_ris_elements)))
    delta = rng.uniform(size=(p.num_slots, p.num_users, p.num_subcarriers)) < 0.6
    delta[3] = True
    ell, u, n = np.nonzero(delta)
    spans = [np.unique(ell[lo:hi]).size for lo, hi in slot_groups(ell)]
    assert sum(spans) == p.num_slots
    assert (max(spans) > 1) == (group_links > 32)
    got = real.effective(ell, n, u, thetas[ell])
    for slot in range(p.num_slots):
        k = ell == slot
        want = real.effective(slot, n[k], u[k], thetas[slot])
        assert np.array_equal(got[k], want)


def test_slot_groups_cut_whole_slots_by_link_count():
    # desk's 6 slots of 8 links are one group
    sc = desk_scenario()
    state = initialize_state(sc, ChannelSet(sc, 0), np.linspace(
        sc.aris_start, sc.aris_end, sc.params.num_slots))
    ell = np.nonzero(state.delta)[0]
    assert np.array_equal(np.bincount(ell), np.full(6, 8))
    assert slot_groups(ell) == [(0, 48)]
    # full.cfg: each of its 80 elements has one owner in every slot, so its
    # 80-link slots each make a group
    p = load_scenario(FULL_CFG).params
    ell = np.repeat(np.arange(p.num_slots), p.num_subcarriers)
    assert slot_groups(ell) == [(lo, lo + 80) for lo in range(0, ell.size, 80)]
    # a slot above GROUP_LINKS is a group alone; its neighbours still pack
    ell = np.repeat(np.arange(5), [30, 60, channel.GROUP_LINKS + 1, 50, 78])
    assert slot_groups(ell) == [(0, 90), (90, 219), (219, 347)]
    assert slot_groups(np.zeros(0, int)) == []
