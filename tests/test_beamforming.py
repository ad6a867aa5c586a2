import math

import numpy as np
import pytest

from aris_emf.beamforming import (
    S_MAX,
    DinkelbachState,
    _min_over_s,
    optimize_beamformer,
)
from aris_emf.channel import BEAM_DTYPE, expanded_gain, gram_terms
from aris_emf.exposure import SarModel, default_sar_model, power_factor, reference_sar
from test_channel import gain_from_quadratic

SIGMA2, W = 1e-12, 240e3


def factor(rbar, sigma2=SIGMA2):
    """Power factor of rate share(s) rbar in one RE bandwidth W."""
    return power_factor(rbar, sigma2, W)


def beam_gain(k_mat, alpha2, beta2):
    """Gain of the beam ((1, alpha2), (0, beta2)) against a 2x2 Gram matrix."""
    return expanded_gain(gram_terms(np.asarray(k_mat)), alpha2, beta2)


def dinkelbach_objective(alpha, beta, lam, k_mat, model, rbar, sigma2, w, delta):
    """delta * (sigma2*(2**(rbar/w)-1) * SAR(alpha,beta) - lam*gamma(alpha,beta;K))."""
    c = sigma2 * (2.0 ** (rbar / w) - 1.0)
    sar = reference_sar(model, np.asarray(alpha, dtype=float), beta[1])
    gam = gain_from_quadratic(np.asarray(k_mat), alpha, beta)
    return float(delta * (c * sar - lam * gam))


def random_psd2(rng, scale=1.0):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return scale * (a @ a.conj().T)


def ratio_on_grid(k_mat, model, c, n=500):
    """Dense-grid minimum of c*SAR/gamma used as the exhaustive oracle."""
    a2 = np.linspace(0.0, 4.0, n)
    b2 = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    gam = beam_gain(k_mat, a2, b2[:, None])
    alpha = np.stack([np.ones((n, n)), np.broadcast_to(a2, (n, n))])
    sar = reference_sar(model, alpha, b2[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gam > 0, c * sar / gam, np.inf)
    return float(ratio.min())


def beam_ratio(k_mat, model, c, bf):
    sar = reference_sar(model, np.asarray(bf.alpha), bf.beta[1])
    gam = beam_gain(k_mat, bf.alpha[1], bf.beta[1])
    return c * sar / gam


def test_objective_matches_vector_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = random_psd2(rng)
        a2 = rng.uniform(0, 4)
        b2 = rng.uniform(0, 2 * math.pi)
        lam = rng.uniform(0, 3)
        rbar, sigma2, w = rng.uniform(1e5, 1e6), rng.uniform(1e-13, 1e-11), 240e3
        got = dinkelbach_objective((1.0, a2), (0.0, b2), lam, k,
                                   default_sar_model(), rbar, sigma2, w, 1.0)
        f = np.array([1.0, math.sqrt(a2) * np.exp(1j * b2)])
        gamma = float((f.conj() @ k @ f).real)
        c = sigma2 * (2 ** (rbar / w) - 1)
        sar = reference_sar(default_sar_model(), (1.0, a2), b2)
        want = c * sar - lam * gamma
        assert got == pytest.approx(want, rel=1e-10, abs=1e-18)


def test_objective_trivial_cases():
    k = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
    model = default_sar_model()
    c = 1e-12 * (2 ** (6e5 / 240e3) - 1)
    at_zero = dinkelbach_objective((1.0, 1.5), (0.0, 0.3), 0.0, k, model,
                                   6e5, 1e-12, 240e3, 1.0)
    assert at_zero == pytest.approx(c * reference_sar(model, (1.0, 1.5), 0.3), rel=1e-12)
    assert dinkelbach_objective((1.0, 1.5), (0.0, 0.3), 0.7, k, model,
                                6e5, 1e-12, 240e3, 0.0) == 0.0
    # at the ratio update point the linearized objective vanishes
    gam = beam_gain(k, 1.5, 0.3)
    lam_fix = c * reference_sar(model, (1.0, 1.5), 0.3) / gam
    resid = dinkelbach_objective((1.0, 1.5), (0.0, 0.3), lam_fix, k, model,
                                 6e5, 1e-12, 240e3, 1.0)
    assert abs(resid) <= 1e-12 * max(1.0, c)


def test_expanded_gain_matches_quadratic_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = random_psd2(rng)
        a2 = rng.uniform(0, 4)
        b2 = rng.uniform(0, 2 * math.pi)
        f = np.array([1.0, math.sqrt(a2) * np.exp(1j * b2)])
        want = float((f.conj() @ k @ f).real)
        assert beam_gain(k, a2, b2) == pytest.approx(want, rel=1e-10)


def test_beta_free_model_diagonal_k_matches_1d_oracle():
    # with no harmonic envelope and diagonal K the ratio depends on alpha2 only
    model = SarModel(b=(4.0, 1.0, 4.0) + (0.0,) * 17)
    k = np.diag([1.0, 3.0]).astype(complex)
    c = factor(6e5)
    bf, state = optimize_beamformer(k, model, c)
    a_dense = np.linspace(0.0, 4.0, 10 ** 6)
    vals = c * (4.0 + np.sqrt(a_dense) + 4.0 * a_dense) \
        / (1.0 + 3.0 * a_dense)
    a_star = float(a_dense[np.argmin(vals)])
    assert bf.alpha[1] == pytest.approx(a_star, abs=1e-3)
    assert state.lam <= float(vals.min()) * (1.0 + 1e-12)


def test_uniform_gain_gives_minimum_sar_vs_dense_grid():
    # K = diag(1, 0) gives every beam gain 1, so the ratio is power_factor * SAR
    model = default_sar_model()
    c = factor(6e5)
    k = np.diag([1.0, 0.0]).astype(complex)
    bf, state = optimize_beamformer(k, model, c)
    got = c * reference_sar(model, np.asarray(bf.alpha), bf.beta[1])
    n = 400
    a2 = np.linspace(0.0, 4.0, n)
    b2 = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    alpha = np.stack([np.ones((n, n)), np.broadcast_to(a2, (n, n))])
    oracle = c * reference_sar(model, alpha, b2[:, None])
    assert got <= float(oracle.min()) + 1e-15
    assert got == pytest.approx(float(oracle.min()), rel=1e-3)
    assert state.lam == pytest.approx(got, rel=1e-12)


def test_optimizer_never_above_fine_grid_oracle():
    rng = np.random.default_rng(11)
    model = default_sar_model()
    n = 1000
    a2 = np.linspace(0.0, 4.0, n)
    b2 = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    alpha = np.stack([np.ones((n, n)), np.broadcast_to(a2, (n, n))])
    sar = reference_sar(model, alpha, b2[:, None])
    for _ in range(100):
        k = random_psd2(rng)
        c = factor(rng.uniform(2e5, 2e6))
        _, state = optimize_beamformer(k, model, c)
        gam = beam_gain(k, a2, b2[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            oracle = c * float(np.where(gam > 0, sar / gam, np.inf).min())
        assert state.lam <= oracle * (1.0 + 1e-9)


def test_rounding_scale_of_gram_leaves_ratio_stable():
    rng = np.random.default_rng(12)
    model = default_sar_model()
    for _ in range(100):
        k = random_psd2(rng)
        c = factor(rng.uniform(2e5, 2e6))
        _, st1 = optimize_beamformer(k, model, c)
        _, st2 = optimize_beamformer(k * (1.0 + 1e-12), model, c)
        assert abs(st2.lam - st1.lam) <= 1e-9 * st1.lam


def test_optimizer_matches_dense_grid_ratio():
    rng = np.random.default_rng(3)
    model = default_sar_model()
    for trial in range(50):
        k = random_psd2(rng)
        c = factor(rng.uniform(2e5, 2e6))
        bf, state = optimize_beamformer(k, model, c)
        assert state.converged
        oracle = ratio_on_grid(k, model, c)
        assert state.lam <= oracle * 1.005 + 1e-30
        assert beam_ratio(k, model, c, bf) == pytest.approx(
            state.lam, rel=1e-9)


def test_lambda_sequence_monotone_and_fixed_point():
    rng = np.random.default_rng(4)
    model = default_sar_model()
    for _ in range(20):
        k = random_psd2(rng)
        c = factor(8e5, sigma2=2e-12)
        bf, state = optimize_beamformer(k, model, c)
        hist = np.asarray(state.lam_history)
        assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))
        # fixed point: the linearized objective vanishes at the output
        resid = dinkelbach_objective(bf.alpha, bf.beta, state.lam, k, model,
                                     8e5, 2e-12, W, 1.0)
        scale = c * reference_sar(model, np.asarray(bf.alpha), bf.beta[1])
        assert abs(resid) <= 1e-6 * max(1.0, scale)
        # never worse than the grid initialization it started from
        assert state.lam <= state.lam_history[0] + 1e-12


def test_scaled_identity_k_converges_quickly():
    model = default_sar_model()
    bf, state = optimize_beamformer(3.0 * np.eye(2, dtype=complex), model, factor(6e5))
    assert state.converged and state.iterations <= 5
    assert bf.alpha[0] == 1.0 and bf.beta[0] == 0.0


def test_gram_scaling_leaves_argmin_and_scales_ratio():
    rng = np.random.default_rng(5)
    model = default_sar_model()
    c = factor(9e5)
    k = random_psd2(rng)
    bf1, st1 = optimize_beamformer(k, model, c)
    bf2, st2 = optimize_beamformer(7.3 * k, model, c)
    assert st2.lam * 7.3 == pytest.approx(st1.lam, rel=1e-6)
    assert bf2.alpha[1] == pytest.approx(bf1.alpha[1], abs=1e-3)
    assert bf2.beta[1] == pytest.approx(bf1.beta[1], abs=1e-3)


def test_zero_rate_share_gives_zero_ratio():
    model = default_sar_model()
    bf, state = optimize_beamformer(np.eye(2, dtype=complex), model, factor(0.0))
    assert state.lam == 0.0
    assert state.converged
    assert bf.alpha[0] == 1.0


def test_zero_gram_matrix_is_infeasible():
    # no beam gives positive gain: the search ends at an infinite ratio
    _, state = optimize_beamformer(np.zeros((2, 2), dtype=complex), default_sar_model(),
                                   factor(6e5))
    assert np.isinf(state.lam)


def test_non_square_or_non_hermitian_rejected():
    c = factor(6e5)
    with pytest.raises(ValueError, match="2x2"):
        optimize_beamformer(np.eye(3, dtype=complex), default_sar_model(), c)
    bad = np.array([[1.0, 1.0 + 1j], [1.0 + 1j, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        optimize_beamformer(bad, default_sar_model(), c)


def test_state_shape_and_beamformer_convention():
    model = default_sar_model()
    bf, state = optimize_beamformer(random_psd2(np.random.default_rng(6)), model, factor(5e5))
    assert isinstance(state, DinkelbachState)
    assert bf.shape == () and bf.dtype == BEAM_DTYPE
    assert np.ndim(state.lam) == 0
    assert state.lam_history.shape == (state.iterations + 1,)
    assert bf.alpha[0] == 1.0 and bf.beta[0] == 0.0
    assert 0.0 <= bf.alpha[1] <= 4.0
    assert 0.0 <= bf.beta[1] < 2 * math.pi


def test_stacked_search_matches_single_matrix_calls():
    rng = np.random.default_rng(16)
    model = default_sar_model()
    k = np.stack([random_psd2(rng, scale=10.0 ** rng.uniform(-15, -8))
                  for _ in range(1200)]).reshape(40, 30, 2, 2)
    c = factor(rng.uniform(2e5, 2e6, size=(40, 30)))
    beams, state = optimize_beamformer(k, model, c)
    assert beams.shape == (40, 30)
    assert state.lam.shape == (40, 30)
    assert state.lam_history.shape == (40, 30, state.iterations + 1)
    assert type(state.iterations) is int and state.converged is True
    # one matrix is the 0-d stack, searched by the same code, so it ends bit
    # for bit where the same matrix inside the stack does
    for idx in np.ndindex(40, 30):
        bf, one = optimize_beamformer(k[idx], model, c[idx])
        for got, want in ((one.lam, state.lam[idx]), (one.lam_history, state.lam_history[idx]),
                          (bf.alpha, beams.alpha[idx]), (bf.beta, beams.beta[idx])):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stacked_search_with_a_zero_gram_is_infeasible():
    # the zero link ends at an infinite ratio; the other ends where its own call does
    model = default_sar_model()
    k = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)])
    c = factor(6e5)
    beams, state = optimize_beamformer(k, model, c)
    assert np.isinf(state.lam[1])
    bf, one = optimize_beamformer(k[0], model, c)
    assert state.lam[0] == one.lam
    assert np.array_equal(beams.alpha[0], bf.alpha) and np.array_equal(beams.beta[0], bf.beta)


def stacked_min_over_s(b, harm, beta, terms):
    """_min_over_s as np.argmin over the four stacked s candidates picks it."""
    k11, k22, k12a, k12p = (t[:, None] for t in terms)
    n0, n1, n2 = b[0] + b[3] * harm, b[1] + b[4] * harm, b[2] + b[5] * harm
    d0, d1, d2 = k11, 2.0 * k12a * np.cos(beta + k12p), k22
    qa, qb, qc = n2 * d1 - n1 * d2, n2 * d0 - n0 * d2, n1 * d0 - n0 * d1
    q = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
    s = np.stack([np.zeros_like(q), np.full_like(q, S_MAX), q / qa, qc / q])
    s = np.where((s >= 0.0) & (s <= S_MAX), s, 0.0)
    den = d0 + s * (d1 + s * d2)
    ratio = np.where(den > 0.0, (n0 + s * (n1 + s * n2)) / den, np.inf)
    pick = np.argmin(ratio, axis=0)[None]
    return np.take_along_axis(ratio, pick, 0)[0], np.take_along_axis(s, pick, 0)[0]


def test_running_minimum_over_s_picks_as_argmin():
    # one in ten inputs special, so candidates tie (inf, or one root at
    # several s) and some but not all of a point's candidates are NaN
    rng = np.random.default_rng(23)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1.0])
    for _ in range(40):
        b = rng.normal(size=6)
        harm, beta = rng.normal(size=(30, 16)), rng.uniform(0.0, 2.0 * np.pi, (30, 16))
        terms = [np.abs(rng.normal(size=30)) for _ in range(3)] + [rng.uniform(-3, 3, 30)]
        for arr in (harm, *terms):
            hit = rng.uniform(size=arr.shape) < 0.1
            arr[hit] = rng.choice(special, hit.sum())
        with np.errstate(all="ignore"):
            got = _min_over_s(b, harm, beta, terms)
            want = stacked_min_over_s(b, harm, beta, terms)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
