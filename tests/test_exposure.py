"""SAR polynomial, rate/power inversion, and exposure aggregation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aris_emf.exposure import (InfeasibleError, SarModel,
                               default_sar_model, exposure_index,
                               load_sar_model, reference_sar)
from aris_emf.exposure import _sar_floor
from oracles import min_power_for_rate


def achievable_rate(delta, p, gamma, w, sigma2):
    """Uplink rate w*delta*log2(1 + p*gamma/sigma2) in bits/s."""
    return w * delta * np.log2(1.0 + p * gamma / sigma2)


def user_exposure(delta, p, sar):
    """Per-slot exposure of one user: sum_n delta_n * p_n * SAR_n (W/kg before duration scaling)."""
    return float(np.sum(np.asarray(delta, dtype=float) * np.asarray(p, dtype=float)
                        * np.asarray(sar, dtype=float)))


def sar_vs_lobe_angle(model, phi_deg, spacing=0.5):
    """Reference SAR of a unit two-antenna beam steered to angle phi (degrees).

    Steering a 2-element array with element spacing `spacing` (in
    wavelengths) to angle phi requires the relative phase
    beta2 = -2*pi*spacing*sin(phi); amplitudes are (1, 1).
    """
    phi = np.deg2rad(np.asarray(phi_deg, dtype=float))
    beta2 = -2.0 * np.pi * spacing * np.sin(phi)
    alpha = np.stack([np.ones_like(beta2), np.ones_like(beta2)])
    return reference_sar(model, alpha, beta2)


def sar_oracle(b, a1, a2, beta2):
    """Naive term-by-term evaluation of the reference-SAR polynomial."""
    total = b[0] * a1 + b[1] * math.sqrt(a1 * a2) + b[2] * a2
    env = b[3] * a1 + b[4] * math.sqrt(a1 * a2) + b[5] * a2
    series = 0.0
    for i in range(7, 14):
        series += b[i - 1] * math.cos((i - 7) * beta2 + b[i + 7 - 1])
    return total + env * series


def test_reference_sar_harmonics_disabled():
    model = SarModel((1, 0, 1) + (0,) * 17)
    assert reference_sar(model, (1.0, 1.0), 0.3) == pytest.approx(2.0, rel=1e-12)


def test_reference_sar_beta_independent_when_envelope_zero():
    b = [2.0, 0.5, 2.0, 0.0, 0.0, 0.0] + [0.3] * 7 + [0.1] * 7
    model = SarModel(tuple(b))
    betas = np.linspace(0, 2 * np.pi, 50)
    vals = reference_sar(model, (1.0, 0.7), betas)
    assert np.ptp(vals) < 1e-14


def test_reference_sar_matches_term_oracle():
    model = default_sar_model()
    for beta2 in np.linspace(0, 2 * np.pi, 97):
        got = reference_sar(model, (1.0, 1.0), beta2)
        want = sar_oracle(model.b, 1.0, 1.0, beta2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_reference_sar_oracle_random_alpha():
    model = default_sar_model()
    rng = np.random.default_rng(5)
    for _ in range(200):
        a2 = rng.uniform(0, 4)
        b2 = rng.uniform(0, 2 * np.pi)
        assert reference_sar(model, (1.0, a2), b2) == pytest.approx(
            sar_oracle(model.b, 1.0, a2, b2), rel=1e-12, abs=1e-12)


def test_positivity_validation_rejects_bad_model():
    # huge negative modulation swamps the quadratic part somewhere on the grid
    bad = (1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 5.0) + (0.0,) * 12
    with pytest.raises(ValueError, match="positivity"):
        SarModel(bad)


def test_positivity_validation_catches_a_dip_between_grid_points():
    # SAR = 1 + 1.0024*cos(6*beta2 + pi/32) dips to -0.0024 only between the
    # points of a 64-point beta2 grid
    bad = [1.0, 0.0, 0.0, 1.0] + [0.0] * 16
    bad[12], bad[19] = 1.0024, math.pi / 32
    with pytest.raises(ValueError, match="positivity"):
        SarModel(tuple(bad))


def test_sar_floor_is_attained_and_below_a_dense_grid():
    rng = np.random.default_rng(13)
    n = 300
    a2 = np.linspace(0.0, 4.0, n)
    b2 = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    alpha = np.stack([np.ones((n, n)), np.broadcast_to(a2, (n, n))])
    for _ in range(50):
        # unvalidated coefficients: some of these models dip below zero
        model = SimpleNamespace(b=tuple(rng.normal(size=20)))
        floor, at_a2, at_b2 = _sar_floor(model)
        assert reference_sar(model, (1.0, at_a2), at_b2) == pytest.approx(floor, rel=1e-9)
        assert floor <= float(reference_sar(model, alpha, b2[:, None]).min()) + 1e-12


def test_default_model_positive_everywhere():
    model = default_sar_model()
    rng = np.random.default_rng(9)
    a2 = rng.uniform(0, 4, 500)
    b2 = rng.uniform(0, 2 * np.pi, 500)
    vals = reference_sar(model, np.stack([np.ones(500), a2]), b2)
    assert np.all(vals > 0)


def test_sar_model_needs_twenty_coeffs():
    with pytest.raises(ValueError, match="20"):
        SarModel((1.0, 2.0, 3.0))


def test_load_sar_model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("4 1 4  1 0 1\n0 0.6 0 0.8 0 0 0\n0 0.4 0 0.7 0 0 0\n")
    model = load_sar_model(path)
    assert model.b == default_sar_model().b


def test_achievable_rate_points():
    assert achievable_rate(1, 1.0, 1.0, 240e3, 1.0) == pytest.approx(240e3)
    assert achievable_rate(0, 5.0, 2.0, 240e3, 1.0) == 0.0
    assert achievable_rate(1, 3.0, 1.0, 240e3, 1.0) == pytest.approx(480e3)


def test_min_power_points():
    w = 1000.0
    assert min_power_for_rate(w, 1.0, 1.0, w) == pytest.approx(1.0, rel=1e-12)
    assert min_power_for_rate(0.0, 1.0, 1.0, w) == 0.0
    assert min_power_for_rate(2 * w, 4.0, 2.0, w) == pytest.approx(1.5, rel=1e-12)


def test_min_power_zero_gain_infeasible():
    with pytest.raises(InfeasibleError):
        min_power_for_rate(1e6, 0.0, 1e-15, 240e3)


@given(st.floats(min_value=1e3, max_value=1e8),
       st.floats(min_value=1e-12, max_value=1e-3),
       st.floats(min_value=1e-16, max_value=1e-10))
def test_rate_power_inverse_identity(rbar, gamma, sigma2):
    w = 240e3
    p = min_power_for_rate(rbar, gamma, sigma2, w)
    assert achievable_rate(1, p, gamma, w, sigma2) == pytest.approx(rbar, rel=1e-9)


def test_user_exposure_points():
    assert user_exposure([1], [0.5], [2.0]) == pytest.approx(1.0)
    assert user_exposure([0, 0, 0], [1, 2, 3], [4, 5, 6]) == 0.0
    delta, p, sar = [1, 0, 1], [0.1, 0.2, 0.3], [2.0, 3.0, 4.0]
    want = sum(d * pi * s for d, pi, s in zip(delta, p, sar))
    assert user_exposure(delta, p, sar) == pytest.approx(want, rel=1e-12)


def test_exposure_index_points():
    assert exposure_index([[2.0]], 1.0) == pytest.approx(2.0)
    e = np.full((3, 4), 0.7)
    assert exposure_index(e, 15.0) == pytest.approx(15.0 * 0.7, rel=1e-12)


def test_exposure_index_brute_force():
    rng = np.random.default_rng(3)
    e = rng.uniform(0, 1e-3, (5, 7))
    want = 0.0
    for u in range(5):
        for ell in range(7):
            want += e[u, ell]
    want *= 15.0 / (7 * 5)
    assert exposure_index(e, 15.0) == pytest.approx(want, rel=1e-12)


def test_index_cannot_rise_when_no_slot_sum_rises():
    # ulp-scale mass moved between two users of some slots: the AO keeps a
    # slot's candidate by its own slot sum, so the index must follow those
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(2000):
        u, nt = rng.integers(2, 9), rng.integers(2, 41)
        e = rng.uniform(0.0, 1.0, (u, nt)) * 10.0 ** rng.integers(-6, 1)
        moved = e.copy()
        for col in np.flatnonzero(rng.random(nt) < 0.5):
            i, j = rng.choice(u, 2, replace=False)
            step = rng.integers(1, 4) * np.spacing(moved[i, col])
            moved[i, col] -= step
            moved[j, col] += step
        if np.all(moved.sum(axis=0) <= e.sum(axis=0)):
            checked += 1
            assert exposure_index(moved, 15.0) <= exposure_index(e, 15.0)
    assert checked > 500


def test_exposure_index_empty_is_zero():
    assert exposure_index(np.zeros((0, 0)), 15.0) == 0.0


def test_exposure_linear_in_power():
    rng = np.random.default_rng(11)
    delta = rng.integers(0, 2, 6)
    p = rng.uniform(0, 0.1, 6)
    sar = rng.uniform(0.5, 5.0, 6)
    assert user_exposure(delta, 2 * p, sar) == pytest.approx(
        2 * user_exposure(delta, p, sar), rel=1e-12)


def test_sar_vs_lobe_angle_broadside():
    model = default_sar_model()
    assert sar_vs_lobe_angle(model, 0.0) == pytest.approx(
        reference_sar(model, (1.0, 1.0), 0.0), rel=1e-12)


def test_sar_vs_lobe_angle_symmetry():
    # cos-series in beta2 with zero phase offsets is even: phi and -phi match
    b = [4.0, 1.0, 4.0, 1.0, 0.0, 1.0, 0.0, 0.6, 0.0, 0.8] + [0.0] * 10
    model = SarModel(tuple(b))
    for phi in (10.0, 30.0, 62.0):
        assert sar_vs_lobe_angle(model, phi) == pytest.approx(
            sar_vs_lobe_angle(model, -phi), rel=1e-12)


def test_sar_vs_lobe_angle_sweep_shape():
    model = default_sar_model()
    phis = np.linspace(-90, 90, 181)
    vals = sar_vs_lobe_angle(model, phis)
    assert vals.shape == (181,)
    assert np.all(vals > 0)
    assert np.ptp(vals) > 0  # the default model is angle-sensitive
