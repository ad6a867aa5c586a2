import math
import warnings

import numpy as np
import pytest

from aris_emf.channel import rng_stream
from aris_emf.convex_kernels import SdpError
from aris_emf.exposure import InfeasibleError
from aris_emf.ris_phase import (
    LiftedSolution,
    PhaseShiftVector,
    gaussian_randomization,
    optimize_phases,
    quad_transform_y,
    solve_relaxation,
    uniform_phases,
)


def lifting_terms(cascade, direct):
    """Quadratic expansion of gamma(theta) = ||C theta + d||^2 for one link.

    Returns (a, b, resid) with gamma = theta^H a theta + 2 Re{theta^H b} + resid.
    """
    c = np.asarray(cascade)
    d = np.asarray(direct)
    if c.ndim != 2 or d.shape != (c.shape[0],):
        raise ValueError(f"cascade {c.shape} and direct {d.shape} do not agree")
    a = c.conj().T @ c
    b = c.conj().T @ d
    return 0.5 * (a + a.conj().T), b, float(np.vdot(d, d).real)


def proxy_exposure(delta, c_un, gamma_un):
    """sum over allocated links of c^2 / gamma (the quantity phases minimize)."""
    delta = np.asarray(delta, dtype=float)
    total = 0.0
    mask = delta > 0
    if np.any(mask):
        c = np.asarray(c_un, dtype=float)[mask]
        g = np.asarray(gamma_un, dtype=float)[mask]
        y = quad_transform_y(c, g)
        total = float(np.sum(np.where(c > 0, c * y, 0.0)))
    return total


def lifting_matrix(cascade, direct, w):
    """Weighted homogeneous quadratic form of the active links, as one Gram.

    cascade: (L, M_r, N); direct: (L, M_r); w: (L,) nonnegative weights.  The
    result R is (N+1, N+1) Hermitian with [theta; 1]^H R [theta; 1]
    = sum_l w_l (||C_l theta + d_l||^2 - ||d_l||^2).  The A block is
    X^H X with X the sqrt(w)-weighted cascades stacked to (L*M_r, N), and the
    border is one matvec, so no per-link N x N block is ever formed.
    """
    n = cascade.shape[-1]
    flat = cascade.reshape(-1, n)
    scaled = (np.sqrt(w)[:, None, None] * cascade).reshape(-1, n)
    a = scaled.conj().T @ scaled
    b = flat.conj().T @ (w[:, None] * direct).reshape(-1)
    r = np.zeros((n + 1, n + 1), dtype=complex)
    r[:n, :n] = 0.5 * (a + a.conj().T)
    r[:n, n] = b
    r[n, :n] = b.conj()
    return r


def build_lifting_matrix(delta, y, a_un, b_un):
    """Oracle for `lifting_matrix`, summed from per-link blocks.

    delta, y: (U, N_c); a_un: (U, N_c, N, N); b_un: (U, N_c, N).  The result
    R is (N+1, N+1) Hermitian with [theta; 1]^H R [theta; 1]
    = sum delta*y^2*(theta^H a theta + 2 Re{theta^H b}).
    """
    delta = np.asarray(delta, dtype=float)
    y = np.asarray(y, dtype=float)
    a_un = np.asarray(a_un)
    b_un = np.asarray(b_un)
    if a_un.shape[:2] != delta.shape or b_un.shape[:2] != delta.shape:
        raise ValueError("per-link arrays do not share the (U, N_c) leading shape")
    if y.shape != delta.shape:
        raise ValueError("y and delta shapes differ")
    n = b_un.shape[-1]
    if a_un.shape[2:] != (n, n):
        raise ValueError(f"a-blocks {a_un.shape[2:]} do not match b-vectors of size {n}")
    w = delta * y ** 2
    a = np.einsum("un,unij->ij", w, a_un)
    b = np.einsum("un,uni->i", w, b_un)
    r = np.zeros((n + 1, n + 1), dtype=complex)
    r[:n, :n] = 0.5 * (a + a.conj().T)
    r[:n, n] = b
    r[n, :n] = b.conj()
    return r


def random_links(rng, users=2, res=2, ants=2, elems=4, scale=1.0):
    cascade = scale * (rng.normal(size=(users, res, ants, elems))
                       + 1j * rng.normal(size=(users, res, ants, elems)))
    direct = scale * (rng.normal(size=(users, res, ants))
                      + 1j * rng.normal(size=(users, res, ants)))
    return cascade, direct


def gains_at(cascade, direct, theta):
    out = np.einsum("unmi,i->unm", cascade, theta) + direct
    return np.einsum("unm,unm->un", out.conj(), out).real


def test_quad_transform_points_and_identity():
    assert quad_transform_y(2.0, 4.0) == 0.5
    assert quad_transform_y(0.0, 3.0) == 0.0
    assert quad_transform_y(0.0, 0.0) == 0.0
    rng = np.random.default_rng(0)
    c = rng.uniform(0.1, 5, size=50)
    g = rng.uniform(0.1, 5, size=50)
    y = quad_transform_y(c, g)
    assert np.allclose(2 * y * c - y ** 2 * g, c ** 2 / g, rtol=1e-12)


def test_quad_transform_zero_gain_rejected():
    with pytest.raises(InfeasibleError, match="zero gain"):
        quad_transform_y(np.array([1.0, 0.5]), np.array([2.0, 0.0]))


def test_lifting_terms_reconstruct_gain():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        a, b, resid = lifting_terms(c, d)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, size=5))
        want = float(np.linalg.norm(c @ theta + d) ** 2)
        got = float((theta.conj() @ a @ theta).real + 2 * (theta.conj() @ b).real + resid)
        assert got == pytest.approx(want, rel=1e-10)


def test_lifting_matrix_scalar_assembly():
    # one user, one RE, one element: compare against hand-built 2x2 blocks
    c = np.array([[1.0 + 2.0j], [0.5 - 1.0j]])
    d = np.array([0.3 + 0.1j, -0.7j])
    a, b, _ = lifting_terms(c, d)
    delta = np.array([[1.0]])
    y = np.array([[0.8]])
    r = build_lifting_matrix(delta, y, a[None, None], b[None, None])
    w = 0.8 ** 2
    a_hand = (abs(1 + 2j) ** 2 + abs(0.5 - 1j) ** 2)
    b_hand = np.conj(1 + 2j) * (0.3 + 0.1j) + np.conj(0.5 - 1j) * (-0.7j)
    assert r.shape == (2, 2)
    assert r[0, 0] == pytest.approx(w * a_hand, rel=1e-12)
    assert r[0, 1] == pytest.approx(w * b_hand, rel=1e-12)
    assert r[1, 0] == pytest.approx(np.conj(w * b_hand), rel=1e-12)
    assert r[1, 1] == 0.0


def test_lifting_matrix_zero_direct_leaves_border_empty():
    rng = np.random.default_rng(2)
    cascade, _ = random_links(rng)
    direct = np.zeros((2, 2, 2), dtype=complex)
    a_un = np.einsum("unmi,unmj->unij", cascade.conj(), cascade)
    b_un = np.einsum("unmi,unm->uni", cascade.conj(), direct)
    r = build_lifting_matrix(np.ones((2, 2)), np.ones((2, 2)), a_un, b_un)
    n = cascade.shape[-1]
    assert np.all(r[:n, n] == 0) and np.all(r[n, :n] == 0) and r[n, n] == 0


def test_lifting_matrix_quadratic_identity():
    rng = np.random.default_rng(3)
    cascade, direct = random_links(rng, users=3, res=4, ants=2, elems=6)
    delta = (rng.uniform(size=(3, 4)) < 0.6).astype(float)
    y = rng.uniform(0.1, 2.0, size=(3, 4))
    a_un = np.einsum("unmi,unmj->unij", cascade.conj(), cascade)
    b_un = np.einsum("unmi,unm->uni", cascade.conj(), direct)
    r = build_lifting_matrix(delta, y, a_un, b_un)
    assert np.allclose(r, r.conj().T)
    for _ in range(100):
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, size=6))
        lifted = np.concatenate([theta, [1.0]])
        got = float((lifted.conj() @ r @ lifted).real)
        want = 0.0
        for u in range(3):
            for n in range(4):
                quad = float((theta.conj() @ a_un[u, n] @ theta).real
                             + 2 * (theta.conj() @ b_un[u, n]).real)
                want += delta[u, n] * y[u, n] ** 2 * quad
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_lifting_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        build_lifting_matrix(np.ones((2, 2)), np.ones((2, 3)),
                             np.zeros((2, 2, 4, 4)), np.zeros((2, 2, 4)))
    with pytest.raises(ValueError):
        build_lifting_matrix(np.ones((2, 2)), np.ones((2, 2)),
                             np.zeros((2, 2, 4, 4)), np.zeros((2, 2, 5)))


def test_gram_lifting_matrix_matches_per_link_oracle():
    rng = np.random.default_rng(15)
    users, res, elems = 3, 5, 7
    cascade, direct = random_links(rng, users=users, res=res, ants=3, elems=elems)
    delta = (rng.uniform(size=(users, res)) < 0.6).astype(float)
    delta[0, 0], delta[0, 1] = 0.0, 1.0
    y = rng.uniform(0.1, 2.0, size=(users, res))
    a_un = np.empty((users, res, elems, elems), dtype=complex)
    b_un = np.empty((users, res, elems), dtype=complex)
    for u in range(users):
        for n in range(res):
            a_un[u, n], b_un[u, n], _ = lifting_terms(cascade[u, n], direct[u, n])
    want = build_lifting_matrix(delta, y, a_un, b_un)
    mask = delta > 0
    got = lifting_matrix(cascade[mask], direct[mask], delta[mask] * y[mask] ** 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(got, got.conj().T)


def test_phase_vector_validation_and_identity():
    with pytest.raises(ValueError, match="unit modulus"):
        PhaseShiftVector(np.array([1.0, 0.5]))
    ident = uniform_phases(4)
    assert ident.values.shape == (4,)
    assert np.all(ident.values == 1.0)


def test_randomization_recovers_rank_one():
    rng = np.random.default_rng(4)
    theta_true = np.exp(1j * rng.uniform(0, 2 * math.pi, size=5))
    lifted = np.concatenate([theta_true, [1.0]])
    theta_bar = np.outer(lifted, lifted.conj())
    r = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    r = r + r.conj().T
    got = gaussian_randomization(theta_bar, r, 3, rng)
    assert np.allclose(got.values, theta_true, atol=1e-9)
    lift_got = np.concatenate([got.values, [1.0]])
    assert float((lift_got.conj() @ r @ lift_got).real) == pytest.approx(
        float((lifted.conj() @ r @ lifted).real), rel=1e-10)


def test_randomization_more_draws_never_worse():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    r = a @ a.conj().T
    sol = solve_relaxation(r, tol=1e-7)
    def score(theta):
        lifted = np.concatenate([theta.values, [1.0]])
        return float((lifted.conj() @ r @ lifted).real)
    one = score(gaussian_randomization(sol.theta_bar, r, 1, np.random.default_rng(99)))
    many = score(gaussian_randomization(sol.theta_bar, r, 500, np.random.default_rng(99)))
    assert many >= one - 1e-12


def test_randomization_eigenvalue_clamp():
    rng = np.random.default_rng(6)
    lifted = np.ones(4, dtype=complex)
    base = np.outer(lifted, lifted.conj())
    perp = np.eye(4, dtype=complex) - base / 4.0
    r = np.eye(4, dtype=complex)
    ok = base - 1e-10 * perp  # inside the PSD slack: clamped to zero
    theta = gaussian_randomization(ok, r, 5, rng)
    assert np.allclose(np.abs(theta.values), 1.0)
    assert np.allclose(theta.values, 1.0, atol=1e-9)
    bad = base - 1e-6 * perp
    with pytest.raises(SdpError, match="eigenvalue"):
        gaussian_randomization(bad, r, 5, rng)


def test_randomization_near_enumeration_small_surface():
    levels = np.exp(2j * math.pi * np.arange(16) / 16)
    grids = np.meshgrid(*([levels] * 4), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    lifted = np.concatenate([thetas, np.ones((thetas.shape[0], 1))], axis=1)
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        r = a @ a.conj().T
        best_enum = float(np.einsum("ki,ij,kj->k", lifted.conj(), r, lifted).real.max())
        sol = solve_relaxation(r, tol=1e-7)
        assert sol.value >= best_enum - 1e-6 * abs(best_enum)  # relaxation upper-bounds
        theta = gaussian_randomization(sol.theta_bar, r, 500, rng)
        lg = np.concatenate([theta.values, [1.0]])
        got = float((lg.conj() @ r @ lg).real)
        if got >= 0.85 * best_enum:
            hits += 1
    assert hits >= 4


def test_optimize_phases_no_surface_is_noop():
    theta = optimize_phases(np.zeros((1, 1, 2, 0)), np.zeros((1, 1, 2), dtype=complex),
                            np.ones((1, 1)), np.ones((1, 1)),
                            uniform_phases(0), np.random.default_rng(0))
    assert theta.values.size == 0


def test_optimize_phases_never_increases_proxy():
    worse = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        cascade, direct = random_links(rng, users=2, res=2, ants=2, elems=4)
        delta = np.array([[1.0, 0.0], [0.0, 1.0]])
        c_un = rng.uniform(0.5, 2.0, size=(2, 2)) * delta
        theta0 = uniform_phases(4)
        before = proxy_exposure(delta, c_un, gains_at(cascade, direct, theta0.values))
        theta = optimize_phases(cascade, direct, delta, c_un, theta0,
                                rng_stream(77, trial, 0, 0, 4))
        after = proxy_exposure(delta, c_un, gains_at(cascade, direct, theta.values))
        assert np.allclose(np.abs(theta.values), 1.0)
        if after > before + 1e-12:
            worse += 1
    assert worse == 0


def test_optimize_phases_near_exhaustive_tiny_instance():
    rng = np.random.default_rng(8)
    cascade, direct = random_links(rng, users=1, res=1, ants=2, elems=3)
    delta = np.ones((1, 1))
    c_un = np.array([[1.3]])
    theta = optimize_phases(cascade, direct, delta, c_un, uniform_phases(3),
                            np.random.default_rng(9))
    got = proxy_exposure(delta, c_un, gains_at(cascade, direct, theta.values))
    levels = np.exp(2j * math.pi * np.arange(32) / 32)
    grids = np.meshgrid(*([levels] * 3), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    out = np.einsum("unmi,ki->kunm", cascade, thetas) + direct
    gains = np.einsum("kunm,kunm->ku", out.conj(), out).real
    best = float((c_un[0, 0] ** 2 / gains[:, 0]).min())
    assert got <= 1.10 * best


def test_optimize_phases_ignores_inactive_links():
    rng = np.random.default_rng(16)
    cascade, direct = random_links(rng, users=3, res=4, ants=2, elems=5)
    delta = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    c_un = rng.uniform(0.5, 2.0, size=delta.shape) * delta
    idle = delta == 0
    zeroed_c, zeroed_d = cascade.copy(), direct.copy()
    zeroed_c[idle], zeroed_d[idle] = 0.0, 0.0
    nan_c, nan_d = cascade.copy(), direct.copy()
    nan_c[idle], nan_d[idle] = np.nan, np.nan
    want = optimize_phases(zeroed_c, zeroed_d, delta, c_un, uniform_phases(5),
                           np.random.default_rng(17))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimize_phases(nan_c, nan_d, delta, c_un, uniform_phases(5),
                              np.random.default_rng(17))
    assert np.array_equal(got.values, want.values)


def test_optimize_phases_input_checks():
    rng = np.random.default_rng(18)
    cascade, direct = random_links(rng, users=1, res=2, ants=2, elems=4)
    delta = np.ones((1, 2))
    with pytest.raises(ValueError, match="surface has 4 elements"):
        optimize_phases(cascade, direct, delta, np.ones((1, 2)), uniform_phases(3),
                        np.random.default_rng(0))
    cascade[0, 1], direct[0, 1] = 0.0, 0.0
    with pytest.raises(InfeasibleError, match="zero gain"):
        optimize_phases(cascade, direct, delta, np.ones((1, 2)), uniform_phases(4),
                        np.random.default_rng(0))


def sdr_rounds(cascade, direct, delta, c_un, theta, rng, rounds=3, draws=100):
    """Proxy exposure after `rounds` SDR + randomization rounds of the
    quadratic transform, each candidate kept only if the proxy did not rise."""
    mask = delta > 0
    c = c_un[mask]
    gains = gains_at(cascade, direct, theta)[mask]
    best = proxy_exposure(delta[mask], c, gains)
    for _ in range(rounds):
        y = quad_transform_y(c, gains)
        r = lifting_matrix(cascade[mask], direct[mask], y ** 2)
        lifted = solve_relaxation(r, tol=1e-6)
        cand = gaussian_randomization(lifted.theta_bar, r, draws, rng).values
        cand_gains = gains_at(cascade, direct, cand)[mask]
        try:
            value = proxy_exposure(delta[mask], c, cand_gains)
        except InfeasibleError:
            value = np.inf
        if value <= best:
            gains, best = cand_gains, value
    return best


def sdp_upper_bound(r, theta_bar):
    """Weak-duality bound on the SDP value of max [t;1]^H R [t;1], |t_i| = 1.

    The dual variable y = Re diag(R X) of the relaxation's solution X makes
    (diag(y) - R) X = 0 hold on the diagonal, and s = max(lambda_max(R -
    diag(y)), 0) gives R <= diag(y) + s I, so sum(y) + (N+1) s bounds every
    feasible point and the relaxation.  The solver's primal value tr(R X) =
    sum(y) can sit up to its gap tolerance below the SDP value; this cannot.
    """
    y = np.einsum("ij,ji->i", r, theta_bar).real
    s = max(float(np.linalg.eigvalsh(r - np.diag(y))[-1]), 0.0)
    return float(y.sum()) + y.size * s


# random_links shapes (users, res, ants, elems) and direct-path scales: three
# surface-dominated sets and one where the direct path dominates
ORACLE_SETS = (((2, 4, 2, 8), 1.0), ((3, 4, 4, 16), 1.0), ((2, 2, 2, 4), 1.0),
               ((2, 4, 2, 8), 1.0 / 0.05))


def test_optimize_phases_matches_three_sdr_rounds_and_respects_the_bound():
    worse, over_bound = [], []
    for index, ((users, res, ants, elems), direct_scale) in enumerate(ORACLE_SETS):
        for k in range(100):
            rng = np.random.default_rng([19, index, k])
            cascade, direct = random_links(rng, users, res, ants, elems)
            direct = direct * direct_scale
            delta = np.zeros((users, res))
            delta[rng.integers(users, size=res), np.arange(res)] = 1.0
            c_un = rng.uniform(0.5, 2.0, size=(users, res)) * delta
            theta0 = np.exp(2j * math.pi * rng.random(elems))
            want = sdr_rounds(cascade, direct, delta, c_un, theta0,
                              np.random.default_rng([20, index, k]))
            theta = optimize_phases(cascade, direct, delta, c_un, theta0,
                                    np.random.default_rng([21, index, k])).values
            gains = gains_at(cascade, direct, theta)
            got = proxy_exposure(delta, c_un, gains)
            if got > (1.0 + 1e-12) * want:
                worse.append((index, k, got / want - 1.0))
            mask = delta > 0
            y = quad_transform_y(c_un[mask], gains[mask])
            r = lifting_matrix(cascade[mask], direct[mask], y ** 2)
            lifted = np.concatenate([theta, [1.0]])
            form = float((lifted.conj() @ r @ lifted).real)
            bound = sdp_upper_bound(r, solve_relaxation(r, tol=1e-9).theta_bar)
            if form > bound + 1e-9 * abs(bound):
                over_bound.append((index, k, form / bound - 1.0))
    assert worse == []
    assert over_bound == []


def test_optimize_phases_at_benchmark_size_is_repeatable_and_silent():
    rng = np.random.default_rng(22)
    users, res, ants, elems = 4, 20, 32, 80
    cascade, direct = random_links(rng, users, res, ants, elems)
    delta = np.ones((users, res))
    c_un = rng.uniform(0.5, 2.0, size=(users, res))
    theta0 = np.exp(2j * math.pi * rng.random(elems))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = optimize_phases(cascade, direct, delta, c_un, theta0,
                                np.random.default_rng(23))
        second = optimize_phases(cascade, direct, delta, c_un, theta0,
                                 np.random.default_rng(23))
    assert np.array_equal(first.values, second.values)
    before = proxy_exposure(delta, c_un, gains_at(cascade, direct, theta0))
    after = proxy_exposure(delta, c_un, gains_at(cascade, direct, first.values))
    assert after < before


def test_solve_relaxation_wraps_solution():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sol = solve_relaxation(a @ a.conj().T)
    assert isinstance(sol, LiftedSolution)
    assert np.allclose(np.diag(sol.theta_bar).real, 1.0, atol=1e-5)
