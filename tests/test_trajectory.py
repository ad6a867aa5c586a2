"""Flight-path refinement: tangent under-estimators, slack implication,
grid-search cross-checks, and the safeguarded descent loop."""

from dataclasses import replace

import numpy as np
import pytest

from aris_emf.convex_kernels import ConvexProgram, ConvexSolverError, solve_convex_program
from aris_emf.exposure import InfeasibleError
from aris_emf.trajectory import (
    GainField,
    Trajectory,
    _collapse_weights,
    link_distances,
    linearize_gain_terms,
    make_sca_state,
    optimize_trajectory,
    quad_transform_y,
    sca_step,
    straight_trajectory,
)

BS = np.array([200.0, 0.0, 25.0])


def desk_fixture(seed, n_slots=6, n_users=4, n_res=8):
    rng = np.random.default_rng(seed)
    users = np.column_stack([rng.uniform(-80, 80, (n_users, 2)),
                             np.zeros(n_users)])
    delta = (rng.random((n_slots, n_users, n_res)) < 0.6).astype(float)
    for u in range(n_users):
        if delta[:, u].sum() == 0:
            delta[0, u, 0] = 1.0
    c = rng.uniform(0.5, 2.0, delta.shape)
    a = rng.uniform(1e5, 1e7, delta.shape)
    b = rng.uniform(-1.0, 1.0, delta.shape) * np.sqrt(a) * 1e-2
    resid = rng.uniform(1e-5, 1e-3, delta.shape)
    return GainField(delta, c, a, b, resid, 2.2, 2.4), users


def proxy_at(field, points, users):
    d_ur, d_rb = link_distances(points, users, BS)
    return field.proxy(d_ur, d_rb)


def test_ratio_weights_match_closed_form():
    assert quad_transform_y(2.0, 4.0) == pytest.approx(0.5)
    assert quad_transform_y(0.0, 3.0) == 0.0
    np.testing.assert_allclose(
        quad_transform_y(np.array([1.0, 3.0]), np.array([2.0, 0.5])),
        [0.5, 6.0])
    with pytest.raises(InfeasibleError):
        quad_transform_y(1.0, 0.0)


def test_tangent_matches_value_at_expansion():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0.0, 10.0, 2)
        u0, v0 = rng.uniform(0.3, 60.0, 2)
        k1, k2 = rng.uniform(1.5, 3.0, 2)
        (fa, _, _), (fb, _, _) = linearize_gain_terms(a, b, u0, v0, k1, k2)
        assert fa == pytest.approx(a / (u0 ** k1 * v0 ** k2), rel=1e-12)
        assert fb == pytest.approx(b / (u0 ** (k1 / 2) * v0 ** (k2 / 2)),
                                   rel=1e-12)


def test_tangent_example_at_2_1():
    # unit coefficient, square-law exponents, expanded at (1, 1): the plane
    # value at (2, 1) is 1 - 2*1 - 2*0 = -1, a strict under-estimate of 0.25
    (fa, dau, dav), _ = linearize_gain_terms(1.0, 0.0, 1.0, 1.0, 2.0, 2.0)
    plane = fa + dau * (2.0 - 1.0) + dav * (1.0 - 1.0)
    assert plane == pytest.approx(-1.0)
    assert plane <= 1.0 / (2.0 ** 2 * 1.0 ** 2)


def test_tangent_never_exceeds_true_terms():
    rng = np.random.default_rng(7)
    n = 1000
    a = rng.uniform(0.0, 10.0, n)
    b = rng.uniform(0.0, 10.0, n)
    u0, v0 = rng.uniform(0.3, 60.0, (2, n))
    u, v = rng.uniform(0.3, 60.0, (2, n))
    k1, k2 = rng.uniform(1.5, 3.0, (2, n))
    (fa, dau, dav), (fb, dbu, dbv) = linearize_gain_terms(a, b, u0, v0, k1, k2)
    plane_a = fa + dau * (u - u0) + dav * (v - v0)
    plane_b = fb + dbu * (u - u0) + dbv * (v - v0)
    true_a = a / (u ** k1 * v ** k2)
    true_b = b / (u ** (k1 / 2) * v ** (k2 / 2))
    assert np.all(plane_a <= true_a + 1e-9 * np.maximum(1.0, np.abs(true_a)))
    assert np.all(plane_b <= true_b + 1e-9 * np.maximum(1.0, np.abs(true_b)))


def test_slack_surrogate_implies_true_bound():
    # any point satisfying d^2 + u0^2 - 2 u0 u <= 0 also satisfies u >= d
    rng = np.random.default_rng(11)
    n = 1000
    d = rng.uniform(0.1, 300.0, n)
    u0 = rng.uniform(0.1, 300.0, n)
    u = (d ** 2 + u0 ** 2) / (2.0 * u0) + rng.exponential(10.0, n)
    surrogate = d ** 2 + u0 ** 2 - 2.0 * u0 * u
    assert np.all(surrogate <= 1e-9)
    assert np.all(u >= d - 1e-9)


def test_straight_trajectory_spacing():
    tr = straight_trajectory([0.0, 0.0, 50.0], [90.0, 0.0, 50.0], 4)
    np.testing.assert_allclose(tr.steps(), 30.0)
    np.testing.assert_allclose(tr.points[0], [0.0, 0.0, 50.0])
    np.testing.assert_allclose(tr.points[-1], [90.0, 0.0, 50.0])


def test_trajectory_type_validates():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        Trajectory(np.zeros((4, 2)))
    tr = straight_trajectory([0, 0, 50], [300, 0, 50], 3)
    with pytest.raises(ValueError, match="displacement"):
        tr.check(100.0)
    with pytest.raises(ValueError, match="start"):
        tr.check(200.0, start=[1.0, 0.0, 50.0])
    tr.check(200.0, start=[0, 0, 50], end=[300, 0, 50])


def test_gain_field_validates():
    shape = (2, 1, 1)
    ones = np.ones(shape)
    with pytest.raises(ValueError):
        GainField(ones, ones, -ones, ones, ones, 2.0, 2.0)
    with pytest.raises(ValueError):
        GainField(ones, np.ones((2, 1, 2)), ones, ones, ones, 2.0, 2.0)


def test_proxy_rejects_cancelled_gain():
    shape = (2, 1, 1)
    ones = np.ones(shape)
    # direct and reflected paths in perfect opposition at unit distances:
    # gamma = 1 - 2 + 1 = 0 on an allocated element
    field = GainField(ones, ones, ones, -2.0 * ones, ones, 2.0, 2.0)
    with pytest.raises(InfeasibleError):
        field.proxy(np.ones((2, 1)), np.ones(2))


def test_two_slot_path_is_pinned():
    field, users = desk_fixture(0, n_slots=2)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 2).points
    out = optimize_trajectory(pts, field, users, BS, 150.0)
    np.testing.assert_array_equal(out.points, pts)
    state = make_sca_state(pts, field, users, BS)
    stepped = sca_step(state, field, users, BS, 150.0)
    d_ur, d_rb = link_distances(pts, users, BS)
    np.testing.assert_allclose(stepped.u_slack, d_ur)
    np.testing.assert_allclose(stepped.v_slack, d_rb)


def test_zero_rounds_returns_input():
    field, users = desk_fixture(1)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    out = optimize_trajectory(pts, field, users, BS, 150.0, max_x_rounds=0)
    np.testing.assert_array_equal(out.points, pts)


def test_midpoint_matches_grid_search():
    # one user below the route, one free waypoint: the refined midpoint must
    # land within 2 m of an exhaustive 0.5 m grid search over the reachable
    # lens, and match its proxy value
    users = np.array([[0.0, 0.0, 0.0]])
    pts = straight_trajectory([-50.0, 40.0, 30.0], [50.0, 40.0, 30.0], 3).points
    shape = (3, 1, 1)
    field = GainField(np.ones(shape), np.ones(shape), np.full(shape, 1e7),
                      np.zeros(shape), np.full(shape, 1e-4), 2.0, 2.0)
    out = optimize_trajectory(pts, field, users, BS, 60.0)
    out.check(60.0, pts[0], pts[-1])

    best_val, best_q = np.inf, None
    for gx in np.arange(-12.0, 12.01, 0.5):
        for gy in np.arange(-10.0, 90.01, 0.5):
            q = np.array([gx, gy, 30.0])
            if (np.linalg.norm(q - pts[0]) > 60.0
                    or np.linalg.norm(q - pts[-1]) > 60.0):
                continue
            cand = pts.copy()
            cand[1] = q
            val = proxy_at(field, cand, users)
            if val < best_val:
                best_val, best_q = val, q
    assert np.linalg.norm(out.points[1] - best_q) <= 2.0
    assert proxy_at(field, out.points, users) <= best_val * (1.0 + 1e-3)


def test_proxy_history_non_increasing():
    field, users = desk_fixture(3)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    history = []
    out = optimize_trajectory(pts, field, users, BS, 150.0,
                              barrier_tol=1e-6, history=history)
    assert len(history) >= 2
    for earlier, later in zip(history, history[1:]):
        assert later <= earlier * (1.0 + 1e-12)
    assert history[-1] < history[0]
    out.check(150.0, pts[0], pts[-1])


def test_desk_scale_paths_beat_direct_line():
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    wins = 0
    for seed in range(20):
        field, users = desk_fixture(100 + seed)
        out = optimize_trajectory(pts, field, users, BS, 150.0,
                                  barrier_tol=1e-6, max_sca_iters=3)
        out.check(150.0, pts[0], pts[-1])
        before = proxy_at(field, pts, users)
        after = proxy_at(field, out.points, users)
        assert after <= before * (1.0 + 1e-12)
        if after < before * (1.0 - 1e-9):
            wins += 1
    assert wins >= 18


def test_huge_tolerance_stops_after_one_round():
    field, users = desk_fixture(5)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    loose = optimize_trajectory(pts, field, users, BS, 150.0, eps5=1e9,
                                barrier_tol=1e-6)
    single = optimize_trajectory(pts, field, users, BS, 150.0, max_x_rounds=1,
                                 barrier_tol=1e-6)
    np.testing.assert_array_equal(loose.points, single.points)
    assert proxy_at(field, loose.points, users) <= proxy_at(field, pts, users)


def test_slacks_stay_feasible_after_step():
    field, users = desk_fixture(6)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    state = make_sca_state(pts, field, users, BS)
    d_ur, d_rb = link_distances(pts, users, BS)
    x = np.zeros_like(field.c_un)
    mask = field.delta > 0
    x[mask] = quad_transform_y(field.c_un[mask],
                               field.gains(d_ur, d_rb)[mask])
    from dataclasses import replace
    state = replace(state, x_aux=x)
    stepped = sca_step(state, field, users, BS, 150.0, barrier_tol=1e-6)
    assert stepped is not state
    d_ur2, d_rb2 = link_distances(stepped.points, users, BS)
    assert np.all(stepped.u_slack >= d_ur2 - 1e-8)
    assert np.all(stepped.v_slack >= d_rb2 - 1e-8)
    assert stepped.objective <= state.objective * (1.0 + 1e-12)


def test_solver_failure_keeps_waypoints(monkeypatch):
    import aris_emf.trajectory as traj_mod

    def boom(*args, **kwargs):
        raise ConvexSolverError("synthetic failure")

    monkeypatch.setattr(traj_mod, "solve_convex_program", boom)
    field, users = desk_fixture(8)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    with pytest.warns(RuntimeWarning, match="keeping current waypoints"):
        out = optimize_trajectory(pts, field, users, BS, 150.0)
    np.testing.assert_array_equal(out.points, pts)


def test_mixed_sign_cross_terms_still_descend():
    # every link carries a negative cross term next to its reflected energy
    rng = np.random.default_rng(21)
    shape = (5, 2, 3)
    users = np.array([[10.0, -20.0, 0.0], [-30.0, 10.0, 0.0]])
    a = rng.uniform(1e5, 1e7, shape)
    field = GainField(np.ones(shape), rng.uniform(0.5, 2.0, shape), a,
                      -np.sqrt(a) * 1e-2, rng.uniform(1e-5, 1e-3, shape),
                      2.0, 2.2)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 5).points
    history = []
    out = optimize_trajectory(pts, field, users, BS, 150.0, barrier_tol=1e-6,
                              history=history)
    for earlier, later in zip(history, history[1:]):
        assert later <= earlier * (1.0 + 1e-12)
    out.check(150.0, pts[0], pts[-1])


def reference_step_points(state, field, users, max_step, barrier_tol):
    """Waypoints of sca_step's subproblem, built one term and one constraint
    at a time: per pulled pair a tangent plane, a kept-exact b < 0 term and a
    u-slack disk, per slot a v-slack disk, per move a step disk."""
    pts = state.points
    n_slots = pts.shape[0]
    free = list(range(1, n_slots - 1))
    a_eff, b_pos, b_neg = _collapse_weights(state, field)
    k1, k2 = field.kappa1, field.kappa2
    h1, h2 = 0.5 * k1, 0.5 * k2
    q_of = {l: 2 * i for i, l in enumerate(free)}
    dim = 2 * len(free)
    v_of, u_of = {}, {}
    for l in free:
        for u in range(users.shape[0]):
            if a_eff[l, u] + b_pos[l, u] > 0.0:
                if l not in v_of:
                    v_of[l] = dim
                    dim += 1
                u_of[(l, u)] = dim
                dim += 1

    def raw_objective(x):
        val, grad, hess = 0.0, np.zeros(dim), np.zeros((dim, dim))
        for (l, u), iu in u_of.items():
            iv = v_of[l]
            u0, v0 = state.u_slack[l, u], state.v_slack[l]
            (fa, dau, dav), (fb, dbu, dbv) = linearize_gain_terms(
                a_eff[l, u], b_pos[l, u], u0, v0, k1, k2)
            # the weighted gain sum is maximized: its convex terms enter as
            # minus their tangent planes, its b < 0 terms exactly
            val -= fa + fb + (dau + dbu) * (x[iu] - u0) + (dav + dbv) * (x[iv] - v0)
            grad[iu] -= dau + dbu
            grad[iv] -= dav + dbv
            if b_neg[l, u] > 0.0:
                if x[iu] <= 0.0 or x[iv] <= 0.0:
                    return np.inf, grad, hess
                f = b_neg[l, u] * x[iu] ** -h1 * x[iv] ** -h2
                val += f
                grad[iu] -= h1 * f / x[iu]
                grad[iv] -= h2 * f / x[iv]
                hess[iu, iu] += h1 * (h1 + 1.0) * f / x[iu] ** 2
                hess[iv, iv] += h2 * (h2 + 1.0) * f / x[iv] ** 2
                hess[iu, iv] += h1 * h2 * f / (x[iu] * x[iv])
                hess[iv, iu] += h1 * h2 * f / (x[iu] * x[iv])
        return val, grad, hess

    def slack_disk(l, target, islack, s0):
        def con(x):
            iq = q_of[l]
            d = np.array([x[iq] - target[0], x[iq + 1] - target[1]])
            g = np.zeros(dim)
            g[iq:iq + 2] = 2.0 * d
            g[islack] = -2.0 * s0
            h = np.zeros((dim, dim))
            h[iq, iq] = h[iq + 1, iq + 1] = 2.0
            return d @ d + (pts[l, 2] - target[2]) ** 2 + s0 * s0 - 2.0 * s0 * x[islack], g, h
        return con

    def step_disk(l):
        def con(x):
            a = x[q_of[l]:q_of[l] + 2] if l in q_of else pts[l, :2]
            b = x[q_of[l + 1]:q_of[l + 1] + 2] if l + 1 in q_of else pts[l + 1, :2]
            g = np.zeros(dim)
            h = np.zeros((dim, dim))
            for idx, sign in ((q_of.get(l), -1.0), (q_of.get(l + 1), 1.0)):
                if idx is not None:
                    g[idx:idx + 2] = sign * 2.0 * (b - a)
                    h[idx, idx] = h[idx + 1, idx + 1] = 2.0
            if l in q_of and l + 1 in q_of:
                for off in (0, 1):
                    h[q_of[l] + off, q_of[l + 1] + off] = -2.0
                    h[q_of[l + 1] + off, q_of[l] + off] = -2.0
            return (b - a) @ (b - a) - max_step ** 2, g, h
        return con

    cons = [slack_disk(l, users[u], iu, state.u_slack[l, u]) for (l, u), iu in u_of.items()]
    cons += [slack_disk(l, BS, iv, state.v_slack[l]) for l, iv in v_of.items()]
    cons += [step_disk(l) for l in range(n_slots - 1)]
    x0 = np.zeros(dim)
    for l in free:
        x0[q_of[l]:q_of[l] + 2] = pts[l, :2]
    for (l, u), iu in u_of.items():
        x0[iu] = state.u_slack[l, u]
    for l, iv in v_of.items():
        x0[iv] = state.v_slack[l]
    scale = max(float(np.max(np.abs(raw_objective(x0)[1]))), 1e-300)

    def objective(x):
        val, grad, hess = raw_objective(x)
        return val / scale, grad / scale, hess / scale

    sol = solve_convex_program(ConvexProgram(dim=dim, objective=objective, constraints=cons),
                               x0, tol=barrier_tol, t_growth=4.0)
    out = pts.copy()
    for l in free:
        out[l, :2] = sol[q_of[l]:q_of[l] + 2]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_step_matches_the_per_term_reference(seed):
    # mixed-sign cross terms give tangent planes and kept-exact b < 0 terms;
    # slot 3 pulls no user, so it has no v slack, and slot 2 skips user 0
    field, users = desk_fixture(40 + seed)
    delta = field.delta.copy()
    delta[3] = 0.0
    delta[2, 0] = 0.0
    field = replace(field, delta=delta)
    pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
    state = make_sca_state(pts, field, users, BS)
    stepped = sca_step(state, field, users, BS, 150.0, barrier_tol=1e-10)
    want = reference_step_points(state, field, users, 150.0, barrier_tol=1e-10)
    assert np.max(np.abs(stepped.points - want)) <= 1e-6
