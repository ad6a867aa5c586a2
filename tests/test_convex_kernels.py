"""Oracle tests for the dense SDP solver, barrier method, and bisection."""

import math
import warnings

import numpy as np
import pytest

from aris_emf.convex_kernels import (ConvexProgram, ConvexSolverError,
                                     SdpError, SdpProblem, bisect,
                                     solve_convex_program, solve_sdp)


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def check_sdp_post(x, tol=1e-7):
    assert np.max(np.abs(np.diag(x).real - 1.0)) <= 10 * tol
    assert np.min(np.linalg.eigvalsh(0.5 * (x + x.conj().T))) >= -10 * tol


def test_sdp_two_by_two_exchange():
    r = np.array([[0.0, 1.0], [1.0, 0.0]])
    x, value = solve_sdp(r, tol=1e-9)
    assert value == pytest.approx(2.0, abs=1e-7)
    assert np.allclose(x, np.ones((2, 2)), atol=1e-5)
    check_sdp_post(x, 1e-9)


def test_sdp_diagonal_objective():
    rng = np.random.default_rng(0)
    d = rng.uniform(-2, 2, 6)
    x, value = solve_sdp(np.diag(d).astype(complex), tol=1e-9)
    assert value == pytest.approx(float(d.sum()), abs=1e-6)
    check_sdp_post(x, 1e-9)


def enumeration_bound(r, levels=16):
    """Best rank-one objective over quantized phases, theta_bar = [theta; 1]."""
    n = r.shape[0] - 1
    phases = np.exp(2j * np.pi * np.arange(levels) / levels)
    best = -np.inf
    grids = np.meshgrid(*([phases] * n), indexing="ij")
    flat = np.stack([g.ravel() for g in grids] + [np.ones(levels ** n, dtype=complex)])
    vals = np.einsum("if,ij,jf->f", flat.conj(), r, flat).real
    best = float(vals.max())
    return best


def test_sdp_dominates_phase_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(5):
        r = random_hermitian(rng, 5)
        x, value = solve_sdp(r, tol=1e-8)
        check_sdp_post(x, 1e-8)
        assert value >= enumeration_bound(r) - 1e-6


def test_sdp_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        SdpProblem(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_sdp_rejects_non_finite():
    r = np.eye(3, dtype=complex)
    for bad in (np.nan, np.inf):
        r[1, 2] = r[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SdpProblem(r)
        with pytest.raises(ValueError, match="non-finite"):
            solve_sdp(r)


def test_sdp_at_full_surface_dimension():
    # N + 1 = 81: the dimension of the full-scale phase relaxation
    rng = np.random.default_rng(3)
    a = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
    r = a @ a.conj().T
    tol = 1e-6
    x, value = solve_sdp(r, tol=tol)
    assert np.array_equal(x, x.conj().T)
    assert np.max(np.abs(np.diag(x) - 1.0)) <= tol
    assert np.linalg.eigvalsh(x)[0] >= -1e-9 * np.trace(x).real
    assert value == pytest.approx(float(np.vdot(r, x).real), rel=1e-9)
    for _ in range(100):
        lifted = np.append(np.exp(2j * np.pi * rng.uniform(size=80)), 1.0)
        assert value >= float((lifted.conj() @ r @ lifted).real)


def test_sdp_dimension_cap():
    with pytest.raises(ValueError, match="maximum"):
        solve_sdp(np.zeros((300, 300)))


def test_sdp_scale_invariance():
    rng = np.random.default_rng(2)
    r = random_hermitian(rng, 4)
    _, v1 = solve_sdp(r, tol=1e-9)
    _, v2 = solve_sdp(1e-6 * r, tol=1e-9)
    assert v2 == pytest.approx(1e-6 * v1, rel=1e-5)


def test_barrier_projection():
    c = np.array([2.0, 1.0])

    prog = ConvexProgram(
        dim=2,
        objective=lambda x: (float((x - c) @ (x - c)), 2 * (x - c), 2 * np.eye(2)),
        constraints=[lambda x: (float(x @ x) - 1.0, 2 * x, 2 * np.eye(2))],
    )
    x = solve_convex_program(prog, np.zeros(2), tol=1e-9)
    assert np.allclose(x, c / np.linalg.norm(c), atol=1e-6)


def test_barrier_box_lp():
    c = np.array([1.0, -2.0, 0.5])
    cons = []
    for i in range(3):
        def upper(x, i=i):
            g = np.zeros(3)
            g[i] = 1.0
            return x[i] - 1.0, g, np.zeros((3, 3))

        def lower(x, i=i):
            g = np.zeros(3)
            g[i] = -1.0
            return -x[i] - 1.0, g, np.zeros((3, 3))
        cons += [upper, lower]
    prog = ConvexProgram(dim=3,
                         objective=lambda x: (float(c @ x), c, np.zeros((3, 3))),
                         constraints=cons)
    x = solve_convex_program(prog, np.zeros(3), tol=1e-9)
    assert np.allclose(x, -np.sign(c), atol=1e-6)


def qcqp_fixture(rng, dim=3):
    a = rng.normal(size=(dim, dim))
    p0 = a @ a.T + 0.5 * np.eye(dim)
    q0 = rng.normal(size=dim)
    center = rng.normal(size=dim) * 0.3
    radius2 = 1.0 + rng.uniform(0, 1)

    def objective(x):
        return float(x @ p0 @ x + q0 @ x), 2 * p0 @ x + q0, 2 * p0

    def ball(x):
        d = x - center
        return float(d @ d) - radius2, 2 * d, 2 * np.eye(dim)

    def halfspace(x):
        g = np.ones(dim)
        return float(g @ x) - 1.2, g, np.zeros((dim, dim))

    return ConvexProgram(dim=dim, objective=objective,
                         constraints=[ball, halfspace]), center, radius2


def test_barrier_qcqp_vs_rejection_sampling():
    rng = np.random.default_rng(3)
    for _ in range(3):
        prog, center, radius2 = qcqp_fixture(rng)
        x = solve_convex_program(prog, center, tol=1e-9)
        # rejection sampling over the feasible ball
        pts = center + rng.uniform(-1, 1, size=(10 ** 6, 3)) * math.sqrt(radius2)
        d = pts - center
        keep = (np.einsum("ij,ij->i", d, d) <= radius2) & (pts.sum(axis=1) <= 1.2)
        pts = pts[keep]
        p0 = 0.5 * np.asarray(prog.objective(np.zeros(3))[2])
        q0 = np.asarray(prog.objective(np.zeros(3))[1])
        vals = np.einsum("ij,jk,ik->i", pts, p0, pts) + pts @ q0
        best = float(vals.min())
        got = prog.objective(x)[0]
        assert got <= best + 1e-3 * max(1.0, abs(best))


def test_barrier_kkt_and_complementary_slackness():
    rng = np.random.default_rng(4)
    tol = 1e-9
    for _ in range(5):
        prog, center, _ = qcqp_fixture(rng)
        x, lam = solve_convex_program(prog, center, tol=tol, return_duals=True)
        f0, g0, _ = prog.objective(x)
        rows = []
        fvals = []
        for c in prog.constraints:
            fv, gv, _ = c(x)
            rows.append(gv)
            fvals.append(fv)
            assert fv <= tol  # feasibility within tol
        resid = np.linalg.norm(g0 + np.array(rows).T @ lam)
        scale = max(1.0, float(np.linalg.norm(g0)))
        assert resid <= 100 * tol * scale
        assert np.all(lam >= 0)
        for lam_i, fv in zip(lam, fvals):
            assert abs(lam_i * fv) <= 10 * tol * scale


def test_barrier_infeasible_start_rejected():
    prog = ConvexProgram(dim=1,
                         objective=lambda x: (float(x[0]), np.ones(1), np.zeros((1, 1))),
                         constraints=[lambda x: (x[0] - 1.0, np.ones(1), np.zeros((1, 1)))])
    with pytest.raises(ConvexSolverError, match="infeasible start"):
        solve_convex_program(prog, np.array([5.0]))


def test_barrier_nan_start_rejected():
    # log(x) - 1 <= 0 is undefined at x = -1: a NaN constraint value is not
    # a strictly feasible start, although NaN >= 0 is false
    prog = ConvexProgram(dim=1,
                         objective=lambda x: (float(x[0]), np.ones(1), np.zeros((1, 1))),
                         constraints=[lambda x: (float(np.log(x[0])) - 1.0,
                                                 1.0 / x, -np.diag(1.0 / x ** 2))])
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ConvexSolverError, match="infeasible start"):
            solve_convex_program(prog, np.array([-1.0]))


def test_barrier_line_search_probes_outside_the_domain_stay_silent():
    # a per-element power problem: minimize sar @ x subject to a rate floor
    # sum w*log2(1 + x*snr) >= target, a power cap and x >= 0.  A full Newton
    # step from this start probes x < -1/snr, where log2 is undefined; the
    # line search rejects that point and must not warn about it
    w, sigma2 = 240e3, 1.2e-15 * 240e3
    snr = np.array([2.9e-9, 1.9e-9]) / sigma2
    sar = np.array([1.6, 2.7])
    target = 2.8e6
    x0 = 1.1 * (2.0 ** (target / 2 / w) - 1.0) / snr
    cap = 4.0 * float(x0.sum())
    zero = np.zeros((2, 2))

    def rate_floor(x):
        r = w * np.log2(1 + x * snr)
        grad = -w * snr / (math.log(2.0) * (1 + x * snr))
        hess = np.diag(w * snr ** 2 / (math.log(2.0) * (1 + x * snr) ** 2))
        return target - float(r.sum()), grad, hess

    prog = ConvexProgram(
        dim=2, objective=lambda x: (float(sar @ x), sar, zero),
        constraints=[rate_floor,
                     lambda x: (float(x.sum()) - cap, np.ones(2), zero),
                     lambda x: (-x[0], np.array([-1.0, 0.0]), zero),
                     lambda x: (-x[1], np.array([0.0, -1.0]), zero)])
    quiet = solve_convex_program(prog, x0, tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = solve_convex_program(prog, x0, tol=1e-10)
    assert np.array_equal(strict, quiet)


def _packed(prog):
    """Rewrite a closure-list program as an equivalent constraint-pack one."""
    cons = prog.constraints

    def pack(x, want_derivs):
        triples = [c(x) for c in cons]
        f = np.array([tr[0] for tr in triples])
        if not want_derivs:
            return f
        g = np.vstack([tr[1] for tr in triples])
        hs = [np.asarray(tr[2]) for tr in triples]

        def hess_mix(coeffs):
            return sum(w * h for w, h in zip(coeffs, hs))

        return f, g, hess_mix

    return ConvexProgram(dim=prog.dim, objective=prog.objective,
                         constraint_pack=pack)


def test_barrier_constraint_pack_matches_closures():
    rng = np.random.default_rng(11)
    for _ in range(4):
        prog, center, _ = qcqp_fixture(rng)
        x1, lam1 = solve_convex_program(prog, center, tol=1e-9, return_duals=True)
        x2, lam2 = solve_convex_program(_packed(prog), center, tol=1e-9,
                                        return_duals=True)
        assert np.allclose(x1, x2, atol=1e-7)
        assert np.allclose(lam1, lam2, rtol=1e-4, atol=1e-10)


def test_barrier_pack_infeasible_start():
    rng = np.random.default_rng(12)
    prog, center, _ = qcqp_fixture(rng)
    with pytest.raises(ConvexSolverError, match="infeasible start"):
        solve_convex_program(_packed(prog), center + 100.0)


def test_barrier_rejects_both_constraint_styles():
    prog, center, _ = qcqp_fixture(np.random.default_rng(13))
    mixed = ConvexProgram(dim=prog.dim, objective=prog.objective,
                          constraints=prog.constraints,
                          constraint_pack=_packed(prog).constraint_pack)
    with pytest.raises(ConvexSolverError, match="not both"):
        solve_convex_program(mixed, center)


def test_bisect_linear():
    assert bisect(lambda x: x - 1.0, 0.0, 2.0, tol=1e-14) == pytest.approx(1.0, abs=1e-12)


def test_bisect_no_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        bisect(lambda x: x + 5.0, 0.0, 1.0)


def test_bisect_transcendental_rate_balance():
    # water-level style balance: 2^x = 5 has the closed form log2(5)
    root = bisect(lambda x: 2.0 ** x - 5.0, 0.0, 3.0, tol=1e-14)
    assert root == pytest.approx(math.log2(5.0), abs=1e-10)


def test_bisect_returns_end_on_hi_side():
    # increasing f: with hi above the root the result is never below it, and
    # with the bracket given the other way round it is never above it
    f = lambda x: x - 1.0 / 3.0
    above = bisect(f, 0.0, 1.0, tol=1e-14)
    below = bisect(f, 1.0, 0.0, tol=1e-14)
    assert f(above) >= 0.0 and f(below) <= 0.0
    assert above - below <= 1e-14 * above
    # same for a decreasing f
    g = lambda x: 1.0 / 3.0 - x
    assert g(bisect(g, 0.0, 1.0, tol=1e-14)) <= 0.0
    assert g(bisect(g, 1.0, 0.0, tol=1e-14)) >= 0.0


def test_bisect_tolerance_relative_to_bracket_not_initial_hi():
    # root near 0.1 inside a bracket of ~1e9, as a water level under a huge
    # power budget; an absolute width of tol * 1e9 would leave ~1e-6 error
    root = 0.1 + 1e-9
    f = lambda x: math.log(x / root)
    got = bisect(f, 1e-300, 1e9, tol=1e-15)
    assert got >= root
    assert got - root <= 1e-15 * got
    # an exact zero at a probe is returned as is
    assert bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5


def test_barrier_stops_centering_once_a_step_no_longer_lowers_the_barrier():
    # instance 7 of criterion 3's generator on default_rng(0): the barrier
    # value (about 5e12) stops resolving the decrease, and every Newton step
    # is the same 1.7e-12 W; centering must end there, not spin to its budget
    w, sigma2 = 240e3, 1.2e-15 * 240e3
    gamma = np.array([4.041942383699075e-09])
    sar = np.array([0.9462974960809709])
    target = 2691210.5770267597
    cap = 338.23019386817055
    snr = gamma / sigma2
    zero = np.zeros((1, 1))

    def rate_floor(x):
        r = w * np.log2(1 + x * snr)
        grad = -w * snr / (math.log(2.0) * (1 + x * snr))
        hess = np.diag(w * snr ** 2 / (math.log(2.0) * (1 + x * snr) ** 2))
        return target - float(r.sum()), grad, hess

    prog = ConvexProgram(
        dim=1, objective=lambda x: (float(sar @ x), sar.copy(), zero),
        constraints=[rate_floor,
                     lambda x: (float(x.sum()) - cap, np.ones(1), zero),
                     lambda x: (-x[0], -np.ones(1), zero)])
    x = solve_convex_program(prog, np.array([189.07067837230733]), tol=1e-10)
    want = (2.0 ** (target / w) - 1.0) / snr[0]
    assert x[0] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("slope", [1e7, 1e8])
def test_barrier_converges_on_a_badly_scaled_program(slope):
    # minimize slope*x1 + x2 subject to x1 >= 0 and 0 <= x2 <= 1: the
    # Hessian's diagonal spans many orders of magnitude near the optimum, and
    # a ridge scaled to its largest entry would stall the soft direction
    zero = np.zeros((2, 2))
    c = np.array([slope, 1.0])
    prog = ConvexProgram(
        dim=2, objective=lambda x: (float(c @ x), c, zero),
        constraints=[lambda x: (-x[0], np.array([-1.0, 0.0]), zero),
                     lambda x: (-x[1], np.array([0.0, -1.0]), zero),
                     lambda x: (x[1] - 1.0, np.array([0.0, 1.0]), zero)])
    x = solve_convex_program(prog, np.array([1e-3, 0.5]), tol=1e-9)
    assert np.all(np.abs(x) <= 1e-9)


def test_value_only_objective_serves_the_line_search():
    # the line search reads only values: a program that supplies them alone
    # takes the same steps and evaluates the full objective only per Newton step
    rng = np.random.default_rng(14)
    for _ in range(3):
        prog, center, _ = qcqp_fixture(rng)
        calls = {"full": 0}

        def counted(x, objective=prog.objective):
            calls["full"] += 1
            return objective(x)

        x_full = solve_convex_program(
            ConvexProgram(dim=prog.dim, objective=counted,
                          constraints=prog.constraints), center, tol=1e-9)
        with_probes = calls["full"]
        calls["full"] = 0
        x_value = solve_convex_program(
            ConvexProgram(dim=prog.dim, objective=counted, constraints=prog.constraints,
                          objective_value=lambda x: prog.objective(x)[0]),
            center, tol=1e-9)
        assert np.array_equal(x_full, x_value)
        assert 0 < calls["full"] < with_probes
