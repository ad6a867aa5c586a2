"""End-to-end acceptance criteria.

Each test covers one numbered criterion, prints a single
``[criterion N] PASS/FAIL (elapsed)`` line with the measured quantities,
and asserts the criterion's stated tolerances and time budget.
"""

import filecmp
import math
import sys
import time

import numpy as np
import pytest

from aris_emf.beamforming import optimize_beamformer
from aris_emf.channel import beam_array, channel_gain, expanded_gain, gram_terms
from aris_emf.convex_kernels import ConvexProgram, solve_convex_program
from aris_emf.exposure import InfeasibleError, default_sar_model, power_factor, reference_sar
from aris_emf.harness import SweepSpec, monte_carlo_sweep
from aris_emf.orchestrator import AoKnobs, run_ao
from aris_emf.power_control import allocate_power
from aris_emf.ris_phase import gaussian_randomization, solve_relaxation
from aris_emf.scenario import desk_scenario, save_scenario
from aris_emf.trajectory import (
    GainField,
    link_distances,
    linearize_gain_terms,
    make_sca_state,
    optimize_trajectory,
    quad_transform_y,
    sca_step,
    straight_trajectory,
)

pytestmark = pytest.mark.acceptance

LN2 = math.log(2.0)
FAST = AoKnobs(traj_outers=1)


def _report(criterion, ok, elapsed, detail):
    line = (f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s): {detail}")
    print(line, file=sys.__stdout__, flush=True)
    return line


def test_criterion_1_gain_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        h = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        alpha = (1.0, float(rng.uniform(0, 4)))
        beta = (0.0, float(rng.uniform(0, 2 * np.pi)))
        f = np.sqrt(alpha) * np.exp(1j * np.array(beta))
        want = float(np.linalg.norm(h @ f) ** 2)
        got = channel_gain(h, beam_array((), alpha[1], beta[1]))
        worst = max(worst, abs(got - want) / max(want, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    line = _report(1, ok, elapsed,
                   f"expanded-vs-quadratic gain, 1000 instances, "
                   f"max rel err {worst:.2e} (tol 1e-10)")
    assert ok, line


def test_criterion_2_dinkelbach_vs_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    model = default_sar_model()
    worst_gap = 0.0
    monotone = True
    n = 500
    a2 = np.linspace(0.0, 4.0, n)
    b2 = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        k = a @ a.conj().T
        c = power_factor(float(rng.uniform(2e5, 2e6)), 1e-12, 240e3)
        bf, state = optimize_beamformer(k, model, c)
        gam = expanded_gain(gram_terms(k), a2, b2[:, None])
        alpha = np.stack([np.ones((n, n)), np.broadcast_to(a2, (n, n))])
        sar = reference_sar(model, alpha, b2[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gam > 0, c * sar / gam, np.inf)
        oracle = float(ratio.min())
        worst_gap = max(worst_gap, abs(state.lam - oracle) / oracle)
        hist = np.asarray(state.lam_history)
        if np.any(np.diff(hist) > 1e-12 * np.maximum(1.0, np.abs(hist[:-1]))):
            monotone = False
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 0.005 and monotone and elapsed < 30.0
    line = _report(2, ok, elapsed,
                   f"ratio vs 500x500 grid on 50 instances, max gap "
                   f"{worst_gap * 100:.3f}% (tol 0.5%), "
                   f"lambda monotone: {monotone}")
    assert ok, line


def test_criterion_3_power_kkt_vs_barrier():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    sigma2, w = 1.2e-15 * 240e3, 240e3
    worst_obj = 0.0
    worst_slack = 0.0
    solved = 0
    attempts = 0
    while solved < 100 and attempts < 400:
        attempts += 1
        n = int(rng.integers(1, 4))
        gamma = rng.uniform(0.5, 5.0, size=n) * 1e-9
        sar = rng.uniform(0.3, 3.0, size=n)
        target = float(rng.uniform(0.5e6, 3e6))
        # minimal-total-power point (unit weights) for interior starts
        try:
            min_alloc, _ = allocate_power(np.ones(n), gamma, np.ones(n),
                                          target, 1e9, sigma2, w)
            free_alloc, _ = allocate_power(np.ones(n), gamma, sar, target,
                                           1e9, sigma2, w)
        except InfeasibleError:
            continue
        if attempts % 2:  # power cap binds
            cap = 0.5 * (min_alloc.powers.sum() + free_alloc.powers.sum())
            if cap >= free_alloc.powers.sum() * (1 - 1e-6):
                continue
        else:  # slack cap
            cap = 2.0 * free_alloc.powers.sum()
        alloc, shares = allocate_power(np.ones(n), gamma, sar, target, cap,
                                       sigma2, w)
        x0 = 0.5 * (min_alloc.powers + alloc.powers)
        snr = gamma / sigma2
        if float(np.sum(w * np.log2(1 + x0 * snr))) <= target * (1 + 1e-9):
            x0 = alloc.powers * 1.02
        if float(x0.sum()) >= cap or \
                float(np.sum(w * np.log2(1 + x0 * snr))) <= target:
            continue
        # water-filling leaves weak elements at exactly zero power, on the
        # boundary x_i >= 0; lift every entry by a share of the cap slack so
        # the start is strictly interior (sum stays below cap, rate only rises)
        x0 = x0 + 0.1 * (cap - float(x0.sum())) / n

        def objective(x):
            return float(sar @ x), sar.copy(), np.zeros((n, n))

        def rate_floor(x):
            r = w * np.log2(1 + x * snr)
            grad = -w * snr / (LN2 * (1 + x * snr))
            hess = np.diag(w * snr ** 2 / (LN2 * (1 + x * snr) ** 2))
            return target - float(r.sum()), grad, hess

        def cap_con(x):
            return float(x.sum()) - cap, np.ones(n), np.zeros((n, n))

        bounds = [
            (lambda i: (lambda x: (-x[i], -np.eye(n)[i], np.zeros((n, n)))))(j)
            for j in range(n) for i in [j]
        ]
        prog = ConvexProgram(dim=n, objective=objective,
                             constraints=[rate_floor, cap_con] + bounds)
        x = solve_convex_program(prog, x0, tol=1e-10)
        kkt_obj = float(sar @ alloc.powers)
        bar_obj = float(sar @ x)
        worst_obj = max(worst_obj, abs(kkt_obj - bar_obj) / max(bar_obj, 1e-300))
        rate_slack = (shares.sum() - target) / w
        power_slack = (alloc.powers.sum() - cap) / cap
        worst_slack = max(
            worst_slack,
            abs(alloc.mu * w * rate_slack) / max(1.0, alloc.mu * w),
            abs(alloc.lam * power_slack) / max(1.0, alloc.lam))
        solved += 1
    elapsed = time.perf_counter() - start
    ok = (solved == 100 and worst_obj <= 1e-6 and worst_slack <= 1e-8
          and elapsed < 30.0)
    line = _report(3, ok, elapsed,
                   f"closed form vs barrier on {solved} instances, max "
                   f"objective gap {worst_obj:.2e} (tol 1e-6), max "
                   f"complementary slackness {worst_slack:.2e} (tol 1e-8)")
    assert ok, line


def test_criterion_4_sdp_bound_and_randomization():
    start = time.perf_counter()
    levels = np.exp(2j * math.pi * np.arange(16) / 16)
    grids = np.meshgrid(*([levels] * 4), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    lifted = np.concatenate([thetas, np.ones((thetas.shape[0], 1))], axis=1)
    bound_ok = 0
    gr_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        r = a @ a.conj().T
        best_enum = float(np.einsum("ki,ij,kj->k", lifted.conj(), r,
                                    lifted).real.max())
        sol = solve_relaxation(r, tol=1e-7)
        if sol.value >= best_enum - 1e-6 * abs(best_enum):
            bound_ok += 1
        theta = gaussian_randomization(sol.theta_bar, r, 500, rng)
        lg = np.concatenate([theta.values, [1.0]])
        got = float((lg.conj() @ r @ lg).real)
        if got >= 0.85 * best_enum:
            gr_hits += 1
    elapsed = time.perf_counter() - start
    ok = bound_ok == 20 and gr_hits >= 18 and elapsed < 60.0
    line = _report(4, ok, elapsed,
                   f"relaxation >= 16-level enumeration in {bound_ok}/20, "
                   f"randomization >= 0.85x enumeration in {gr_hits}/20 "
                   f"(need 18)")
    assert ok, line


def _random_field(rng, n_slots=6, n_users=4, n_res=8):
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


def test_criterion_5_sca_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
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
    violations = int(np.sum(plane_a > true_a + 1e-9 * np.maximum(1.0, true_a)))
    violations += int(np.sum(plane_b > true_b + 1e-9 * np.maximum(1.0, true_b)))

    bs = np.array([200.0, 0.0, 25.0])
    d_max = 150.0
    feas_bad = 0
    monotone = True
    stepped_count = 0
    for seed in range(20):
        frng = np.random.default_rng(5100 + seed)
        field, users = _random_field(frng)
        pts = straight_trajectory([-80, 55, 100], [100, 20, 100], 6).points
        state = make_sca_state(pts, field, users, bs)
        new = sca_step(state, field, users, bs, d_max, barrier_tol=1e-6)
        if new is not state:
            stepped_count += 1
            d_ur, d_rb = link_distances(new.points, users, bs)
            steps = np.linalg.norm(np.diff(new.points, axis=0), axis=1)
            if (np.any(new.u_slack < d_ur - 1e-6 * np.maximum(1.0, d_ur))
                    or np.any(new.v_slack < d_rb - 1e-6 * np.maximum(1.0, d_rb))
                    or np.any(steps > d_max * (1 + 1e-6))
                    or not np.allclose(new.points[0], pts[0])
                    or not np.allclose(new.points[-1], pts[-1])):
                feas_bad += 1
        history = []
        optimize_trajectory(pts, field, users, bs, d_max, barrier_tol=1e-6,
                            history=history)
        for earlier, later in zip(history, history[1:]):
            if later > earlier * (1 + 1e-12):
                monotone = False
    elapsed = time.perf_counter() - start
    ok = (violations == 0 and feas_bad == 0 and monotone and stepped_count > 0
          and elapsed < 30.0)
    line = _report(5, ok, elapsed,
                   f"tangent violations {violations}/1000 (need 0), "
                   f"infeasible subproblem outputs {feas_bad}/{stepped_count}, "
                   f"surrogate monotone: {monotone}")
    assert ok, line


def test_criterion_6_ao_monotone_and_feasible():
    start = time.perf_counter()
    sc = desk_scenario()
    bad_monotone = 0
    bad_rates = 0
    for trial in range(20):
        state, report = run_ao(sc, trial=trial)
        outer_values = [e["exposure"] for e in state.trace
                        if e["event"] == "outer"]
        values = [next(e["exposure"] for e in state.trace
                       if e["event"] == "init")] + outer_values
        if any(b > a for a, b in zip(values, values[1:])):
            bad_monotone += 1
        if np.any(report.achieved_rates < sc.rate_targets * (1 - 1e-6)):
            bad_rates += 1
    elapsed = time.perf_counter() - start
    ok = bad_monotone == 0 and bad_rates == 0 and elapsed < 180.0
    line = _report(6, ok, elapsed,
                   f"20 desk trials: non-increasing exposure in "
                   f"{20 - bad_monotone}/20, rate targets met (1e-6 rel) in "
                   f"{20 - bad_rates}/20")
    assert ok, line


def test_criterion_7_trend_reproduction():
    start = time.perf_counter()
    sc = desk_scenario()
    trials = 50
    eps = 1e-2

    mr = monte_carlo_sweep(
        SweepSpec("rx_antennas", (4, 8, 16), trials, ("proposed",), sc),
        eps=eps, knobs=FAST)
    nn = monte_carlo_sweep(
        SweepSpec("num_ris_elements", (8, 32), trials, ("proposed",), sc),
        eps=eps, knobs=FAST)
    base = monte_carlo_sweep(
        SweepSpec("num_ris_elements", (16,), trials, ("random", "no-ris"), sc),
        eps=eps, knobs=FAST)
    desk_prop = mr.by_trial[(8, "proposed")]     # same scenario as the base
    direct = {}
    for trial in range(trials):
        state, _ = run_ao(sc, trial=trial, eps=eps, knobs=FAST,
                          enable_trajectory=False)
        direct[trial] = state.exposure()

    def mean_of(result, key):
        return float(np.mean(result.samples[key]))

    mr_means = [mean_of(mr, (v, "proposed")) for v in (4, 8, 16)]
    a_ok = mr_means[0] > mr_means[1] > mr_means[2]

    n_means = [mean_of(nn, (8, "proposed")), float(np.mean(list(desk_prop.values()))),
               mean_of(nn, (32, "proposed"))]
    b_ok = n_means[0] > n_means[1] > n_means[2]

    rnd = base.by_trial[(16, "random")]
    bare = base.by_trial[(16, "no-ris")]
    chain = sum(desk_prop[t] <= rnd[t] <= bare[t] for t in range(trials))
    c_ok = chain >= 0.9 * trials

    safeguard = sum(desk_prop[t] <= direct[t] for t in range(trials))
    reduction = 1.0 - (np.mean(list(desk_prop.values()))
                       / np.mean(list(direct.values())))
    d_ok = safeguard == trials and reduction >= 0.20

    with_aris = np.sort(mr.max_samples[(8, "proposed")])
    without = np.sort(base.max_samples[(16, "no-ris")])
    e_ok = len(with_aris) == len(without) and bool(
        np.all(with_aris <= without))

    elapsed = time.perf_counter() - start
    ok = a_ok and b_ok and c_ok and d_ok and e_ok and elapsed < 300.0
    detail = (
        f"(a) {'PASS' if a_ok else 'FAIL'} mean I vs rx antennas "
        f"{mr_means[0]:.3f} > {mr_means[1]:.3f} > {mr_means[2]:.3f}; "
        f"(b) {'PASS' if b_ok else 'FAIL'} mean I vs surface size "
        f"{n_means[0]:.3f} > {n_means[1]:.3f} > {n_means[2]:.3f}; "
        f"(c) {'PASS' if c_ok else 'FAIL'} optimized<=random<=no-RIS in "
        f"{chain}/{trials} (need {int(0.9 * trials)}); "
        f"(d) {'PASS' if d_ok else 'FAIL'} trajectory<=direct in "
        f"{safeguard}/{trials}, mean reduction {reduction * 100:.1f}% "
        f"(need >=20%); "
        f"(e) {'PASS' if e_ok else 'FAIL'} max-exposure CDF dominance")
    line = _report(7, ok, elapsed, detail)
    assert ok, line


def test_criterion_8_sweep_determinism(tmp_path):
    start = time.perf_counter()
    from aris_emf.cli import main
    cfg = tmp_path / "desk.cfg"
    save_scenario(desk_scenario(), cfg)
    args = ["sweep", "--config", str(cfg), "--param", "n", "--values", "8,16",
            "--trials", "2", "--schemes", "no-ris,zero", "--seed", "7"]
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        code = main(args + ["--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all(
        filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
        for name in ("sweep.csv", "no-ris.dat", "zero.dat"))
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 60.0
    line = _report(8, ok, elapsed,
                   f"two seeded sweep runs byte-identical: {identical}")
    assert ok, line
