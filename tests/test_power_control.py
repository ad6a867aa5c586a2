import math

import numpy as np
import pytest

from aris_emf.convex_kernels import ConvexProgram, bisect, solve_convex_program
from aris_emf.exposure import InfeasibleError
from aris_emf.power_control import LN2, PowerAllocation, allocate_power
from oracles import min_power_for_rate, solve_multipliers

W = 240e3
SIGMA2 = 1e-13


def optimal_power_formula(mu, lam, sar, gamma, sigma2, w, delta):
    """max{delta*w*mu/(ln2*(sar+lam)) - delta*sigma2/gamma, 0}, elementwise."""
    delta = np.asarray(delta, dtype=float)
    bracket = w * mu / (LN2 * (np.asarray(sar, dtype=float) + lam)) \
        - sigma2 / np.asarray(gamma, dtype=float)
    out = np.maximum(delta * bracket, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def nested_bisection_oracle(gamma, sar, target, w, sigma2):
    """Independent lam=0 solve: outer bisection on the water level."""
    inv = sigma2 / gamma

    def rate(level):
        p = np.maximum(level / sar - inv, 0.0)
        return float(np.sum(w * np.log2(1.0 + p * gamma / sigma2)))

    hi = float(sar.max() * (inv.max() + 1.0))
    while rate(hi) < target:
        hi *= 2.0
    level = bisect(lambda v: rate(v) - target, 0.0, hi, tol=1e-16 * hi)
    return np.maximum(level / sar - inv, 0.0)


def test_formula_known_points():
    assert optimal_power_formula(1.0, 0.0, 1.0, 2.0, 1.0, LN2, 1.0) \
        == pytest.approx(0.5)
    assert optimal_power_formula(1e-9, 0.0, 1.0, 2.0, 1.0, LN2, 1.0) == 0.0
    assert optimal_power_formula(5.0, 0.0, 1.0, 2.0, 1.0, LN2, 0.0) == 0.0
    got = optimal_power_formula(3.0, 0.5, np.array([1.0, 2.0]), np.array([4.0, 8.0]),
                                2.0, W, np.array([1.0, 1.0]))
    want = np.maximum(W * 3.0 / (LN2 * (np.array([1.0, 2.0]) + 0.5))
                      - 2.0 / np.array([4.0, 8.0]), 0.0)
    assert np.allclose(got, want, rtol=1e-12)


def test_single_element_binds_rate_exactly():
    gamma, sar, target = 3e-9, 1.2, 2e6
    alloc, shares = allocate_power(np.array([1.0]), np.array([gamma]),
                                   np.array([sar]), target, 1.0, SIGMA2, W)
    want_p = min_power_for_rate(target, gamma, SIGMA2, W)
    assert alloc.powers[0] == pytest.approx(want_p, rel=1e-9)
    assert shares[0] == pytest.approx(target, rel=1e-9)
    assert alloc.lam == 0.0
    # the formula reproduces the power from the recovered multiplier
    again = optimal_power_formula(alloc.mu, alloc.lam, sar, gamma, SIGMA2, W, 1.0)
    assert again == pytest.approx(want_p, rel=1e-9)


def test_symmetric_elements_split_evenly():
    gamma = np.array([2e-9, 2e-9])
    sar = np.array([0.8, 0.8])
    alloc, shares = allocate_power(np.ones(2), gamma, sar, 3e6, 1.0, SIGMA2, W)
    assert alloc.powers[0] == pytest.approx(alloc.powers[1], rel=1e-10)
    assert shares[0] == pytest.approx(shares[1], rel=1e-10)
    assert shares.sum() == pytest.approx(3e6, rel=1e-9)


def test_three_elements_match_nested_bisection():
    rng = np.random.default_rng(0)
    for _ in range(25):
        gamma = rng.uniform(0.5, 5.0, size=3) * 1e-9
        sar = rng.uniform(0.3, 3.0, size=3)
        target = rng.uniform(1e6, 4e6)
        mu, lam = solve_multipliers(gamma, sar, target, 10.0, SIGMA2, W)
        assert lam == 0.0
        p = optimal_power_formula(mu, lam, sar, gamma, SIGMA2, W, np.ones(3))
        want = nested_bisection_oracle(gamma, sar, target, W, SIGMA2)
        assert np.allclose(p, want, rtol=1e-8, atol=1e-18)


@pytest.mark.parametrize("gamma, sar, target", [
    ([2.3756981938909207e-09, 4.134628579520035e-09],
     [1.039592844722572, 2.502604734573988], 769082.6600877219),
    ([2.009076265742778e-09, 3.964330055492293e-09, 2.6155360977335163e-09],
     [1.0, 1.0, 1.0], 660169.7685917433),
])
def test_huge_budget_still_meets_rate(gamma, sar, target):
    # a 1e9 W cap stretches the water-level bracket to ~1e9 while the root
    # sits near 0.1; the solve must still land on the rate-meeting side
    sigma2 = 1.2e-15 * W
    alloc, shares = allocate_power(np.ones(len(gamma)), np.array(gamma),
                                   np.array(sar), target, 1e9, sigma2, W)
    assert shares.sum() == pytest.approx(target, rel=1e-9)
    assert alloc.lam == 0.0


def test_cap_binding_matches_barrier_solver():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = 3
        gamma = rng.uniform(0.5, 5.0, size=n) * 1e-9
        sar = rng.uniform(0.3, 3.0, size=n)
        target = 3e6
        # cap between the exposure-optimal unconstrained spend and the minimum
        mu0, _ = solve_multipliers(gamma, sar, target, 1e9, SIGMA2, W)
        p0 = optimal_power_formula(mu0, 0.0, sar, gamma, SIGMA2, W, np.ones(n))
        p_min = nested_bisection_oracle(gamma, np.ones(n), target, W, SIGMA2).sum()
        p_cap = 0.5 * (p_min + p0.sum())
        if p_cap >= p0.sum() * (1 - 1e-9):
            continue
        alloc, shares = allocate_power(np.ones(n), gamma, sar, target, p_cap,
                                       SIGMA2, W)
        assert alloc.powers.sum() == pytest.approx(p_cap, rel=1e-8)
        assert alloc.lam > 0
        assert shares.sum() == pytest.approx(target, rel=1e-8)

        snr = gamma / SIGMA2
        x0 = np.full(n, p_cap / n * 0.98)
        assert float(np.sum(W * np.log2(1 + x0 * snr))) > target

        def objective(x):
            return float(sar @ x), sar.copy(), np.zeros((n, n))

        def rate_floor(x):
            r = W * np.log2(1 + x * snr)
            grad = -W * snr / (LN2 * (1 + x * snr))
            hess = np.diag(W * snr ** 2 / (LN2 * (1 + x * snr) ** 2))
            return target - float(r.sum()), grad, hess

        def cap(x):
            return float(x.sum()) - p_cap, np.ones(n), np.zeros((n, n))

        bounds = [
            (lambda i: (lambda x: (-x[i], -np.eye(n)[i], np.zeros((n, n)))))(i)
            for i in range(n)
        ]
        prog = ConvexProgram(dim=n, objective=objective,
                             constraints=[rate_floor, cap] + bounds)
        x = solve_convex_program(prog, x0, tol=1e-10)
        assert float(sar @ alloc.powers) == pytest.approx(float(sar @ x), rel=1e-6)
        assert np.allclose(alloc.powers, x, rtol=1e-4, atol=1e-12)


def test_complementary_slackness_normalized():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gamma = rng.uniform(0.5, 5.0, size=n) * 1e-9
        sar = rng.uniform(0.3, 3.0, size=n)
        target = rng.uniform(0.5e6, 3e6)
        p_max = float(rng.uniform(0.05, 10.0))
        try:
            alloc, shares = allocate_power(np.ones(n), gamma, sar, target, p_max,
                                           SIGMA2, W)
        except InfeasibleError:
            continue
        rate_slack = (shares.sum() - target) / W
        power_slack = (alloc.powers.sum() - p_max) / p_max
        assert abs(alloc.mu * W * rate_slack) <= 1e-8 * max(1.0, alloc.mu * W)
        assert abs(alloc.lam * power_slack) <= 1e-8 * max(1.0, alloc.lam)
        assert shares.sum() >= target * (1 - 1e-9)


def test_unbalanced_element_gets_less_than_equal_split():
    gamma = np.array([5e-9, 5e-10])      # second element 10x worse
    sar = np.array([1.0, 1.0])
    target = 3e6
    alloc, _ = allocate_power(np.ones(2), gamma, sar, target, 10.0, SIGMA2, W)
    p_eq = np.array([min_power_for_rate(target / 2, g, SIGMA2, W) for g in gamma])
    assert alloc.powers[1] < p_eq[1]
    assert float(sar @ alloc.powers) < float(sar @ p_eq)


def test_exposure_never_above_equal_rate_split():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        gamma = rng.uniform(0.2, 8.0, size=n) * 1e-9
        sar = rng.uniform(0.2, 4.0, size=n)
        target = rng.uniform(0.5e6, 4e6)
        p_eq = np.array([min_power_for_rate(target / n, g, SIGMA2, W) for g in gamma])
        alloc, _ = allocate_power(np.ones(n), gamma, sar, target,
                                  float(p_eq.sum()) * 2 + 1.0, SIGMA2, W)
        assert float(sar @ alloc.powers) <= float(sar @ p_eq) * (1 + 1e-9)


@pytest.mark.parametrize("target", [1e-9, 1e-12])
def test_tiny_rate_target_is_met_exactly(target):
    # the excess bits are ~1e-14 and less: a level taken as the difference of
    # two logarithms of the thresholds would lose them to rounding
    gamma = np.array([3e-9, 1e-9, 2e-9])
    sar = np.array([1.0, 0.5, 2.0])
    for n in (1, 3):
        alloc, shares = allocate_power(np.ones(n), gamma[:n], sar[:n], target,
                                       1.0, SIGMA2, W)
        assert shares.sum() == pytest.approx(target, rel=1e-9)
        assert alloc.lam == 0.0


def test_water_level_matches_nested_bisection_with_ties_and_a_dominated_element():
    rng = np.random.default_rng(7)
    for n in range(1, 17):
        gamma = rng.uniform(0.5, 5.0, size=n) * 1e-9
        sar = rng.uniform(0.3, 3.0, size=n)
        if n >= 3:
            gamma[:2], sar[:2] = 5e-9, 0.3               # a tie, always active
        if n >= 2:
            gamma[-1], sar[-1] = 1e-12, 50.0             # dominated: stays dark
        target = float(rng.uniform(1e6, 4e6))
        alloc, shares = allocate_power(np.ones(n), gamma, sar, target, 10.0,
                                       SIGMA2, W)
        want = nested_bisection_oracle(gamma, sar, target, W, SIGMA2)
        assert alloc.lam == 0.0
        assert np.allclose(alloc.powers, want, rtol=1e-8, atol=0.0)
        assert shares.sum() == pytest.approx(target, rel=1e-9)
        if n >= 2:
            assert want[-1] == 0.0 and alloc.powers[-1] == 0.0
        if n >= 3:
            assert alloc.powers[0] == alloc.powers[1] > 0.0


def test_cap_at_the_least_spend_edge():
    # a slot of three users whose smaller targets fit the cap: only user 2
    # sits at the edge, so the error must name user 2
    gamma = np.tile([2e-9, 1e-9, 4e-9], (3, 1))
    sar = np.tile([0.5, 1.0, 3.0], (3, 1))
    targets = np.array([1e6, 2e6, 3e6])
    # the least spend that meets the rate: equal weights, no cap
    least = nested_bisection_oracle(gamma[2], np.ones(3), targets[2], W, SIGMA2).sum()
    with pytest.raises(InfeasibleError, match="user 2"):
        allocate_power(np.ones((3, 3)), gamma, sar, targets, least * (1 - 1e-9),
                       SIGMA2, W)
    alloc, shares = allocate_power(np.ones((3, 3)), gamma, sar, targets,
                                   least * (1 + 1e-9), SIGMA2, W)
    assert alloc.lam[2] > 0
    assert alloc.powers[2].sum() <= least * (1 + 1e-9)
    assert shares[2].sum() == pytest.approx(targets[2], rel=1e-9)


def test_infeasible_budget_names_user():
    # users 0-2 carry 1 kbit/s each within the 1 uW budget; user 3 cannot
    targets = np.array([1e3, 1e3, 1e3, 50e6])
    with pytest.raises(InfeasibleError, match="user 3"):
        allocate_power(np.ones((4, 2)), np.full((4, 2), 1e-9), np.ones((4, 2)),
                       targets, 1e-6, SIGMA2, W)


def test_slot_batch_equals_per_row_calls_bit_for_bit():
    # rows own 1 to 5 of 9 elements; user 1 has a zero gain on an owned
    # element and user 3's power cap binds: the batched call must repeat
    # each row's own call exactly, and the call on the owned elements alone
    rng = np.random.default_rng(11)
    delta = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 0],
                      [1, 1, 0, 1, 0, 0, 0, 0, 0],
                      [0, 1, 1, 0, 0, 0, 1, 1, 0],
                      [1, 0, 1, 1, 0, 1, 0, 0, 1],
                      [0, 0, 0, 0, 1, 1, 1, 1, 0]], dtype=float)
    gamma = rng.uniform(0.5, 5.0, size=delta.shape) * 1e-9
    sar = rng.uniform(0.3, 3.0, size=delta.shape)
    gamma[1, 3] = 0.0
    targets = rng.uniform(0.2e6, 0.5e6, size=delta.shape[0])
    targets[3] = 3e6
    cap_row = delta[3] > 0
    p_max = nested_bisection_oracle(gamma[3, cap_row], np.ones(5), targets[3],
                                    W, SIGMA2).sum() * (1 + 1e-9)
    batch, shares = allocate_power(delta, gamma, sar, targets, p_max, SIGMA2, W)
    assert np.flatnonzero(batch.lam).tolist() == [3]
    assert batch.powers[1, 3] == 0.0 and np.all(batch.powers[delta == 0] == 0.0)
    for u in range(delta.shape[0]):
        alone, alone_shares = allocate_power(delta[u], gamma[u], sar[u], targets[u],
                                             p_max, SIGMA2, W)
        assert np.array_equal(batch.powers[u], alone.powers)
        assert np.array_equal(shares[u], alone_shares)
        assert np.array_equal(batch.mu[u], alone.mu)
        assert np.array_equal(batch.lam[u], alone.lam)
        owned = delta[u] > 0
        packed, packed_shares = allocate_power(np.ones(owned.sum()), gamma[u, owned],
                                               sar[u, owned], targets[u], p_max,
                                               SIGMA2, W)
        assert np.array_equal(batch.powers[u, owned], packed.powers)
        assert np.array_equal(shares[u, owned], packed_shares)
        assert batch.mu[u] == packed.mu and batch.lam[u] == packed.lam


def test_unallocated_elements_stay_dark():
    delta = np.array([1.0, 0.0, 1.0, 0.0])
    gamma = np.array([2e-9, 1e-9, 3e-9, 1e-9])
    sar = np.array([1.0, 1.0, 2.0, 1.0])
    alloc, shares = allocate_power(delta, gamma, sar, 2e6, 5.0, SIGMA2, W)
    assert alloc.powers[1] == 0.0 and alloc.powers[3] == 0.0
    assert shares[1] == 0.0 and shares[3] == 0.0
    assert shares.sum() == pytest.approx(2e6, rel=1e-9)


def test_zero_target_returns_zeros():
    alloc, shares = allocate_power(np.ones(2), np.full(2, 1e-9), np.ones(2),
                                   0.0, 1.0, SIGMA2, W)
    assert alloc.powers.sum() == 0.0 and shares.sum() == 0.0
    assert alloc.mu == 0.0 and alloc.lam == 0.0


def test_allocation_type_validation():
    with pytest.raises(ValueError, match="negative"):
        PowerAllocation(np.array([-1e-3]), 0.0, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        PowerAllocation(np.array([1e-3]), -1.0, 0.0)
