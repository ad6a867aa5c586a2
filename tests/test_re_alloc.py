import numpy as np
import pytest

from aris_emf.exposure import InfeasibleError
from aris_emf.re_alloc import AllocationMatrix, allocate, ranking_metric

W = 240e3


def test_metric_known_points():
    assert ranking_metric(W, 1.0, 1.0, 2.2, 2.2, W) == pytest.approx(1.0)
    assert ranking_metric(2 * W, 2.0, 1.0, 2.0, 2.0, W) == pytest.approx(12.0)
    assert ranking_metric(0.0, 3.0, 5.0, 2.2, 2.2, W) == 0.0


def test_metric_monotonicity():
    r = np.linspace(0, 4 * W, 50)
    m = ranking_metric(r, 2.0, 3.0, 2.2, 2.2, W)
    assert np.all(np.diff(m) > 0)
    d = np.linspace(0.5, 10, 50)
    assert np.all(np.diff(ranking_metric(W, d, 3.0, 2.2, 2.2, W)) > 0)
    assert np.all(np.diff(ranking_metric(W, 2.0, d, 2.2, 2.2, W)) > 0)


def test_seeding_only_when_counts_match():
    alloc = allocate(np.array([1e6, 2e6, 3e6]), np.array([50.0, 60.0, 70.0]),
                     80.0, 2.2, 2.2, W, 3)
    assert np.array_equal(alloc.delta, np.eye(3))


def test_symmetric_users_split_within_one():
    rates = np.array([2e6, 2e6])
    d = np.array([70.0, 70.0])
    alloc = allocate(rates, d, 90.0, 2.2, 2.2, W, 5)
    counts = alloc.counts
    assert abs(int(counts[0]) - int(counts[1])) <= 1
    assert counts.sum() == 5
    # deterministic tie-break gives the extra element to the lower index
    assert counts[0] == 3 and counts[1] == 2


def test_far_user_wins_surplus_elements():
    # equal, mild rate burdens (one bandwidth unit each): the doubled distance
    # user keeps the larger metric even after its first surplus grant
    rates = np.array([W, W])
    d = np.array([120.0, 60.0])
    alloc = allocate(rates, d, 80.0, 2.0, 2.0, W, 4)
    assert np.array_equal(alloc.counts, [3, 1])


def test_greedy_trace_matches_naive_reimplementation():
    rng = np.random.default_rng(0)
    for _ in range(25):
        users = int(rng.integers(2, 5))
        num_res = int(rng.integers(users, 10))
        rates = rng.uniform(1e6, 9e6, size=users)
        d_ur = rng.uniform(20, 200, size=users)
        d_rb = float(rng.uniform(20, 200))
        got = allocate(rates, d_ur, d_rb, 2.2, 2.2, W, num_res).delta
        want = np.zeros((users, num_res))
        counts = [1.0] * users
        for u in range(users):
            want[u, u] = 1.0
        for n in range(users, num_res):
            best_u, best_m = 0, -1.0
            for u in range(users):
                m = (2 ** (rates[u] / counts[u] / W) - 1) * d_ur[u] ** 2.2 * d_rb ** 2.2
                if m > best_m:
                    best_u, best_m = u, m
            want[best_u, n] = 1.0
            counts[best_u] += 1.0
        assert np.array_equal(got, want)


def test_raising_a_rate_never_loses_elements():
    rng = np.random.default_rng(1)
    for _ in range(30):
        users = int(rng.integers(2, 5))
        num_res = int(rng.integers(users, 12))
        rates = rng.uniform(1e6, 9e6, size=users)
        d_ur = rng.uniform(20, 200, size=users)
        d_rb = float(rng.uniform(20, 200))
        base = allocate(rates, d_ur, d_rb, 2.2, 2.2, W, num_res).counts
        bumped_user = int(rng.integers(users))
        bumped = rates.copy()
        bumped[bumped_user] *= 1.5
        after = allocate(bumped, d_ur, d_rb, 2.2, 2.2, W, num_res).counts
        assert after[bumped_user] >= base[bumped_user]


def test_too_few_elements_rejected():
    with pytest.raises(InfeasibleError):
        allocate(np.array([1e6, 1e6, 1e6]), np.array([50.0, 60.0, 70.0]),
                 80.0, 2.2, 2.2, W, 2)


def test_allocation_matrix_invariants():
    with pytest.raises(ValueError, match="more than one user"):
        AllocationMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="0 or 1"):
        AllocationMatrix(np.full((1, 2), 0.5))
    with pytest.raises(ValueError, match="holds no resource element"):
        AllocationMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    ok = AllocationMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert np.array_equal(ok.counts, [2, 1])
    # fewer elements than users: row invariant cannot hold and is not enforced
    AllocationMatrix(np.array([[1.0], [0.0]]))


def test_identical_inputs_identical_outputs():
    rates = np.array([3e6, 1e6, 2e6])
    d_ur = np.array([40.0, 90.0, 130.0])
    one = allocate(rates, d_ur, 75.0, 2.2, 2.2, W, 8).delta
    two = allocate(rates, d_ur, 75.0, 2.2, 2.2, W, 8).delta
    assert np.array_equal(one, two)


def test_slot_axis_matches_per_slot_calls():
    rng = np.random.default_rng(2)
    for _ in range(20):
        users = int(rng.integers(2, 6))
        slots = int(rng.integers(1, 7))
        num_res = int(rng.integers(users, 14))
        rates = rng.uniform(1e6, 9e6, size=users)
        d_ur = rng.uniform(20, 200, size=(slots, users))
        d_rb = rng.uniform(20, 200, size=slots)
        # a slot of equidistant users exercises the tie-break as well
        d_ur[0] = d_ur[0, 0]
        got = allocate(rates, d_ur, d_rb, 2.2, 2.2, W, num_res)
        assert got.delta.shape == (slots, users, num_res)
        for ell in range(slots):
            want = allocate(rates, d_ur[ell], d_rb[ell], 2.2, 2.2, W, num_res)
            assert np.array_equal(got.delta[ell], want.delta)
            assert np.array_equal(got.counts[ell], want.counts)


def test_slot_axis_shapes_are_checked():
    with pytest.raises(ValueError, match="per user and slot"):
        allocate(np.array([1e6, 1e6]), np.ones((3, 2)), np.ones(2), 2.2, 2.2, W, 4)
    with pytest.raises(ValueError, match="positive"):
        allocate(np.array([1e6, 1e6]), np.ones((3, 2)), np.array([1.0, 0.0, 1.0]),
                 2.2, 2.2, W, 4)
