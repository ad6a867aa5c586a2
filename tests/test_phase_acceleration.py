"""The accelerated phase ascent against the plain one it replaced.

`oracles.plain_phase_ascent` is the ascent without extrapolation and without
retiring restarts; on the same inputs and random starts the accelerated
ascent must need fewer column evaluations where the direct path dominates
(as in `configs/full.cfg`), end at the same optimum there, and end no worse
on the mean elsewhere.
"""

import functools
import math
import os
import warnings

import numpy as np
import pytest

from aris_emf import orchestrator, ris_phase
from aris_emf.channel import STREAM_GR, rng_stream
from aris_emf.ris_phase import optimize_phases
from aris_emf.scenario import load_scenario
from oracles import plain_phase_ascent
from test_orchestrator import make_state
from test_ris_phase import ORACLE_SETS, gains_at, proxy_exposure, random_links

FULL_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "full.cfg")


@functools.cache
def full_scale_phase_calls(ascent):
    """Column evaluations and proxy values of the phase block's 20 ascents on
    the initial state of `full.cfg` trial 0, with `ascent` in place of
    `optimize_phases`; the evaluations are read from `state.counters`."""
    sc = load_scenario(FULL_CFG)
    state = make_state(sc)
    rngs = [rng_stream(sc.rng_seed, 0, ell, 0, STREAM_GR) for ell in range(sc.params.num_slots)]
    steps, values = [], []

    def counted(cascade, direct, delta, c_un, theta0, rng, counters):
        before = counters["phase_steps"]
        theta = ascent(cascade, direct, delta, c_un, theta0, rng, counters=counters)
        steps.append(counters["phase_steps"] - before)
        values.append(proxy_exposure(np.ones((len(delta), 1)), c_un[:, None],
                                     gains_at(cascade[:, None], direct[:, None],
                                              theta.values)))
        return theta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orchestrator, "optimize_phases", counted)
        orchestrator._block_phases(state, rngs)
    assert state.counters["phase_steps"] == sum(steps)
    return np.array(steps), np.array(values)


def test_full_scale_phase_ascent_step_budget():
    # the 20 direct-dominated full.cfg ascents: a median of 58.5 column
    # evaluations with extrapolation and retired restarts, 333.5 with plain
    # steps (both stop at MM_TOL = 1e-13); none ends above the plain ascent's
    # proxy by more than 1e-9 relative
    steps, values = full_scale_phase_calls(optimize_phases)
    plain_steps, plain_values = full_scale_phase_calls(plain_phase_ascent)
    assert steps.size == plain_steps.size == 20
    assert np.median(steps) <= 175 < np.median(plain_steps)
    assert np.all(values <= plain_values * (1.0 + 1e-9))


def test_restarts_retire_on_the_full_scale_calls():
    # most restarts of the 20 full.cfg ascents rejoin the warm column's basin
    # and stop there: a median of 130.5 column evaluations before they
    # retired, 58.5 after; the step-budget test holds their proxy values to
    # the plain ascent's
    steps, _ = full_scale_phase_calls(optimize_phases)
    assert np.median(steps) <= 90


def oracle_instances():
    """The 400 instances of `test_ris_phase`'s SDR comparison, then ten
    surface-dominated ones at benchmark size (4 users, 20 REs, 32 antennas,
    80 elements); yields (set index, instance index, inputs)."""
    for index, ((users, res, ants, elems), direct_scale) in enumerate(ORACLE_SETS):
        for k in range(100):
            rng = np.random.default_rng([19, index, k])
            yield index, k, draw(rng, users, res, ants, elems, direct_scale)
    for k in range(10):
        yield len(ORACLE_SETS), k, draw(np.random.default_rng([26, k]), 4, 20, 32, 80, 1.0)


def draw(rng, users, res, ants, elems, direct_scale):
    cascade, direct = random_links(rng, users, res, ants, elems)
    delta = np.zeros((users, res))
    delta[rng.integers(users, size=res), np.arange(res)] = 1.0
    c_un = rng.uniform(0.5, 2.0, size=(users, res)) * delta
    theta0 = np.exp(2j * math.pi * rng.random(elems))
    return cascade, direct * direct_scale, delta, c_un, theta0


def test_extrapolated_ascent_is_no_worse_than_the_plain_one():
    got, want = {}, {}
    for index, k, (cascade, direct, delta, c_un, theta0) in oracle_instances():
        for ascent, out in ((optimize_phases, got), (plain_phase_ascent, want)):
            theta = ascent(cascade, direct, delta, c_un, theta0,
                           np.random.default_rng([27, index, k]))
            out.setdefault(index, []).append(
                proxy_exposure(delta, c_un, gains_at(cascade, direct, theta.values)))
    assert np.mean(sum(got.values(), [])) <= np.mean(sum(want.values(), []))
    # per set the means agree to well within the stop test's reach; the
    # surface-dominated sets end lower where the ascents part ways
    for index in got:
        assert np.mean(got[index]) <= np.mean(want[index]) * (1.0 + 1e-8)
    # the direct-dominated set ends at the plain ascent's optimum (4.8e-12
    # relative at most, measured)
    direct_set = [k for k, (_, scale) in enumerate(ORACLE_SETS) if scale > 1.0]
    for index in direct_set:
        assert np.allclose(got[index], want[index], rtol=1e-9, atol=0.0)


def test_a_restart_in_another_basin_is_not_retired():
    # on this instance (2 users, 2 REs, 2 antennas, 4 elements) three of the
    # four restarts retire, and the one that finds a basin 26% below the warm
    # column's optimum ascends to its end, as the plain ascent's does
    cascade, direct, delta, c_un, theta0 = next(
        inputs for index, k, inputs in oracle_instances() if (index, k) == (2, 79))

    def value(ascent, counters=None):
        theta = ascent(cascade, direct, delta, c_un, theta0,
                       np.random.default_rng([27, 2, 79]), counters=counters)
        return proxy_exposure(delta, c_un, gains_at(cascade, direct, theta.values))

    counters = {"phase_steps": 0, "phase_retired": 0}
    got, want = value(optimize_phases, counters), value(plain_phase_ascent)
    assert counters["phase_retired"] > 0
    assert abs(got - want) <= 1e-9 * want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ris_phase, "MM_RESTARTS", 0)
        assert value(optimize_phases) > want * (1.0 + 1e-6)


def test_a_fixed_point_extrapolates_to_itself_silently(monkeypatch):
    # real positive links make theta = 1 the unit-modulus maximizer of every
    # gain, and every step returns it bit for bit: r = v = 0 in each cycle.
    # With the stop test off and no random starts the column runs all
    # MM_STEPS steps, and no cycle is evaluated, since alpha = -1
    monkeypatch.setattr(ris_phase, "MM_TOL", -1.0)
    monkeypatch.setattr(ris_phase, "MM_RESTARTS", 0)
    rng = np.random.default_rng(28)
    cascade = rng.uniform(0.1, 1.0, size=(2, 3, 2, 6))
    direct = rng.uniform(0.1, 1.0, size=(2, 3, 2))
    delta = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    c_un = rng.uniform(0.5, 2.0, size=(2, 3)) * delta
    counters = {"phase_steps": 0, "phase_retired": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = optimize_phases(cascade, direct, delta, c_un, np.ones(6),
                                np.random.default_rng(29), counters=counters)
    assert np.array_equal(theta.values, np.ones(6))
    assert counters["phase_steps"] == ris_phase.MM_STEPS
