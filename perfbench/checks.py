"""Output checks for one solve, independent of any earlier run's numbers.

Each check recomputes a quantity from the solve's inputs with plain numpy, or
tests a property the method guarantees (rate targets met, power caps held,
one owner per resource element, unit-modulus phases, a feasible flight path,
a non-increasing exposure trace).  None compares with stored output.
"""

import numpy as np

GAIN_RTOL = 1e-8       # direct ||H_eff f||^2 against the expanded cosine form
EXPOSURE_RTOL = 1e-9   # sums of the same products in another order
RATE_SLACK = 1e-6      # the optimizer's own relative slack on rate targets
CAP_SLACK = 1e-9       # and on per-slot power caps
UNIT_TOL = 1e-9
PATH_TOL = 1e-6        # metres


class CheckFailed(AssertionError):
    """An output contradicts its recomputation or a property of the method."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(got, want, rtol, message):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    _require(np.all(np.isfinite(got)) and np.all(err <= rtol * scale),
             f"{message} (worst relative error "
             f"{float(np.max(err / scale, initial=0.0)):.3g})")


def beam_params(state, l, u, n):
    """(alpha, beta), each (K, 2), of the given links' beams.

    This is the one place that reads the state's beam format.
    """
    beams = state.beams[l, u, n]
    alpha = np.array([b.alpha for b in beams], dtype=float).reshape(-1, 2)
    beta = np.array([b.beta for b in beams], dtype=float).reshape(-1, 2)
    return alpha, beta


def beam_weights(state, l, u, n):
    """(K, 2) antenna weights sqrt(alpha) * exp(j beta) of the given links."""
    alpha, beta = beam_params(state, l, u, n)
    return np.sqrt(alpha) * np.exp(1j * beta)


def link_gains(state):
    """Active links (l, u, n) and their gains ||(s hbar diag(theta) gbar + hd) f||^2.

    s = h_scale * g_scale = sqrt(rho d_rb^-kappa2) * sqrt(rho d_ur^-kappa1),
    recomputed from the realization's arrays; slot by slot to keep memory low.
    """
    ch = state.channels
    l, u, n = np.nonzero(state.delta)
    f = beam_weights(state, l, u, n)
    gains = np.empty(l.size)
    for ell in np.unique(l):
        k = np.flatnonzero(l == ell)
        y = np.einsum("kmt,kt->km", ch.hd[ell, n[k], u[k]], f[k])
        if ch.gbar.size:
            scale = (np.sqrt(ch.rho * ch.d_rb[ell] ** -ch.kappa2)
                     * np.sqrt(ch.rho * ch.d_ur[ell, u[k]] ** -ch.kappa1))
            g_f = np.einsum("kit,kt->ki", ch.gbar[ell, n[k], u[k]], f[k])
            casc = np.einsum("kmi,i,ki->km", ch.hbar[ell, n[k]],
                             state.thetas[ell], g_f)
            y = y + scale[:, None] * casc
        gains[k] = np.sum(y.real ** 2 + y.imag ** 2, axis=1)
    return (l, u, n), gains


def reference_sar(b, alpha2, beta2):
    """The 20-coefficient SAR polynomial at alpha = (1, alpha2), written out:
    b1 + b2 s + b3 a2 + (b4 + b5 s + b6 a2) sum_k b_{7+k} cos(k beta2 + b_{14+k}),
    with s = sqrt(a2) and k = 0..6."""
    s = np.sqrt(alpha2)
    harm = sum(b[6 + k] * np.cos(k * beta2 + b[13 + k]) for k in range(7))
    return b[0] + b[1] * s + b[2] * alpha2 + (b[3] + b[4] * s + b[5] * alpha2) * harm


def per_user_exposure(state):
    """(U, N_T) sums of delta * p * SAR, with SAR recomputed from the beams."""
    l, u, n = np.nonzero(state.delta)
    alpha, beta = beam_params(state, l, u, n)
    sar = reference_sar(state.scenario.sar_model.b, alpha[:, 1], beta[:, 1] - beta[:, 0])
    p = state.scenario.params
    out = np.zeros((p.num_users, p.num_slots))
    np.add.at(out, (u, l), state.powers[l, u, n] * sar)
    return out


def index_of(per_user, slot_duration):
    """Network index: slot_duration / (N_T U) times the sum over users and slots."""
    u, nt = per_user.shape
    return slot_duration / (nt * u) * float(np.sum(per_user))


def check_allocation(state):
    d = state.delta
    _require(np.all((d == 0) | (d == 1)), "allocation entries are not 0 or 1")
    _require(np.all(d.sum(axis=1) <= 1), "a resource element has two owners")
    _require(np.all(state.powers >= 0), "a negative transmit power")
    _require(np.all(state.powers[d == 0] == 0),
             "power on a resource element the user does not own")


def check_phases(state):
    t = state.thetas
    _require(t.size == 0 or np.max(np.abs(np.abs(t) - 1.0)) <= UNIT_TOL,
             "surface phases are not unit modulus")


def check_path(state):
    sc = state.scenario
    p = sc.params
    q = np.asarray(state.trajectory, dtype=float)
    _require(q.shape == (p.num_slots, 3), f"flight path has shape {q.shape}")
    steps = np.linalg.norm(np.diff(q, axis=0), axis=1)
    _require(np.all(steps <= p.v_max * p.slot_duration + PATH_TOL),
             f"flight path breaks the speed limit: step {steps.max():.6g} m "
             f"> {p.v_max * p.slot_duration:.6g} m")
    _require(np.allclose(q[0], sc.aris_start, rtol=0, atol=PATH_TOL)
             and np.allclose(q[-1], sc.aris_end, rtol=0, atol=PATH_TOL),
             "flight path does not start and end at the pinned endpoints")
    _require(np.allclose(q[:, 2], p.aris_height, rtol=0, atol=PATH_TOL),
             "flight path leaves the platform altitude")
    _require(np.array_equal(np.asarray(state.channels.trajectory), q),
             "channels were realized at another flight path")


def check_gains_rates_caps(state):
    sc = state.scenario
    p = sc.params
    idx, gains = link_gains(state)
    _close(state.gamma[idx], gains, GAIN_RTOL,
           "cached link gain differs from ||H_eff f||^2")
    sigma2 = p.noise_psd * p.bandwidth_per_re
    rates = np.zeros(state.delta.shape)
    rates[idx] = p.bandwidth_per_re * np.log2(1.0 + state.powers[idx] * gains / sigma2)
    per_slot = rates.sum(axis=2)                                  # (N_T, U)
    short = per_slot < sc.rate_targets[None, :] * (1.0 - RATE_SLACK)
    _require(not np.any(short),
             f"Shannon rate below target for (slot, user) {np.argwhere(short)[:3].tolist()}")
    spent = state.powers.sum(axis=2)
    _require(np.all(spent <= p.p_max * (1.0 + CAP_SLACK)),
             f"per-slot power cap exceeded: {spent.max():.6g} W > {p.p_max:.6g} W")


def check_exposure(state, report):
    p = state.scenario.params
    per_user = per_user_exposure(state)
    _close(report.per_user_exposure, per_user, EXPOSURE_RTOL,
           "per-user exposure differs from sum of delta * p * SAR")
    _close(report.exposure_index, index_of(per_user, p.slot_duration),
           EXPOSURE_RTOL, "exposure index differs from its recomputation")


def check_trace(trace, final):
    """Logged block deltas are never positive and the outer exposures never rise."""
    _require(trace and trace[0].get("event") == "init", "trace has no init event")
    level = trace[0]["exposure"]
    outer_levels = [level]
    for ev in trace[1:]:
        if "delta" in ev:
            _require(ev["delta"] <= 0.0,
                     f"trace rises by {ev['delta']:.3g} at {ev['event']}")
        if ev["event"] == "outer":
            _require(ev["exposure"] <= outer_levels[-1],
                     "outer exposure rises between iterations")
            outer_levels.append(ev["exposure"])
    _require(len(outer_levels) > 1, "trace records no outer iteration")
    _close(outer_levels[-1], final, EXPOSURE_RTOL,
           "last traced exposure differs from the reported index")


def check_state(state, report):
    """Every check on a run that returned its SolutionState; raises CheckFailed."""
    check_allocation(state)
    check_phases(state)
    check_path(state)
    check_gains_rates_caps(state)
    check_exposure(state, report)
    check_trace(state.trace, report.exposure_index)
    check_report(report, state.scenario)


def check_report(report, scenario):
    """Checks on a bare ExposureReport (the fixed-RIS scheme returns only that)."""
    p = scenario.params
    e = np.asarray(report.per_user_exposure, dtype=float)
    _require(e.shape == (p.num_users, p.num_slots) and np.all(np.isfinite(e))
             and np.all(e >= 0), "per-user exposure tensor is malformed")
    _close(report.exposure_index, index_of(e, p.slot_duration), EXPOSURE_RTOL,
           "exposure index does not match its per-user tensor")
    short = np.asarray(report.achieved_rates) < scenario.rate_targets * (1.0 - RATE_SLACK)
    _require(not np.any(short),
             f"reported rates miss their targets for users {np.flatnonzero(short).tolist()}")
