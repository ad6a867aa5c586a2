"""Reference helpers the tests share and the package does not need.

`fingerprint` confirms that paired trials share fading; `dense_mixtures`
forms a realization's Rician mixtures for the whole trial at once, as the
lazy ones must reproduce bit for bit; `min_power_for_rate` and
`solve_multipliers` state the single-link power inversion and one user's
power multipliers as the tests check them against the power block;
`slot_major_sweep` runs the AO's blocks slot by slot, the order the
block-major sweep must reproduce; `plain_phase_ascent` is the phase ascent
without squared extrapolation, the reference the accelerated one must match.
"""

import copy
import hashlib
import math

import numpy as np

from aris_emf.channel import TWO_PI, TX_ANTENNAS
from aris_emf.exposure import InfeasibleError, power_factor
from aris_emf.orchestrator import CAP_SLACK, _block_beams, _block_phases, _block_power
from aris_emf.power_control import _solve
from aris_emf.ris_phase import (MM_MAX_DAMP, MM_RESTARTS, MM_STEPS, MM_TOL, RESTART_STEPS,
                                PhaseShiftVector, quad_transform_y)


def fingerprint(channel_set):
    """Stable hash of a ChannelSet's raw draws."""
    h = hashlib.sha256()
    for arr in (channel_set._wg, channel_set._wh, channel_set._hd):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def dense_mixtures(channel_set, trajectory):
    """(gbar, hbar) of shapes (N_T, N_c, U, N, M_t) and (N_T, N_c, M_r, N):
    the unit-scale Rician mixtures of every slot and subcarrier at the given
    (N_T, 3) trajectory, each mixed as a los + b w over the whole array."""
    sc = channel_set.scenario
    p = sc.params
    q = np.asarray(trajectory, dtype=float).reshape(p.num_slots, 3)
    diff = sc.user_positions[None, :, :] - q[:, None, :]
    d_ur = np.linalg.norm(diff, axis=2)
    d_rb = np.linalg.norm(q - sc.bs_position[None, :], axis=1)
    spacing = p.antenna_spacing_ratio
    sin_ur = diff[:, :, 1] / d_ur
    ar_n = np.exp(-1j * TWO_PI * spacing
                  * np.arange(p.num_ris_elements)[None, None, :] * sin_ur[:, :, None])
    at_m = np.exp(-1j * TWO_PI * spacing
                  * np.arange(TX_ANTENNAS)[None, None, :] * sin_ur[:, :, None])
    los_g = ar_n[:, :, :, None] * at_m.conj()[:, :, None, :]
    sin_rb = (sc.bs_position[0] - q[:, 0]) / d_rb
    ar_mr = np.exp(-1j * TWO_PI * spacing
                   * np.arange(p.rx_antennas)[None, :] * sin_rb[:, None])
    ad_n = np.exp(-1j * TWO_PI * spacing
                  * np.arange(p.num_ris_elements)[None, :] * sin_rb[:, None])
    los_h = ar_mr[:, :, None] * ad_n.conj()[:, None, :]
    k1, k2 = p.rician_factors
    gbar = (math.sqrt(k1 / (k1 + 1.0)) * los_g[:, None]
            + math.sqrt(1.0 / (k1 + 1.0)) * channel_set._wg)
    hbar = (math.sqrt(k2 / (k2 + 1.0)) * los_h[:, None]
            + math.sqrt(1.0 / (k2 + 1.0)) * channel_set._wh)
    return gbar, hbar


def min_power_for_rate(rbar, gamma, sigma2, w):
    """Transmit power that meets the rate share `rbar` exactly: (2^{r/w}-1) sigma2/gamma."""
    if rbar == 0:
        return 0.0
    if gamma <= 0:
        raise InfeasibleError(
            f"link with zero channel gain cannot carry a positive rate ({rbar} bits/s)")
    return power_factor(rbar, sigma2, w) / gamma


def solve_multipliers(gamma, sar, rate_target, p_max, sigma2, w):
    """Multipliers (mu*, lam*) of one user's exposure-minimal power problem.

    gamma/sar: per-element gains and reference exposures of the user's
    assigned elements (all positive).  Raises InfeasibleError when even the
    least spend that meets rate_target exceeds p_max.
    """
    mu, lam, _ = _solve(gamma, sar, rate_target, p_max, sigma2, w)
    return mu, lam


def slot_major_sweep(state, phase_rngs):
    """`orchestrator._sweep_slots` in the per-slot order: beams, phases
    (unless phase_rngs is None) and power of slot 0, then of slot 1, and so
    on, each slot's candidate kept when its users keep within the power cap
    and the whole exposure index does not rise.

    Every block runs over all slots and only slot ell's rows are offered; the
    other slots' phase ascents draw from copies of their generators, so each
    slot's stream advances once per sweep, as in the AO.
    """
    p_max = state.scenario.params.p_max

    def offer(ell, name, ok, cand):
        if not (cand and ok[ell]):
            return
        if np.any(cand["powers"][ell].sum(axis=-1) > p_max * (1.0 + CAP_SLACK)):
            return
        current = state.exposure()
        saved = {}
        for fname, value in cand.items():
            arr = getattr(state, fname)
            saved[fname] = arr[ell].copy()
            arr[ell] = value[ell]
        new = state.exposure()
        if new <= current:
            state.trace.append({"event": name, "slot": ell, "delta": new - current})
            return
        for fname, old in saved.items():
            getattr(state, fname)[ell] = old

    beams = _block_beams(state)
    for ell in range(state.scenario.params.num_slots):
        offer(ell, "beams", *beams)
        if phase_rngs is not None:
            rngs = [rng if k == ell else copy.deepcopy(rng)
                    for k, rng in enumerate(phase_rngs)]
            offer(ell, "phases", *_block_phases(state, rngs))
        offer(ell, "power", *_block_power(state))


def plain_phase_ascent(cascade, direct, delta, c_un, theta0, rng, counters=None):
    """`ris_phase.optimize_phases` with plain, damped MM steps only: the same
    columns, safeguard, damping and stop tests, no extrapolation, and no
    restart retired for nearing another column.  counters["phase_steps"]
    gains its column evaluations."""
    delta = np.asarray(delta, dtype=float)
    theta = np.asarray(getattr(theta0, "values", theta0), dtype=complex)
    n = np.shape(cascade)[-1]
    mask = delta > 0
    if n == 0 or not np.any(mask):
        return PhaseShiftVector(theta)
    cascade = np.asarray(cascade)[mask]
    links, m_r = cascade.shape[:2]
    flat = cascade.reshape(-1, n)
    flat_h = flat.conj().T
    d = np.asarray(direct)[mask].reshape(-1, 1)
    a = delta[mask] * np.asarray(c_un, dtype=float)[mask] ** 2
    live = a > 0

    def evaluate(phases):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = flat @ phases + d
            g = np.sum((e.real ** 2 + e.imag ** 2).reshape(links, m_r, -1), axis=1)
            vals = np.sum(np.where(live[:, None], a[:, None] / g, 0.0), axis=0)
        return e, g, np.where(np.isnan(vals), np.inf, vals)

    starts = np.exp(2j * np.pi * rng.random((n, MM_RESTARTS)))
    thetas = np.concatenate([theta[:, None], starts], axis=1)
    e, g, vals = evaluate(thetas)
    quad_transform_y(a, g[:, 0])
    start_val = vals[0]
    active = np.isfinite(vals)
    damp = np.zeros(thetas.shape[1])
    for step in range(MM_STEPS):
        if step == RESTART_STEPS:
            active[1:] &= np.arange(1, thetas.shape[1]) == np.argmin(vals)
        cols = np.flatnonzero(active)
        if cols.size == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = np.repeat(np.where(live[:, None], a[:, None] / g[:, cols] ** 2, 0.0),
                          m_r, axis=0)
            grad = flat_h @ (w * e[:, cols])
            mu = damp[cols] * np.max(np.abs(grad), axis=0)
            cand = np.exp(1j * np.angle(grad + mu * thetas[:, cols]))
            cand_e, cand_g, cand_vals = evaluate(cand)
            keep = cand_vals <= vals[cols]
            gain = vals[cols] - cand_vals > MM_TOL * vals[cols]
        if counters is not None:
            counters["phase_steps"] += cols.size
        kept = cols[keep]
        thetas[:, kept] = cand[:, keep]
        e[:, kept] = cand_e[:, keep]
        g[:, kept] = cand_g[:, keep]
        vals[kept] = cand_vals[keep]
        damp[cols] = np.where(keep, 0.5 * damp[cols], np.maximum(2.0 * damp[cols], 1.0))
        active[cols] = np.where(keep, gain, damp[cols] <= MM_MAX_DAMP)
    best = int(np.argmin(vals))
    if vals[best] < start_val:
        theta = thetas[:, best]
    return PhaseShiftVector(theta)
