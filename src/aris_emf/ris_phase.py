"""Per-slot reflecting-surface phase design.

The exposure contribution of each allocated (user, resource element) link is
the ratio c^2 / gamma(theta) with c = sqrt(power_factor * SAR) fixed while
phases are optimized, and gamma(theta) = ||C theta + d||^2 with C the link's
cascade and d its direct path.  Only the allocated (active) links enter.
`optimize_phases` runs a minorization-maximization ascent on the sum of
ratios: with weights w = c^2 / gamma^2 from the quadratic transform
(y = c / gamma), the weighted gain sum w gamma(theta) is convex, so its
linearization at the current theta minorizes it, and the unit-modulus
maximizer of that linearization is the elementwise phase of
C^H (w (C theta + d)).  That step lowers the sum of ratios when one link
dominates, but it can overshoot when links pull apart, so a step is kept
only if the true objective does not rise, and a rejected step is retried
with a proximal term mu theta that shortens it.  Each column is accelerated
by squared extrapolation (SQUAREM; Varadhan & Roland, Scand. J. Statist.
2008): after two kept plain steps theta0 -> theta1 -> theta2 it tries the
longer step theta0 - 2 alpha r + alpha^2 v, with r = theta1 - theta0,
v = theta2 - 2 theta1 + theta0 and alpha = -||r|| / ||v|| clamped to at
most -1, projected back to unit modulus and kept only if it lowers the
objective.  Several starts ascend together as the columns
of one matrix, so a step is two matrix products of the stacked active
cascades.  A random restart stops once a step leaves it within RETIRE
(elementwise) of the warm column or of a column no worse than itself: it has
rejoined a basin that another column already covers, as in multi-level
single linkage (Rinnooy Kan & Timmer, Math. Program. 1987), so only restarts
in other basins run on.  Every column stops at one relative tolerance,
MM_TOL.  theta0 is returned unless some column beats it, so the outer loop
is monotone by construction.

`solve_relaxation` (the unit-diagonal SDP relaxation of one round's lifted
quadratic form) and `gaussian_randomization` (its rounding to unit modulus)
are the semidefinite-relaxation route to the same round problem; they serve
as its reference and are not on the alternating optimization's path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex_kernels import SdpError, SdpProblem, solve_sdp
from .exposure import InfeasibleError

REDRAW_FLOOR = 1e-9  # |last lifted coordinate| below this forces a redraw
EIG_CLAMP = -1e-9    # eigenvalues in [EIG_CLAMP, 0) are treated as 0
MM_STEPS = 500       # step budget of each ascent column
MM_TOL = 1e-13       # relative decrease at or below which a column stops
MM_RESTARTS = 4      # random starts beside the warm start
RESTART_STEPS = 30   # after this many steps only the warm and the best column go on
RETIRE = 0.5         # max |theta_i - theta'_i| within which a restart rejoins a column
MM_MAX_DAMP = 1e6    # damping past which a column's rejected step stops it


@dataclass(frozen=True)
class PhaseShiftVector:
    """Unit-modulus reflection coefficients of one slot."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        if vals.size and np.max(np.abs(np.abs(vals) - 1.0)) > 1e-12:
            worst = float(np.max(np.abs(np.abs(vals) - 1.0)))
            raise ValueError(f"phase vector departs unit modulus by {worst:.3g}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def uniform_phases(n):
    """The all-zero-phase vector (every element reflecting unshifted)."""
    return PhaseShiftVector(np.ones(n, dtype=complex))


@dataclass(frozen=True)
class LiftedSolution:
    """Relaxed lifted matrix and its objective value."""

    theta_bar: np.ndarray
    value: float


def quad_transform_y(c_un, gamma_un):
    """Auxiliary variables y = c / gamma of the quadratic transform, an array
    of the inputs' broadcast shape (0-d for one link).

    Zero gain on a link with c > 0 means the link cannot carry its rate at
    any power and raises InfeasibleError; c = 0 maps to y = 0.
    """
    c = np.asarray(c_un, dtype=float)
    g = np.asarray(gamma_un, dtype=float)
    bad = (g <= 0.0) & (c > 0.0)
    if np.any(bad):
        raise InfeasibleError(f"{int(bad.sum())} allocated link(s) have zero gain")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c > 0.0, c / np.where(g > 0.0, g, 1.0), 0.0)


def solve_relaxation(r_mat, tol=1e-6):
    """Unit-diagonal PSD relaxation of max [theta;1]^H R [theta;1]."""
    theta_bar, value = solve_sdp(SdpProblem(np.asarray(r_mat)), tol=tol)
    return LiftedSolution(theta_bar, value)


def _draw_candidates(factor, count, rng):
    n1 = factor.shape[0]
    z = rng.standard_normal((count, n1, 2))
    cands = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0) @ factor.T
    # the recovery divides by the homogenizing coordinate; redraw degenerate rows
    for _ in range(64):
        bad = np.abs(cands[:, n1 - 1]) < REDRAW_FLOOR
        if not np.any(bad):
            return cands
        z = rng.standard_normal((int(bad.sum()), n1, 2))
        cands[bad] = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0) @ factor.T
    raise SdpError("randomization keeps hitting a vanishing homogenizing coordinate")


def gaussian_randomization(theta_bar, r_mat, i_gr, rng):
    """Best unit-modulus phase vector from i_gr randomized liftings.

    Candidates are factor @ r with factor = U sqrt(D) from the
    eigendecomposition of theta_bar and r standard complex Gaussian; each is
    projected to unit modulus by dividing out the homogenizing coordinate
    and keeping only the angles.
    """
    theta_bar = np.asarray(theta_bar)
    r_mat = np.asarray(r_mat)
    n1 = theta_bar.shape[0]
    w, v = np.linalg.eigh(0.5 * (theta_bar + theta_bar.conj().T))
    if w[0] < EIG_CLAMP:
        raise SdpError(f"lifted matrix has eigenvalue {w[0]:.3g}, beyond PSD slack")
    w = np.maximum(w, 0.0)
    # drop rounding-noise directions so exactly-low-rank inputs stay low rank
    w[w < 1e-12 * w[-1]] = 0.0
    factor = v * np.sqrt(w)
    cands = _draw_candidates(factor, int(i_gr), rng)
    theta = np.exp(1j * np.angle(cands[:, : n1 - 1] / cands[:, n1 - 1:]))
    lifted = np.concatenate([theta, np.ones((theta.shape[0], 1))], axis=1)
    scores = np.einsum("ki,ij,kj->k", lifted.conj(), r_mat, lifted).real
    return PhaseShiftVector(theta[int(np.argmax(scores))])


def optimize_phases(cascade, direct, delta, c_un, theta0, rng, counters=None):
    """Batched minorization-maximization ascent on one slot's proxy exposure.

    cascade: (U, N_c, M_r, N) per-link reflected-path matrices; direct:
    (U, N_c, M_r) per-link direct-path vectors (both already include the
    current beamformers); delta: (U, N_c) allocation; c_un: (U, N_c) square
    roots of power_factor * SAR at the current beamformers.  Only the links
    with delta > 0 are read.  The columns of one (N, 1 + MM_RESTARTS) matrix
    ascend together: theta0 and random starts drawn from `rng`.  A step
    e = C theta + d, theta <- exp(j angle(C^H (w e) + mu theta)) with
    w = delta c^2 / gamma^2 is kept only if the column's value did not rise;
    mu = 0 gives the plain step, and each rejected step doubles the column's
    damping mu (in units of max |C^H (w e)|), which a kept step halves.  A
    column stops when a kept step lowers its value by no more than MM_TOL
    relative, when its damping passes MM_MAX_DAMP, or after MM_STEPS steps;
    after RESTART_STEPS steps only the warm column and the best one go on.
    The warm column runs to its own stop; a random column also retires after
    any step that leaves max_i |theta_c,i - theta_j,i| < RETIRE for the warm
    column j = 0 or for another column j, running or stopped, whose value is
    no higher (a tie going to the lower index).

    Squared extrapolation: a cycle opens at a column's current point theta0
    and closes after two kept steps in a row at mu = 0, theta0 -> theta1 ->
    theta2, when the second did not stop the column.  With r = theta1 -
    theta0, v = theta2 - 2 theta1 + theta0 and alpha = -||r|| / ||v||
    clamped to alpha <= -1 (alpha = -1 when v = 0, which gives theta2
    itself), the point x = exp(j angle(theta0 - 2 alpha r + alpha^2 v)) is
    evaluated for all closing columns at once and replaces theta2 only if its
    value is strictly lower; the next cycle opens at the column's point.
    counters, when a dict, has its "phase_steps" entry raised by the number
    of column evaluations, plain and extrapolated, and its "phase_retired"
    entry by the number of retired restarts.
    Returns the best column if it beats theta0's proxy exposure, else theta0.
    """
    delta = np.asarray(delta, dtype=float)
    theta = np.asarray(theta0.values if isinstance(theta0, PhaseShiftVector) else theta0,
                       dtype=complex)
    n = np.shape(cascade)[-1]
    if theta.shape != (n,):
        raise ValueError(f"theta0 has shape {theta.shape}, surface has {n} elements")
    mask = delta > 0
    if n == 0 or not np.any(mask):
        return PhaseShiftVector(theta)

    cascade = np.asarray(cascade)[mask]          # (L, M_r, N)
    links, m_r = cascade.shape[:2]
    flat = cascade.reshape(-1, n)                # (L*M_r, N)
    flat_h = flat.conj().T
    d = np.asarray(direct)[mask].reshape(-1, 1)  # (L*M_r, 1)
    a = delta[mask] * np.asarray(c_un, dtype=float)[mask] ** 2
    live = a > 0

    def evaluate(phases):
        """Received vectors, link gains and proxy values of phase columns;
        a zero gain on a weighted link or a NaN input reads inf."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = flat @ phases + d
            g = np.sum((e.real ** 2 + e.imag ** 2).reshape(links, m_r, -1), axis=1)
            vals = np.sum(np.where(live[:, None], a[:, None] / g, 0.0), axis=0)
        return e, g, np.where(np.isnan(vals), np.inf, vals)

    starts = np.exp(2j * np.pi * rng.random((n, MM_RESTARTS)))
    thetas = np.concatenate([theta[:, None], starts], axis=1)
    e, g, vals = evaluate(thetas)
    quad_transform_y(a, g[:, 0])  # raises InfeasibleError on a zero-gain link
    start_val = vals[0]
    active = np.isfinite(vals)
    k = thetas.shape[1]
    damp = np.zeros(k)
    # each column's cycle start theta0, and whether it has reached theta1
    base, midway = thetas.copy(), np.zeros(k, dtype=bool)
    lower = np.tri(k, k, -1, dtype=bool)[1:]  # lower[c - 1, j]: j < c
    first = np.arange(k) == 0
    evals = retired = 0
    for step in range(MM_STEPS):
        if step == RESTART_STEPS:
            active[1:] &= np.arange(1, k) == np.argmin(vals)
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
        evals += cols.size
        plain, was_midway = keep & (damp[cols] == 0), midway[cols]
        midway[cols] = opens = plain & ~was_midway
        base[:, cols[opens]] = thetas[:, cols[opens]]
        closes = np.flatnonzero(plain & was_midway & gain)
        if closes.size:
            # squared extrapolation from the cycle theta0 -> theta1 -> theta2 = cand;
            # alpha = -1 would give theta2 itself, so only longer ones are tried
            sq = cols[closes]
            theta1 = thetas[:, sq]
            r = theta1 - base[:, sq]
            v = cand[:, closes] - theta1 - r
            rr, vv = (r * r.conj()).real.sum(axis=0), (v * v.conj()).real.sum(axis=0)
            ratio = rr / np.where(vv > 0, vv, np.inf)  # alpha^2, read as 0 when v = 0
            far = ratio > 1.0
            if far.any():
                closes, sq, r, v = closes[far], sq[far], r[:, far], v[:, far]
                alpha = -np.sqrt(ratio[far])
                x = np.exp(1j * np.angle(base[:, sq] - 2.0 * alpha * r + alpha ** 2 * v))
                x_e, x_g, x_vals = evaluate(x)
                evals += sq.size
                better = x_vals < cand_vals[closes]
                at = closes[better]
                cand[:, at], cand_e[:, at] = x[:, better], x_e[:, better]
                cand_g[:, at], cand_vals[at] = x_g[:, better], x_vals[better]
        kept = cols[keep]
        thetas[:, kept] = cand[:, keep]
        e[:, kept] = cand_e[:, keep]
        g[:, kept] = cand_g[:, keep]
        vals[kept] = cand_vals[keep]
        damp[cols] = np.where(keep, 0.5 * damp[cols], np.maximum(2.0 * damp[cols], 1.0))
        active[cols] = np.where(keep, gain, damp[cols] <= MM_MAX_DAMP)
        if active[1:].any():
            # near[c - 1, j]: column j is within RETIRE of restart c and no
            # worse (the warm column always is; a tie goes to the lower index)
            near = np.abs(thetas[:, 1:, None] - thetas[:, None, :]).max(axis=0) < RETIRE
            near &= (vals < vals[1:, None]) | ((vals == vals[1:, None]) & lower) | first
            stop = active[1:] & near.any(axis=1)
            active[1:] &= ~stop
            retired += int(stop.sum())
    if counters is not None:
        counters["phase_steps"] += evals
        counters["phase_retired"] += retired
    best = int(np.argmin(vals))
    if vals[best] < start_val:
        theta = thetas[:, best]
    return PhaseShiftVector(theta)
