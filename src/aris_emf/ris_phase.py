"""Per-slot reflecting-surface phase design.

The exposure contribution of each allocated (user, resource element) link is
the ratio c^2 / gamma(theta) with c = sqrt(power_factor * SAR) fixed while
phases are optimized.  The sum of ratios is handled with the quadratic
transform (auxiliary y = c / gamma), which turns each round into maximizing
a single Hermitian quadratic form over unit-modulus phases.  Only the
allocated (active) links enter: the form's matrix is one weighted Gram of
their stacked cascades, and their gains are one batched matrix product.
Lifting theta to homogeneous coordinates makes that a rank-constrained trace
problem; the rank constraint is dropped, the resulting SDP solved, and a
feasible phase vector recovered by Gaussian randomization.  A new phase
vector is accepted only if the true objective does not increase, so the
outer loop is monotone by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .convex_kernels import SdpError, SdpProblem, solve_sdp
from .exposure import InfeasibleError

REDRAW_FLOOR = 1e-9  # |last lifted coordinate| below this forces a redraw
EIG_CLAMP = -1e-9    # eigenvalues in [EIG_CLAMP, 0) are treated as 0


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

    def __len__(self):
        return self.values.size

    @property
    def angles(self):
        return np.angle(self.values)


def uniform_phases(n):
    """The all-zero-phase vector (every element reflecting unshifted)."""
    return PhaseShiftVector(np.ones(n, dtype=complex))


@dataclass(frozen=True)
class LiftedSolution:
    """Relaxed lifted matrix and its objective value."""

    theta_bar: np.ndarray
    value: float


def quad_transform_y(c_un, gamma_un):
    """Auxiliary variables y = c / gamma of the quadratic transform.

    Zero gain on a link with c > 0 means the link cannot carry its rate at
    any power and raises InfeasibleError; c = 0 maps to y = 0.
    """
    c = np.asarray(c_un, dtype=float)
    g = np.asarray(gamma_un, dtype=float)
    bad = (g <= 0.0) & (c > 0.0)
    if np.any(bad):
        raise InfeasibleError(f"{int(bad.sum())} allocated link(s) have zero gain")
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(c > 0.0, c / np.where(g > 0.0, g, 1.0), 0.0)
    if y.ndim == 0:
        return float(y)
    return y


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


def optimize_phases(cascade, direct, delta, c_un, theta0, rng, eps2=1e-5,
                    max_rounds=20, i_gr=100, sdp_tol=1e-6):
    """Safeguarded y/theta alternation for one slot.

    cascade: (U, N_c, M_r, N) per-link reflected-path matrices; direct:
    (U, N_c, M_r) per-link direct-path vectors (both already include the
    current beamformers); delta: (U, N_c) allocation; c_un: (U, N_c) square
    roots of power_factor * SAR at the current beamformers.  Only the links
    with delta > 0 are read: the work runs on their stacks, and each round's
    lifted matrix is one weighted Gram of them (`lifting_matrix`).  Returns a
    PhaseShiftVector whose proxy exposure never exceeds theta0's.
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
    direct = np.asarray(direct)[mask]            # (L, M_r)
    delta = delta[mask]
    c_arr = np.asarray(c_un, dtype=float)[mask]

    def link_gains(phases):
        return np.sum(np.abs(cascade @ phases + direct) ** 2, axis=-1)

    gains = link_gains(theta)
    best = proxy_exposure(delta, c_arr, gains)
    y = quad_transform_y(c_arr, gains)

    for _ in range(max_rounds):
        r = lifting_matrix(cascade, direct, delta * y ** 2)
        try:
            lifted = solve_relaxation(r, tol=sdp_tol)
        except SdpError as exc:
            warnings.warn(f"phase relaxation failed, keeping current phases: {exc}",
                          RuntimeWarning, stacklevel=2)
            return PhaseShiftVector(theta)
        candidate = gaussian_randomization(lifted.theta_bar, r, i_gr, rng)
        cand_gains = link_gains(candidate.values)
        try:
            cand_val = proxy_exposure(delta, c_arr, cand_gains)
        except InfeasibleError:
            cand_val = np.inf
        if cand_val <= best:
            theta = candidate.values
            gains = cand_gains
            best = cand_val
        y_new = quad_transform_y(c_arr, gains)
        shift = float(np.linalg.norm(y_new - y))
        y = y_new
        if shift <= eps2 * max(1.0, float(np.linalg.norm(y))):
            break
    return PhaseShiftVector(theta)
