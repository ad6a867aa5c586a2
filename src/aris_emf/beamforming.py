"""Per-resource-element transmit beamformer search.

A two-antenna beamformer is parametrized by the second antenna's power
weight alpha2 in [0, ALPHA2_MAX] and relative phase beta2 (the first
antenna is pinned to weight 1, phase 0).  For one user on one resource
element the quantity to minimize is the exposure-per-gain ratio

    power_factor * SAR(alpha, beta2) / gamma(alpha, beta2; K),

where power_factor = sigma2 * (2**(rbar/w) - 1) is the transmit power a
unit-gain channel would need to carry the rate share rbar, SAR is the
reference-exposure polynomial, and gamma the beamforming gain against the
Gram matrix K of the effective channel.

Put s = sqrt(alpha2).  At a fixed beta2 both SAR = n0 + n1*s + n2*s**2 and
gamma = d0 + d1*s + d2*s**2 are quadratics in s, so d/ds (SAR/gamma) = 0 is
the quadratic

    (n2*d1 - n1*d2)*s**2 + 2*(n2*d0 - n0*d2)*s + (n1*d0 - n0*d1) = 0,

and the exact minimum over s lies at an end of [0, sqrt(ALPHA2_MAX)] or at
one of its real roots inside.  What is left is a search in beta2 alone: the
closed-form minimum over s on a fixed beta2 grid, then nested grid
refinements around the best phase, each keeping the best point found so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import TWO_PI, Beamformer
from .exposure import ALPHA2_MAX, InfeasibleError, power_factor, sar_harmonic

BETA_GRID = 256       # coarse beta2 points over [0, 2pi)
REFINE_PASSES = 4     # nested refinements around the best phase so far
REFINE_POINTS = 33    # points per pass, spanning one step of the previous grid each way
S_MAX = math.sqrt(ALPHA2_MAX)


@dataclass(frozen=True)
class BeamConstants:
    """Rate/noise constants fixing the power factor of one resource element."""

    rbar: float          # rate share carried on this RE (bit/s)
    sigma2: float        # noise power in one RE bandwidth (W)
    bandwidth: float     # RE bandwidth w (Hz)
    delta: float = 1.0   # allocation indicator, 0 or 1

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.rbar < 0 or self.sigma2 < 0:
            raise ValueError("rate share and noise power must be non-negative")

    @property
    def power_factor(self):
        """sigma2 * (2**(rbar/w) - 1): power needed at unit gain."""
        return power_factor(self.rbar, self.sigma2, self.bandwidth)


@dataclass(frozen=True)
class DinkelbachState:
    """Final ratio value, beamformer, and per-pass trace of one beam search."""

    lam: float
    beamformer: Beamformer
    iterations: int
    converged: bool
    lam_history: tuple


def _pair_terms(k_mat):
    k_mat = np.asarray(k_mat)
    if k_mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 Gram matrix, got shape {k_mat.shape}")
    scale = float(np.max(np.abs(k_mat)))
    if scale > 0 and float(np.max(np.abs(k_mat - k_mat.conj().T))) > 1e-9 * scale:
        raise ValueError("Gram matrix must be Hermitian")
    k12 = complex(k_mat[0, 1])
    return float(k_mat[0, 0].real), float(k_mat[1, 1].real), abs(k12), math.atan2(k12.imag, k12.real)


def pair_gain(k_mat, alpha2, beta2):
    """Beamforming gain of ((1, alpha2), (0, beta2)) against a 2x2 Gram matrix.

    Vectorized over alpha2/beta2 arrays.
    """
    k11, k22, k12a, k12p = _pair_terms(k_mat)
    alpha2 = np.asarray(alpha2, dtype=float)
    return k11 + alpha2 * k22 + 2.0 * np.sqrt(alpha2) * k12a * np.cos(beta2 + k12p)


@lru_cache(maxsize=8)
def _coarse_grid(model):
    beta = np.linspace(0.0, TWO_PI, BETA_GRID, endpoint=False)
    return beta, sar_harmonic(model, beta)


def _min_over_s(b, harm, beta, k11, k22, k12a, k12p):
    """Exact minimum of SAR/gamma over s in [0, S_MAX] at each phase in beta.

    harm is the SAR's harmonic series at beta.  Returns (ratio, s); the
    ratio is inf where no s gives positive gain.
    """
    n0, n1, n2 = b[0] + b[3] * harm, b[1] + b[4] * harm, b[2] + b[5] * harm
    d0, d1, d2 = k11, 2.0 * k12a * np.cos(beta + k12p), k22
    qa, qb, qc = n2 * d1 - n1 * d2, n2 * d0 - n0 * d2, n1 * d0 - n0 * d1
    with np.errstate(divide="ignore", invalid="ignore"):
        # roots of qa*s**2 + 2*qb*s + qc in the cancellation-free form; NaN,
        # inf and out-of-box roots fall back to the s = 0 candidate
        q = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
        s = np.stack([np.zeros_like(q), np.full_like(q, S_MAX), q / qa, qc / q])
        s = np.where((s >= 0.0) & (s <= S_MAX), s, 0.0)
        den = d0 + s * (d1 + s * d2)
        ratio = np.where(den > 0.0, (n0 + s * (n1 + s * n2)) / den, np.inf)
    pick = np.argmin(ratio, axis=0)
    cols = np.arange(beta.size)
    return ratio[pick, cols], s[pick, cols]


def optimize_beamformer(k_mat, model, constants):
    """Ratio-minimizing beamformer for one (user, resource element).

    Returns (Beamformer, DinkelbachState).  lam_history holds the coarse
    grid's ratio and then the best ratio after each refinement pass, so it
    never rises; iterations counts the passes.
    """
    k_terms = _pair_terms(k_mat)
    if constants.delta == 0:
        bf = Beamformer((1.0, 0.0), (0.0, 0.0))
        return bf, DinkelbachState(0.0, bf, 0, True, (0.0,))

    beta, harm = _coarse_grid(model)
    ratio, s = _min_over_s(model.b, harm, beta, *k_terms)
    i = int(np.argmin(ratio))
    if math.isinf(ratio[i]):
        raise InfeasibleError("no beamformer achieves positive gain")
    best = (float(ratio[i]), float(s[i]), float(beta[i]))
    history = [best[0]]
    step = TWO_PI / BETA_GRID
    for _ in range(REFINE_PASSES):
        beta = best[2] + np.linspace(-step, step, REFINE_POINTS)
        ratio, s = _min_over_s(model.b, sar_harmonic(model, beta), beta, *k_terms)
        i = int(np.argmin(ratio))
        if ratio[i] < best[0]:
            best = (float(ratio[i]), float(s[i]), float(beta[i]))
        history.append(best[0])
        step *= 2.0 / (REFINE_POINTS - 1)

    c = constants.power_factor
    lam_history = tuple(c * r for r in history)
    bf = Beamformer((1.0, best[1] ** 2), (0.0, best[2] % TWO_PI))
    return bf, DinkelbachState(lam_history[-1], bf, REFINE_PASSES, True, lam_history)
