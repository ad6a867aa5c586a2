"""Transmit beamformer search for one resource element or a stack of them.

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

`optimize_beamformer` also takes a (..., 2, 2) stack of Gram matrices, such
as the active links of a group of slots, and runs their searches together on
(links, phases) arrays; each link ends where a call on its matrix alone would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import TWO_PI, Beamformer, beam_array, expanded_gain, gram_terms
from .exposure import ALPHA2_MAX, InfeasibleError, power_factor, sar_harmonic

BETA_GRID = 256       # coarse beta2 points over [0, 2pi)
REFINE_PASSES = 4     # nested refinements around the best phase so far
REFINE_POINTS = 33    # points per pass, spanning one step of the previous grid each way
S_MAX = math.sqrt(ALPHA2_MAX)


@dataclass(frozen=True)
class BeamConstants:
    """Rate/noise constants fixing the power factor of resource elements."""

    rbar: object         # rate share(s) carried on the RE(s) (bit/s), float or array
    sigma2: float        # noise power in one RE bandwidth (W)
    bandwidth: float     # RE bandwidth w (Hz)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if np.any(np.asarray(self.rbar) < 0) or self.sigma2 < 0:
            raise ValueError("rate share and noise power must be non-negative")

    @property
    def power_factor(self):
        """sigma2 * (2**(rbar/w) - 1): power needed at unit gain."""
        return power_factor(self.rbar, self.sigma2, self.bandwidth)


@dataclass(frozen=True)
class DinkelbachState:
    """Final ratio value, beams, and per-pass trace of one beam search
    (arrays for a stack, with the passes on lam_history's last axis)."""

    lam: object
    beamformer: object
    iterations: int
    converged: bool
    lam_history: object


def _checked_terms(k_mat):
    """Gram terms of a (..., 2, 2) stack, after checking it is Hermitian."""
    if k_mat.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 Gram matrix, got shape {k_mat.shape}")
    skew = np.max(np.abs(k_mat - np.swapaxes(k_mat.conj(), -1, -2)), axis=(-2, -1))
    if np.any(skew > 1e-9 * np.max(np.abs(k_mat), axis=(-2, -1))):
        raise ValueError("Gram matrix must be Hermitian")
    return gram_terms(k_mat)


def pair_gain(k_mat, alpha2, beta2):
    """Beamforming gain of ((1, alpha2), (0, beta2)) against a 2x2 Gram matrix.

    Vectorized over alpha2/beta2 arrays.
    """
    return expanded_gain(_checked_terms(np.asarray(k_mat)),
                         np.asarray(alpha2, dtype=float), beta2)


@lru_cache(maxsize=8)
def _coarse_grid(model):
    beta = np.linspace(0.0, TWO_PI, BETA_GRID, endpoint=False)
    return beta, sar_harmonic(model, beta)


def _min_over_s(b, harm, beta, terms):
    """Exact minimum of SAR/gamma over s in [0, S_MAX] at each link's phases.

    terms are the links' (L,) Gram terms; beta, and harm (the SAR's harmonic
    series at beta), are (P,) phases shared by every link or (L, P) phases
    of each.  Returns (ratio, s), each (L, P); the ratio is inf where no s
    gives positive gain.
    """
    k11, k22, k12a, k12p = (t[:, None] for t in terms)
    n0, n1, n2 = b[0] + b[3] * harm, b[1] + b[4] * harm, b[2] + b[5] * harm
    d0, d1, d2 = k11, 2.0 * k12a * np.cos(beta + k12p), k22
    qa, qb, qc = n2 * d1 - n1 * d2, n2 * d0 - n0 * d2, n1 * d0 - n0 * d1
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        # roots of qa*s**2 + 2*qb*s + qc in the cancellation-free form; NaN,
        # inf and out-of-box roots fall back to the s = 0 candidate
        q = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
        for s in (0.0, S_MAX, q / qa, qc / q):
            s = np.where((s >= 0.0) & (s <= S_MAX), s, 0.0)
            den = d0 + s * (d1 + s * d2)
            ratio = np.where(den > 0.0, (n0 + s * (n1 + s * n2)) / den, np.inf)
            if best is None:
                best = ratio, np.broadcast_to(s, ratio.shape).copy()
                continue
            # np.argmin's pick over the candidates: the first least, or the first NaN
            take = (ratio < best[0]) | (np.isnan(ratio) & ~np.isnan(best[0]))
            for kept, new in zip(best, (ratio, s)):
                np.copyto(kept, new, where=take)
    return best


def optimize_beamformer(k_mat, model, constants):
    """Ratio-minimizing beamformers of one (user, resource element) or a stack.

    One 2x2 Gram matrix returns (Beamformer, DinkelbachState) with float
    lam and a tuple lam_history; a (..., 2, 2) stack returns a beam record
    array of shape (...) and a DinkelbachState whose lam and lam_history
    are arrays.  lam_history holds the coarse grid's ratio and then the best
    ratio after each refinement pass, so it never rises; iterations counts
    the passes.  Raises InfeasibleError if some matrix gives no beam a
    positive gain.
    """
    k_mat = np.asarray(k_mat)
    terms = [np.reshape(t, -1) for t in _checked_terms(k_mat)]
    lead = k_mat.shape[:-2]
    links = np.arange(terms[0].size)

    beta, harm = _coarse_grid(model)
    ratio, s = _min_over_s(model.b, harm, beta, terms)
    i = np.argmin(ratio, axis=1)
    best = np.stack([ratio[links, i], s[links, i], beta[i]])   # ratio, s, beta2
    if np.any(np.isinf(best[0])):
        raise InfeasibleError("no beamformer achieves positive gain")
    history = [best[0]]
    step = TWO_PI / BETA_GRID
    for _ in range(REFINE_PASSES):
        beta = best[2][:, None] + np.linspace(-step, step, REFINE_POINTS)
        ratio, s = _min_over_s(model.b, sar_harmonic(model, beta), beta, terms)
        i = np.argmin(ratio, axis=1)
        found = np.stack([ratio[links, i], s[links, i], beta[links, i]])
        best = np.where(found[0] < best[0], found, best)
        history.append(best[0])
        step *= 2.0 / (REFINE_POINTS - 1)

    c = np.asarray(constants.power_factor)
    lam_history = c[..., None] * np.stack(history, axis=-1).reshape(lead + (-1,))
    alpha2 = (best[1] ** 2).reshape(lead)
    beta2 = (best[2] % TWO_PI).reshape(lead)
    if not lead:
        bf = Beamformer((1.0, float(alpha2)), (0.0, float(beta2)))
        lam_history = tuple(float(v) for v in lam_history)
        return bf, DinkelbachState(lam_history[-1], bf, REFINE_PASSES, True, lam_history)
    beams = beam_array(lead, alpha2, beta2)
    return beams, DinkelbachState(lam_history[..., -1], beams, REFINE_PASSES, True,
                                  lam_history)
