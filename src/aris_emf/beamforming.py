"""Transmit beamformer search over a stack of resource elements.

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

`optimize_beamformer` has one call form: a (..., 2, 2) stack of Gram
matrices, such as the active links of a group of slots, with the links'
power factors.  It runs their searches together on (links, phases) arrays,
and one matrix is the 0-d stack, searched by the same code.  A link that no
beam gives positive gain ends with an infinite ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import TWO_PI, beam_array, gram_terms
from .exposure import ALPHA2_MAX, sar_harmonic

BETA_GRID = 256       # coarse beta2 points over [0, 2pi)
REFINE_PASSES = 4     # nested refinements around the best phase so far
REFINE_POINTS = 33    # points per pass, spanning one step of the previous grid each way
S_MAX = math.sqrt(ALPHA2_MAX)


@dataclass(frozen=True)
class DinkelbachState:
    """Final ratios and per-pass trace of a beam search, with the passes on
    lam_history's last axis."""

    lam: object
    # iterations and converged are fixed (REFINE_PASSES, True); they stay
    # because the benchmark's beam observer reads both
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


def optimize_beamformer(k_mat, model, power_factor):
    """Ratio-minimizing beams of a (..., 2, 2) stack of Gram matrices.

    power_factor is each link's sigma2 * (2**(rbar/w) - 1), shaped (...) or
    broadcastable to it.  Returns a beam record array of shape (...) and a
    DinkelbachState whose lam is (...) and lam_history (..., passes + 1); one
    matrix is the 0-d stack.  lam_history holds the coarse grid's ratio and
    then the best ratio after each refinement pass, so it never rises;
    iterations counts the passes.  A link that no beam gives positive gain
    ends with lam = inf.
    """
    k_mat = np.asarray(k_mat)
    terms = [np.reshape(t, -1) for t in _checked_terms(k_mat)]
    lead = k_mat.shape[:-2]
    links = np.arange(terms[0].size)

    beta, harm = _coarse_grid(model)
    ratio, s = _min_over_s(model.b, harm, beta, terms)
    i = np.argmin(ratio, axis=1)
    best = np.stack([ratio[links, i], s[links, i], beta[i]])   # ratio, s, beta2
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

    lam_history = (np.asarray(power_factor)[..., None]
                   * np.stack(history, axis=-1).reshape(lead + (-1,)))
    beams = beam_array(lead, (best[1] ** 2).reshape(lead), (best[2] % TWO_PI).reshape(lead))
    return beams, DinkelbachState(lam_history[..., -1], REFINE_PASSES, True, lam_history)
