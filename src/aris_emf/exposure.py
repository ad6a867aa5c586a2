"""Reference-SAR polynomial, per-user exposure, and the network exposure index.

The transmitter has two antennas; the beam is parameterized by amplitudes
(alpha_1 = 1, alpha_2) and the relative phase beta_2. The reference SAR is a
fitted trigonometric polynomial in those three quantities with twenty
coefficients; absolute SAR values depend on the fitted hardware, so the
shipped default model is synthetic (positive and phase-sensitive) and any
user-supplied 20-coefficient file can be loaded instead.

Exposure bookkeeping: a user's per-slot exposure is sum_n delta*p*SAR over
its resource elements, and the network index averages that over users and
slots and scales by the slot duration. The index is reported in W/kg with
the duration factor included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InfeasibleError(RuntimeError):
    """A hard feasibility failure (rates unreachable within the power budget)."""


ALPHA2_MAX = 4.0   # upper end of the second antenna's power share alpha_2


@dataclass(frozen=True)
class SarModel:
    """Twenty fitted coefficients b_1..b_20 of the reference-SAR polynomial.

    Positivity over the operating range (alpha_2 in [0, ALPHA2_MAX], all
    beta_2) is checked exactly at construction time; see `_sar_floor`.
    """

    b: tuple

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        if len(b) != 20:
            raise ValueError(f"SarModel needs exactly 20 coefficients, got {len(b)}")
        object.__setattr__(self, "b", b)
        floor, a2, b2 = _sar_floor(self)
        if floor <= 0.0:
            raise ValueError(
                "SAR model fails positivity validation: "
                f"SAR={floor:.6g} at alpha2={a2:.4g}, beta2={b2:.4g}")


def _sar_floor(model):
    """Exact minimum of the reference SAR over the operating range.

    With s = sqrt(alpha_2), SAR = q(s) + e(s)*H(beta_2) where q and e are
    quadratics in s and H is the harmonic series.  SAR is affine in H, so for
    every s its minimum over beta_2 sits at H's smallest or largest value,
    and the floor is the smaller of two one-variable quadratic minima over
    s in [0, sqrt(ALPHA2_MAX)].  H's extremes lie at roots of H', and with
    z = exp(j*beta_2), z**6 * H'(beta_2) is a degree-12 polynomial in z.
    Returns (floor, alpha_2, beta_2) at the minimizer.
    """
    b = model.b
    poly = np.zeros(13, dtype=complex)   # descending powers of z
    for k in range(1, 7):
        poly[6 - k] = k * b[6 + k] * np.exp(1j * b[13 + k])
        poly[6 + k] = -k * b[6 + k] * np.exp(-1j * b[13 + k])
    # roots off the unit circle add only harmless candidates; beta_2 = 0
    # covers an H with no harmonics, whose polynomial has no roots
    betas = np.append(np.angle(np.roots(poly)), 0.0) % (2.0 * np.pi)
    harm = sar_harmonic(model, betas)
    s_max = math.sqrt(ALPHA2_MAX)
    best = (math.inf, 0.0, 0.0)
    for i in (int(np.argmin(harm)), int(np.argmax(harm))):
        h = float(harm[i])
        c0, c1, c2 = b[0] + b[3] * h, b[1] + b[4] * h, b[2] + b[5] * h
        cands = [0.0, s_max]
        if c2 > 0.0 and 0.0 < -c1 / (2.0 * c2) < s_max:
            cands.append(-c1 / (2.0 * c2))
        for s in cands:
            val = c0 + s * (c1 + s * c2)
            if val < best[0]:
                best = (val, s * s, float(betas[i]))
    return best


# Synthetic default: quadratic part dominated by the per-antenna terms, with a
# first- and third-harmonic phase modulation whose worst case (|m| <= 1.4)
# cannot overcome the quadratic floor.
_DEFAULT_B = (4.0, 1.0, 4.0,          # b1..b3  quadratic part
              1.0, 0.0, 1.0,          # b4..b6  modulation envelope
              0.0, 0.6, 0.0, 0.8, 0.0, 0.0, 0.0,   # b7..b13  harmonic amplitudes
              0.0, 0.4, 0.0, 0.7, 0.0, 0.0, 0.0)   # b14..b20 harmonic phase offsets


def default_sar_model():
    return SarModel(_DEFAULT_B)


def load_sar_model(path):
    """Read 20 whitespace-separated reals (order b_1..b_20) from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        vals = fh.read().split()
    if len(vals) != 20:
        raise ValueError(f"SAR model file must hold exactly 20 numbers, got {len(vals)}")
    return SarModel(tuple(float(v) for v in vals))


def reference_sar(model, alpha, beta2):
    """Reference SAR of 2-antenna beams (1/kg).

    alpha: array-like (2, ...) of amplitudes squared, alpha_1 = 1 by
    convention; beta2: relative phases in radians (broadcastable).  Returns
    an array of the broadcast shape (0-d for one beam):
    b1*a1 + b2*sqrt(a1*a2) + b3*a2 plus the (b4*a1 + b5*sqrt(a1*a2) +
    b6*a2)-weighted harmonic series sum_{k=0..6} b_{7+k} cos(k*beta2 +
    b_{14+k}).
    """
    b = model.b
    alpha = np.asarray(alpha, dtype=float)
    a1, a2 = alpha[0], alpha[1]
    beta2 = np.asarray(beta2, dtype=float)
    cross = np.sqrt(a1 * a2)
    quad = b[0] * a1 + b[1] * cross + b[2] * a2
    env = b[3] * a1 + b[4] * cross + b[5] * a2
    return quad + env * sar_harmonic(model, beta2)


def sar_harmonic(model, beta2):
    """Harmonic series sum_{k=0..6} b_{7+k} cos(k*beta2 + b_{14+k}) of the SAR.

    Returns an array of beta2's shape (zeros when every amplitude is 0).
    """
    b = model.b
    beta2 = np.asarray(beta2, dtype=float)
    harm = np.zeros(beta2.shape)
    for k in range(7):
        if b[6 + k] != 0.0:
            harm = harm + b[6 + k] * np.cos(k * beta2 + b[13 + k])
    return harm


def power_factor(share, sigma2, w):
    """sigma2 * (2^{share/w} - 1): the power that carries `share` bit/s at unit gain."""
    return sigma2 * (2.0 ** (share / w) - 1.0)


def exposure_index(per_user_exposure, slot_duration):
    """Network exposure index: (duration / (N_T * U)) * sum of the slot sums.

    `per_user_exposure` has shape (U, N_T); summing each slot first means the
    index cannot rise while no slot sum rises.  An empty tensor (no users)
    yields 0 by convention.
    """
    e = np.asarray(per_user_exposure, dtype=float)
    if e.size == 0:
        return 0.0
    u, nt = e.shape
    return float(slot_duration / (nt * u) * np.sum(e.sum(axis=0)))


@dataclass(frozen=True)
class ExposureReport:
    """Outcome of one optimized (or benchmark) run.

    per_user_exposure has shape (U, N_T); exposure_index aggregates it;
    achieved_rates holds each user's worst per-slot rate in bits/s.
    """

    per_user_exposure: np.ndarray
    exposure_index: float
    achieved_rates: np.ndarray
    label: str

    def __post_init__(self):
        object.__setattr__(self, "per_user_exposure",
                           np.asarray(self.per_user_exposure, dtype=float))
        object.__setattr__(self, "achieved_rates",
                           np.asarray(self.achieved_rates, dtype=float))

    def per_user_index(self, slot_duration):
        """Per-user time-averaged exposure (duration * mean over slots)."""
        nt = self.per_user_exposure.shape[1]
        return slot_duration / nt * self.per_user_exposure.sum(axis=1)
