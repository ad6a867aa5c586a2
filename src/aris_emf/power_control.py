"""Per-user transmit power across assigned resource elements.

One user's subproblem: minimize the exposure sum SAR_n * p_n over its
elements subject to a total-rate floor and a total-power cap.  Stationarity
gives water-filling powers

    p_n = max{ nu / (SAR_n + lam) - sigma2 / gamma_n, 0 }
        = max{ nu / t_n - 1, 0 } / snr_n,

with nu = w*mu/ln2 the rate multiplier's water level, lam the power-cap
multiplier, snr_n = gamma_n / sigma2 and t_n = (SAR_n + lam) / snr_n the
element's threshold.  The rate floor always binds, so for a fixed lam the
level is exact (Palomar & Fonollosa, IEEE TSP 2005): with the k smallest
thresholds active, log2 nu = (rate/w + sum_{i<=k} log2 t_i) / k, and the
active count is the largest k whose level reaches its own threshold.

That one formula is used three times.  Thresholds 1/snr give the least
spend that meets the rate (the lam -> inf limit); above p_max the user is
infeasible.  lam = 0 gives the optimum when the cap is slack.  When it binds,
a bisection over lam finds where the spend meets p_max: the spend at rate
equality is non-increasing in lam, a Pareto-scalarization fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex_kernels import bisect
from .exposure import InfeasibleError

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PowerAllocation:
    """One user's per-element powers and the multipliers that produced them."""

    powers: np.ndarray
    mu: float
    lam: float

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if np.any(p < 0):
            raise ValueError("negative transmit power")
        if self.mu < 0 or self.lam < 0:
            raise ValueError("multipliers must be non-negative")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)

    @property
    def total(self):
        return float(self.powers.sum())


def _waterfill(thresholds, snr_per_watt, target):
    """Exact water level for thresholds t_n and a rate target in units of w.

    Returns (log2 nu, powers).  Levels are offsets from the smallest log2 t,
    so the excess bits x_n = log2(nu / t_n) of a tiny target are not the
    difference of two large logarithms, and p_n = (2^x_n - 1) / snr_n is
    formed with expm1.
    """
    log_t = np.log2(thresholds)
    base = float(log_t.min())
    offsets = log_t - base
    ordered = np.sort(offsets)
    levels = (target + np.cumsum(ordered)) / np.arange(1, ordered.size + 1)
    level = levels[np.flatnonzero(levels >= ordered)[-1]]
    excess = np.maximum(level - offsets, 0.0)
    return base + float(level), np.expm1(LN2 * excess) / snr_per_watt


def _solve(gamma, sar, rate_target, p_max, sigma2, w):
    """(mu, lam, powers) of one user's exposure-minimal power problem."""
    gamma = np.asarray(gamma, dtype=float)
    sar = np.asarray(sar, dtype=float)
    if gamma.size == 0:
        raise InfeasibleError("no resource elements to carry a positive rate")
    if np.any(gamma <= 0):
        raise InfeasibleError("zero channel gain on an assigned resource element")
    if np.any(sar <= 0):
        raise ValueError("reference exposure must be positive")
    snr_per_watt = gamma / sigma2
    target = rate_target / w
    if target <= 0:
        return 0.0, 0.0, np.zeros(gamma.size)

    def fill(lam):
        return _waterfill((sar + lam) / snr_per_watt, snr_per_watt, target)

    least = _waterfill(1.0 / snr_per_watt, snr_per_watt, target)[1].sum()
    if least > p_max:
        raise InfeasibleError(
            f"rate target {rate_target:.6g} bit/s exceeds the {p_max:.3g} W budget")

    lam = 0.0
    log_nu, p = fill(lam)
    if p.sum() > p_max * (1.0 + 1e-12):
        def excess_spend(lam_x):
            return float(fill(lam_x)[1].sum()) - p_max

        lam_hi = float(sar.mean())
        while excess_spend(lam_hi) > 0:
            lam_hi *= 2.0
            if lam_hi > 1e18 * sar.mean():
                raise InfeasibleError("power cap is attainable only in the limit; "
                                      "rate target sits on the feasibility boundary")
        lam = bisect(excess_spend, 0.0, lam_hi, tol=1e-15)
        log_nu, p = fill(lam)
    return 2.0 ** log_nu * LN2 / w, lam, p


def allocate_power(delta_row, gamma_row, sar_row, rate_target, p_max, sigma2, w,
                   user=None):
    """Powers and per-element rate shares for one user across one slot.

    delta_row/gamma_row/sar_row: (N_c,) allocation mask, gains, and reference
    exposures.  Returns (PowerAllocation, rbar_row) with rbar the per-element
    rate shares summing to rate_target.
    """
    delta_row = np.asarray(delta_row, dtype=float)
    gamma_row = np.asarray(gamma_row, dtype=float)
    sar_row = np.asarray(sar_row, dtype=float)
    n_res = delta_row.size
    label = f"user {user}" if user is not None else "user"
    powers = np.zeros(n_res)
    shares = np.zeros(n_res)
    if rate_target <= 0:
        return PowerAllocation(powers, 0.0, 0.0), shares

    usable = (delta_row > 0) & (gamma_row > 0)
    if not np.any(usable):
        raise InfeasibleError(f"{label} has no usable resource element "
                              f"for a {rate_target:.6g} bit/s target")
    try:
        mu, lam, p = _solve(gamma_row[usable], sar_row[usable],
                            rate_target, p_max, sigma2, w)
    except InfeasibleError as exc:
        raise InfeasibleError(f"{label}: {exc}") from None
    powers[usable] = p
    shares[usable] = w * np.log1p(p * (gamma_row[usable] / sigma2)) / LN2

    achieved = float(shares.sum())
    if achieved < rate_target * (1.0 - 1e-6) or powers.sum() > p_max * (1.0 + 1e-9):
        raise ArithmeticError(
            f"multiplier solve left {label} at {achieved:.6g} of "
            f"{rate_target:.6g} bit/s with {powers.sum():.3g} W spent")
    return PowerAllocation(powers, mu, lam), shares
