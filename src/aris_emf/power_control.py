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
active count is the largest k whose level reaches its own threshold.  A
slot's users are solved as rows at once: an element a row does not use gets
threshold +inf, which sorts last and never becomes active.

That one formula is used three times.  Thresholds 1/snr give the least
spend that meets the rate (the lam -> inf limit); above p_max the user is
infeasible.  lam = 0 gives the optimum when the cap is slack.  On the rows
where it binds, a bisection over lam finds where the spend meets p_max: the
spend at rate equality is non-increasing in lam, a Pareto-scalarization fact.
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
    """Powers, (..., N_c), and the multipliers, (...) arrays."""

    powers: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if np.any(p < 0):
            raise ValueError("negative transmit power")
        if np.min(self.mu) < 0 or np.min(self.lam) < 0:
            raise ValueError("multipliers must be non-negative")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)


def _users(rows):
    """'user i' for each row index (i,); a lone row's index () is 'user'."""
    return ", ".join("user" + "".join(f" {i}" for i in row) for row in rows)


def _waterfill(thresholds, snr_per_watt, target):
    """Exact water levels for rows of thresholds t_n and targets in units of w.

    Returns (log2 nu, powers).  Levels are offsets from the row's smallest
    log2 t, so the excess bits x_n = log2(nu / t_n) of a tiny target are not
    the difference of two large logarithms, and p_n = (2^x_n - 1) / snr_n is
    formed with expm1.
    """
    log_t = np.log2(thresholds)
    base = log_t.min(axis=-1, keepdims=True)
    offsets = log_t - base
    ordered = np.sort(offsets, axis=-1)
    levels = (target[..., None] + np.cumsum(ordered, axis=-1)) / np.arange(1, ordered.shape[-1] + 1)
    # the unused tail has inf >= inf, so only finite thresholds may count
    reached = np.isfinite(ordered) & (levels >= ordered)
    last = ordered.shape[-1] - 1 - np.argmax(reached[..., ::-1], axis=-1, keepdims=True)
    level = np.take_along_axis(levels, last, axis=-1)
    excess = np.maximum(level - offsets, 0.0)
    return (base + level)[..., 0], np.expm1(LN2 * excess) / snr_per_watt


def _solve(gamma, sar, rate_target, p_max, sigma2, w):
    """(mu, lam, powers) of the exposure-minimal power problem of each row.

    gamma/sar: (..., N_c) gains and reference exposures, where a zero gain
    marks an element the row does not use; rate_target: (...) positive.
    """
    used = gamma > 0
    if np.any(sar[used] <= 0):
        raise ValueError("reference exposure must be positive")
    if not np.all(used.any(axis=-1)):
        raise InfeasibleError(f"{_users(np.argwhere(~used.any(axis=-1)))}: "
                              "no resource elements to carry a positive rate")
    snr_per_watt = np.where(used, gamma / sigma2, 1.0)
    target = np.asarray(rate_target, dtype=float) / w

    def fill(weight, row=...):
        thresholds = np.where(used[row], weight / snr_per_watt[row], np.inf)
        return _waterfill(thresholds, snr_per_watt[row], target[row])

    over = fill(np.ones_like(sar))[1].sum(axis=-1) > p_max
    if np.any(over):
        raise InfeasibleError(f"{_users(np.argwhere(over))}: rate target exceeds "
                              f"the {p_max:.3g} W budget")

    log_nu, p = fill(sar)
    lam = np.zeros(target.shape)
    for row in map(tuple, np.argwhere(p.sum(axis=-1) > p_max * (1.0 + 1e-12))):
        def excess_spend(lam_x):
            # summed over the used elements alone, as a row of its own would be
            return float(fill(sar[row] + lam_x, row)[1][used[row]].sum()) - p_max

        lam_hi = float(sar[row][used[row]].mean())
        while excess_spend(lam_hi) > 0:
            lam_hi *= 2.0
            if lam_hi > 1e18 * sar[row][used[row]].mean():
                raise InfeasibleError(f"{_users([row])}: power cap is attainable "
                                      "only in the limit")
        lam[row] = bisect(excess_spend, 0.0, lam_hi, tol=1e-15)
        log_nu[row], p[row] = fill(sar[row] + lam[row], row)
    return 2.0 ** log_nu * LN2 / w, lam, p


def allocate_power(delta, gamma, sar, rate_target, p_max, sigma2, w):
    """Powers and per-element rate shares of rows of elements.

    delta/gamma/sar: (..., N_c) rows of allocation masks, gains and reference
    exposures, such as the AO's (N_T, U, N_c) (slot, user) rows, with (...)
    rate targets; one user's (N_c,) row is the 0-d case.  Returns
    (PowerAllocation, shares): powers and shares are (..., N_c), mu and lam
    (...) arrays, and each row of shares sums to its target.  Errors name the
    failing rows.
    """
    delta, gamma, sar, target = (np.asarray(a, dtype=float)
                                 for a in (delta, gamma, sar, rate_target))
    mu, lam, powers = np.zeros(target.shape), np.zeros(target.shape), np.zeros(gamma.shape)
    # rows without a positive target keep zero power; errors index the rest
    live = ... if np.all(target > 0) else target > 0
    mu[live], lam[live], powers[live] = _solve(
        np.where(delta[live] > 0, gamma[live], 0.0), sar[live], target[live],
        p_max, sigma2, w)
    shares = w * np.log1p(powers * (gamma / sigma2)) / LN2

    short = ((shares.sum(axis=-1) < target * (1.0 - 1e-6))
             | (powers.sum(axis=-1) > p_max * (1.0 + 1e-9)))
    if np.any(short):
        raise ArithmeticError(f"multiplier solve left {_users(np.argwhere(short))} short of "
                              f"its rate target or over the {p_max:.3g} W cap")
    return PowerAllocation(powers, mu, lam), shares
