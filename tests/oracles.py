"""Reference helpers the tests share and the package does not need.

`fingerprint` confirms that paired trials share fading; `min_power_for_rate`
and `solve_multipliers` state the single-link power inversion and one user's
power multipliers as the tests check them against the power block.
"""

import hashlib

import numpy as np

from aris_emf.exposure import InfeasibleError, power_factor
from aris_emf.power_control import _solve


def fingerprint(channel_set):
    """Stable hash of a ChannelSet's raw draws."""
    h = hashlib.sha256()
    for arr in (channel_set._wg, channel_set._wh, channel_set._hd):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


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
