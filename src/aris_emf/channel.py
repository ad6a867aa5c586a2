"""Channel synthesis and beamforming-gain computation.

Three links per user and resource element: user -> surface (Rician, N x M_t),
surface -> base station (Rician, M_r x N), and the direct user -> BS link
(Rayleigh, M_r x M_t). Small-scale fading is redrawn independently per slot
and per resource element from seeded streams keyed by
(trial, slot, subcarrier, link), so any matrix can be regenerated exactly.

The LoS steering angles follow the geometry convention of the reference
model: the user->surface link uses the y-displacement over distance for both
arrival and departure sines (set ``departure_uses_x`` on the Scenario to use
the x-displacement on the departure side instead); the surface->BS link uses
(x_B - x) / d for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# stream purposes for seed derivation
LINK_G = 1          # user -> surface fading
LINK_H = 2          # surface -> BS fading
LINK_HD = 3         # direct-link fading
STREAM_GR = 4       # randomization draws in the phase optimizer
STREAM_RANDOM_PHASE = 5  # the random-phase benchmark


def rng_stream(seed, *key):
    """Independent generator for a (trial, slot, subcarrier, purpose, ...) key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def _cgauss(rng, shape):
    """i.i.d. standard complex Gaussian entries, E|x|^2 = 1."""
    z = rng.standard_normal(size=shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)


def steering_vector(m, gamma, spacing):
    """ULA steering vector: entry k is exp(-j*2*pi*spacing*k*gamma), k = 0..m-1."""
    return np.exp(-1j * TWO_PI * spacing * np.arange(m) * gamma)


@dataclass(frozen=True)
class Beamformer:
    """Two-antenna transmit beam: power shares alpha (alpha_1 = 1) and phases beta (beta_1 = 0)."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        beta = tuple(float(b) % TWO_PI for b in self.beta)
        if abs(alpha[0] - 1.0) > 1e-12:
            raise ValueError("beamformer convention requires alpha_1 = 1")
        if beta[0] != 0.0:
            raise ValueError("beamformer convention requires beta_1 = 0")
        if any(a < 0 for a in alpha):
            raise ValueError("power shares must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def vector(self):
        """Complex antenna weights f_i = sqrt(alpha_i) * exp(j beta_i)."""
        return np.sqrt(np.asarray(self.alpha)) * np.exp(1j * np.asarray(self.beta))


def _rician(rng_draw, los, k_factor):
    return math.sqrt(k_factor / (k_factor + 1.0)) * los \
        + math.sqrt(1.0 / (k_factor + 1.0)) * rng_draw


def synth_user_aris_channel(rng, user_pos, aris_pos, params, departure_uses_x=False):
    """One user->surface channel draw (N x M_t) at the given geometry."""
    p = params
    d = float(np.linalg.norm(np.asarray(user_pos) - np.asarray(aris_pos)))
    if d <= 0:
        raise ValueError("degenerate geometry: user and surface positions coincide")
    sin_arr = (user_pos[1] - aris_pos[1]) / d
    sin_dep = (user_pos[0] - aris_pos[0]) / d if departure_uses_x else sin_arr
    a_n = steering_vector(p.num_ris_elements, sin_arr, p.antenna_spacing_ratio)
    a_t = steering_vector(p.tx_antennas, sin_dep, p.antenna_spacing_ratio)
    los = np.outer(a_n, a_t.conj())
    w = _cgauss(rng, (p.num_ris_elements, p.tx_antennas))
    scale = math.sqrt(p.los_pathloss_ref * d ** (-p.ris_pathloss_exps[0]))
    return scale * _rician(w, los, p.rician_factors[0])


def synth_aris_bs_channel(rng, aris_pos, bs_pos, params):
    """One surface->BS channel draw (M_r x N) at the given geometry."""
    p = params
    d = float(np.linalg.norm(np.asarray(aris_pos) - np.asarray(bs_pos)))
    if d <= 0:
        raise ValueError("degenerate geometry: surface and BS positions coincide")
    sin_ang = (bs_pos[0] - aris_pos[0]) / d
    a_r = steering_vector(params.rx_antennas, sin_ang, p.antenna_spacing_ratio)
    a_n = steering_vector(params.num_ris_elements, sin_ang, p.antenna_spacing_ratio)
    los = np.outer(a_r, a_n.conj())
    w = _cgauss(rng, (p.rx_antennas, p.num_ris_elements))
    scale = math.sqrt(p.los_pathloss_ref * d ** (-p.ris_pathloss_exps[1]))
    return scale * _rician(w, los, p.rician_factors[1])


def synth_direct_channel(rng, user_pos, bs_pos, params):
    """One direct user->BS Rayleigh draw (M_r x M_t), per-entry variance rho1 * d^-kappa."""
    p = params
    d = float(np.linalg.norm(np.asarray(user_pos) - np.asarray(bs_pos)))
    if d <= 0:
        raise ValueError("degenerate geometry: user and BS positions coincide")
    scale = math.sqrt(p.nlos_pathloss_ref * d ** (-p.direct_pathloss_exp))
    return scale * _cgauss(rng, (p.rx_antennas, p.tx_antennas))


def effective_channel(h_mat, theta, g_mat, hd_mat):
    """Overall M_r x M_t channel H * diag(theta) * G + Hd."""
    h_mat = np.asarray(h_mat)
    g_mat = np.asarray(g_mat)
    theta = np.asarray(theta)
    if h_mat.shape[1] != theta.shape[0] or g_mat.shape[0] != theta.shape[0]:
        raise ValueError("dimension mismatch between surface response and channels")
    return h_mat @ (theta[:, None] * g_mat) + np.asarray(hd_mat)


def gain_from_quadratic(k_mat, alpha, beta):
    """Beamforming gain from the channel Gram matrix via the expanded cosine form.

    gamma = sum_i alpha_i k_ii
          + 2 sum_{i<j} sqrt(alpha_i alpha_j) |k_ij| cos(beta_j - beta_i + arg k_ij)
    """
    k_mat = np.asarray(k_mat)
    m = k_mat.shape[0]
    total = 0.0
    for i in range(m):
        total += alpha[i] * k_mat[i, i].real
    for i in range(m):
        for j in range(i + 1, m):
            kij = k_mat[i, j]
            total += 2.0 * math.sqrt(alpha[i] * alpha[j]) * abs(kij) \
                * math.cos(beta[j] - beta[i] + np.angle(kij))
    return float(total)


def channel_gain(h_eff, f):
    """Beamforming gain gamma = ||H f||^2, evaluated via the expanded form."""
    h_eff = np.asarray(h_eff)
    k_mat = h_eff.conj().T @ h_eff
    if isinstance(f, Beamformer):
        return gain_from_quadratic(k_mat, f.alpha, f.beta)
    f = np.asarray(f)
    alpha = np.abs(f) ** 2
    beta = np.angle(f)
    return gain_from_quadratic(k_mat, alpha, beta)


def gain_decomposition(hbar, gbar, hd_mat, f_vec, theta, rho):
    """Distance-free split of the gain: gamma = a/(d1^k1 d2^k2) + b/sqrt(d1^k1 d2^k2) + ||Hd f||^2.

    hbar, gbar are the unit-scale Rician mixtures (pathloss removed);
    hd_mat is the full direct channel. Returns (a, b).
    """
    cascade = np.asarray(hbar) @ (np.asarray(theta)[:, None] * np.asarray(gbar)) @ np.asarray(f_vec)
    direct = np.asarray(hd_mat) @ np.asarray(f_vec)
    a = rho ** 2 * float(np.vdot(cascade, cascade).real)
    b = 2.0 * rho * float(np.vdot(direct, cascade).real)
    return a, b


# ---------------------------------------------------------------------------
# per-trial channel workspace
# ---------------------------------------------------------------------------

@dataclass
class ChannelRealization:
    """All channels of one trial realized at a specific trajectory.

    gbar[l, n, u] and hbar[l, n] are unit-scale Rician mixtures; the full
    channels are sqrt(rho) * d^(-exp/2) times those (see g_scale/h_scale).
    hd[l, n, u] is the full direct channel (trajectory-independent).
    """

    trajectory: np.ndarray       # (N_T, 3)
    gbar: np.ndarray             # (N_T, N_c, U, N, M_t) or empty when N = 0
    hbar: np.ndarray             # (N_T, N_c, M_r, N)
    hd: np.ndarray               # (N_T, N_c, U, M_r, M_t)
    d_ur: np.ndarray             # (N_T, U)
    d_rb: np.ndarray             # (N_T,)
    rho: float
    kappa1: float
    kappa2: float

    @property
    def g_scale(self):
        """sqrt(rho * d_uR^-kappa1), shape (N_T, U)."""
        return np.sqrt(self.rho * self.d_ur ** (-self.kappa1))

    @property
    def h_scale(self):
        """sqrt(rho * d_RB^-kappa2), shape (N_T,)."""
        return np.sqrt(self.rho * self.d_rb ** (-self.kappa2))

    def effective(self, ell, n, u, theta):
        """Full effective channel H Theta G + Hd for one (slot, RE, user)."""
        if self.gbar.size == 0:
            return self.hd[ell, n, u]
        scale = self.h_scale[ell] * self.g_scale[ell, u]
        casc = self.hbar[ell, n] @ (np.asarray(theta)[:, None] * self.gbar[ell, n, u])
        return scale * casc + self.hd[ell, n, u]

    def cascade_and_direct(self, ell, n, u, f_vec):
        """(H diag(G f), Hd f) with full pathloss scaling, for the phase optimizer."""
        scale = self.h_scale[ell] * self.g_scale[ell, u]
        g_f = self.gbar[ell, n, u] @ f_vec          # (N,)
        hdg = scale * (self.hbar[ell, n] * g_f[None, :])   # (M_r, N) = H diag(Gf)
        return hdg, self.hd[ell, n, u] @ f_vec


class ChannelSet:
    """Raw fading draws of one Monte Carlo trial, realizable at any trajectory.

    The small-scale draws are fixed at construction; `realize` recomputes the
    LoS geometry, pathloss scaling, and distances for a candidate trajectory
    without redrawing fading (as the trajectory optimizer requires).
    """

    def __init__(self, scenario, trial):
        p = scenario.params
        self.scenario = scenario
        self.trial = int(trial)
        nt, nc, u = p.num_slots, p.num_subcarriers, p.num_users
        n, mr, mt = p.num_ris_elements, p.rx_antennas, p.tx_antennas
        seed = scenario.rng_seed

        self._wg = np.zeros((nt, nc, u, n, mt), dtype=complex)
        self._wh = np.zeros((nt, nc, mr, n), dtype=complex)
        whd = np.zeros((nt, nc, u, mr, mt), dtype=complex)
        for ell in range(nt):
            for sub in range(nc):
                if n > 0:
                    gr = rng_stream(seed, self.trial, ell, sub, LINK_G)
                    self._wg[ell, sub] = _cgauss(gr, (u, n, mt))
                    hr = rng_stream(seed, self.trial, ell, sub, LINK_H)
                    self._wh[ell, sub] = _cgauss(hr, (mr, n))
                dr = rng_stream(seed, self.trial, ell, sub, LINK_HD)
                whd[ell, sub] = _cgauss(dr, (u, mr, mt))

        # the direct link never moves: realize it once
        d_ub = np.linalg.norm(scenario.user_positions - scenario.bs_position[None, :], axis=1)
        dscale = np.sqrt(p.nlos_pathloss_ref * d_ub ** (-p.direct_pathloss_exp))
        self._hd = whd * dscale[None, None, :, None, None]
        self._d_ub = d_ub

    def realize(self, trajectory):
        """Channels at the given (N_T, 3) trajectory, reusing the stored fading."""
        sc = self.scenario
        p = sc.params
        q = np.asarray(trajectory, dtype=float).reshape(p.num_slots, 3)
        users = sc.user_positions

        diff = users[None, :, :] - q[:, None, :]            # (N_T, U, 3)
        d_ur = np.linalg.norm(diff, axis=2)
        if np.any(d_ur <= 0):
            raise ValueError("degenerate geometry: platform touches a user position")
        d_rb = np.linalg.norm(q - sc.bs_position[None, :], axis=1)
        if np.any(d_rb <= 0):
            raise ValueError("degenerate geometry: platform touches the BS position")

        if p.num_ris_elements == 0:
            gbar = np.zeros((p.num_slots, p.num_subcarriers, p.num_users, 0, p.tx_antennas),
                            dtype=complex)
            hbar = np.zeros((p.num_slots, p.num_subcarriers, p.rx_antennas, 0), dtype=complex)
            return ChannelRealization(q, gbar, hbar, self._hd, d_ur, d_rb,
                                      p.los_pathloss_ref, *p.ris_pathloss_exps)

        spacing = p.antenna_spacing_ratio
        sin_ur = diff[:, :, 1] / d_ur                       # (N_T, U)
        sin_ud = diff[:, :, 0] / d_ur if sc.departure_uses_x else sin_ur
        ar_n = np.exp(-1j * TWO_PI * spacing
                      * np.arange(p.num_ris_elements)[None, None, :] * sin_ur[:, :, None])
        at_m = np.exp(-1j * TWO_PI * spacing
                      * np.arange(p.tx_antennas)[None, None, :] * sin_ud[:, :, None])
        los_g = ar_n[:, :, :, None] * at_m.conj()[:, :, None, :]   # (N_T, U, N, M_t)

        sin_rb = (sc.bs_position[0] - q[:, 0]) / d_rb
        ar_mr = np.exp(-1j * TWO_PI * spacing
                       * np.arange(p.rx_antennas)[None, :] * sin_rb[:, None])
        ad_n = np.exp(-1j * TWO_PI * spacing
                      * np.arange(p.num_ris_elements)[None, :] * sin_rb[:, None])
        los_h = ar_mr[:, :, None] * ad_n.conj()[:, None, :]        # (N_T, M_r, N)

        k1, k2 = p.rician_factors
        gbar = (math.sqrt(k1 / (k1 + 1.0)) * los_g[:, None]
                + math.sqrt(1.0 / (k1 + 1.0)) * self._wg)
        hbar = (math.sqrt(k2 / (k2 + 1.0)) * los_h[:, None]
                + math.sqrt(1.0 / (k2 + 1.0)) * self._wh)
        return ChannelRealization(q, gbar, hbar, self._hd, d_ur, d_rb,
                                  p.los_pathloss_ref, *p.ris_pathloss_exps)

    def fingerprint(self):
        """Stable hash of the raw draws (used to confirm paired trials share fading)."""
        import hashlib
        h = hashlib.sha256()
        for arr in (self._wg, self._wh, self._hd):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()
