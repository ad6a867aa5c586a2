"""Channel synthesis and beamforming-gain computation.

Three links per user and resource element: user -> surface (Rician, N x M_t),
surface -> base station (Rician, M_r x N), and the direct user -> BS link
(Rayleigh, M_r x M_t). Small-scale fading is redrawn independently per slot
and per resource element from seeded streams keyed by
(trial, slot, subcarrier, link), so any matrix can be regenerated exactly.
A realization at a flight path keeps only geometry; its Rician mixtures are
formed for the entries an index selects, one slot group's links in the AO
(`slot_groups`).

The LoS steering angles follow the geometry convention of the reference
model: the user->surface link uses the y-displacement over distance for both
arrival and departure sines (set ``departure_uses_x`` on the Scenario to use
the x-displacement on the departure side instead); the surface->BS link uses
(x_B - x) / d for both.

Beams have one type, the BEAM_DTYPE record array of `beam_array`, and the
gain kernels have one call form: a (..., M_r, 2) channel stack and a beam
array of shape (...) give (...) gains, so one link is the 0-d stack.
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
STREAM_GR = 4       # random starts of the phase ascent
STREAM_RANDOM_PHASE = 5  # the random-phase benchmark

GROUP_LINKS = 128   # links a slot group may hold, unless one slot has more


def rng_stream(seed, *key):
    """Independent generator for a (trial, slot, subcarrier, purpose, ...) key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


# Beams: a record array whose fields alpha and beta are float (..., 2)
# arrays of the power shares and phases, with alpha_1 = 1 and beta_1 = 0 by
# convention; beam_array((), alpha2, beta2) is one beam.
BEAM_DTYPE = np.dtype([("alpha", float, (2,)), ("beta", float, (2,))])


def beam_array(shape, alpha2, beta2):
    """Beam record array of the given shape, filled with ((1, alpha2), (0, beta2))."""
    beams = np.zeros(shape, dtype=BEAM_DTYPE).view(np.recarray)
    beams.alpha[..., 0] = 1.0
    beams.alpha[..., 1] = alpha2
    beams.beta[..., 1] = beta2
    return beams


def beam_vector(beams):
    """(..., 2) weights sqrt(alpha) exp(j beta) of a beam array of shape (...)."""
    return np.sqrt(beams.alpha) * np.exp(1j * beams.beta)


def slot_groups(ell):
    """(lo, hi) bounds of the runs of whole slots in a sorted slot array,
    each run holding at most GROUP_LINKS links; a larger slot is a run alone."""
    bounds = [0, *(np.flatnonzero(np.diff(ell)) + 1).tolist(), np.size(ell)]
    groups, lo = [], 0
    for start, end in zip(bounds[:-1], bounds[1:]):
        if end - lo > GROUP_LINKS and start > lo:
            groups.append((lo, start))
            lo = start
    return groups + [(lo, bounds[-1])] if bounds[-1] else groups


def gram(h_eff):
    """(..., M_t, M_t) Gram matrices H^H H of a stack of channels."""
    h_eff = np.asarray(h_eff)
    return np.swapaxes(h_eff.conj(), -1, -2) @ h_eff


def gram_terms(k_mat):
    """(k11, k22, |k12|, arg k12) of a (..., 2, 2) Gram stack."""
    k12 = k_mat[..., 0, 1]
    return k_mat[..., 0, 0].real, k_mat[..., 1, 1].real, np.abs(k12), np.angle(k12)


def expanded_gain(terms, alpha2, beta2):
    """k11 + alpha2 k22 + 2 sqrt(alpha2) |k12| cos(beta2 + arg k12): the gain
    of the beam ((1, alpha2), (0, beta2)) against the Gram terms."""
    k11, k22, k12a, k12p = terms
    return k11 + alpha2 * k22 + 2.0 * np.sqrt(alpha2) * k12a * np.cos(beta2 + k12p)


def channel_gain(h_eff, beams):
    """(...) gains ||H f||^2, via the expanded form, of a (..., M_r, 2) channel
    stack under a beam array of shape (...); one channel is the 0-d stack."""
    return expanded_gain(gram_terms(gram(h_eff)), beams.alpha[..., 1], beams.beta[..., 1])


# ---------------------------------------------------------------------------
# per-trial channel workspace
# ---------------------------------------------------------------------------

class RicianMixture:
    """Rician mixture a los + b nlos, formed only for the entries an index of
    integers, slices and integer arrays selects, with the bits of a whole-array
    mix.  a_los is (N_T, 1, ...): a slot's LoS serves all its subcarriers."""

    def __init__(self, a_los, b, nlos):
        self._los, self._b, self._nlos = a_los, b, nlos
        self.shape, self.size = nlos.shape, nlos.size

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        k0, k1 = (key + (slice(None), slice(None)))[:2]
        if k0 is None or k0 is Ellipsis or k1 is None or k1 is Ellipsis:
            raise IndexError("a Rician mixture takes integers, slices and integer arrays")
        # los has one subcarrier: an index of the key's layout broadcasts it
        k1 = (slice(None) if isinstance(k1, slice) else
              np.zeros((1,) * np.ndim(k1), int) if isinstance(k0, slice) else 0)
        out = self._b * self._nlos[key]    # a fresh array, never a view of the draws
        out += self._los[(k0, k1) + key[2:]]
        return out


@dataclass
class ChannelRealization:
    """All channels of one trial realized at a specific trajectory.

    gbar[l, n, u] and hbar[l, n] are unit-scale Rician mixtures, formed on demand
    (RicianMixture); the full channels are sqrt(rho) * d^(-exp/2) times those.
    hd[l, n, u] is the full direct channel (trajectory-independent).
    """

    trajectory: np.ndarray       # (N_T, 3)
    gbar: RicianMixture          # (N_T, N_c, U, N, M_t)
    hbar: RicianMixture          # (N_T, N_c, M_r, N)
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
        """(..., M_r, M_t) channels H Theta G + Hd of the links (ell, n, u).

        ell is one slot and theta its (N,) phases, or a sorted array of each
        link's slot and theta one row per link, as the AO's refresh and its
        sweep-start beam search pass them.  That form mixes one slot group
        (`slot_groups`) at a time, so it gathers the hbar rows of at most
        GROUP_LINKS links or one slot, and gives the bits of per-slot calls.
        A group of one slot passes its slot as a scalar, so the slot's LoS
        broadcasts over its links instead of being gathered per link."""
        scale = self.h_scale[ell] * self.g_scale[ell, u]
        theta = np.asarray(theta)
        if np.ndim(ell) == 0:
            return self._mix(ell, n, u, theta, scale)
        out = np.empty(np.shape(u) + self.hd.shape[-2:], dtype=complex)
        for lo, hi in slot_groups(ell):
            k = slice(lo, hi)
            slot = ell[lo] if ell[lo] == ell[hi - 1] else ell[k]
            out[k] = self._mix(slot, n[k], u[k], theta[k], scale[k])
        return out

    def _mix(self, ell, n, u, theta, scale):
        casc = self.hbar[ell, n] @ (theta[..., :, None] * self.gbar[ell, n, u])
        return scale[..., None, None] * casc + self.hd[ell, n, u]

    def cascade_and_direct(self, ell, n, u, f):
        """(..., M_r, N) cascades H diag(G f) and (..., M_r) direct paths Hd f,
        pathloss included, of slot ell's links (n, u) under weights f."""
        scale = self.h_scale[ell] * self.g_scale[ell, u]
        f = np.asarray(f)[..., None]
        g_f = (self.gbar[ell, n, u] @ f)[..., 0]                      # (..., N)
        hdg = self.hbar[ell, n]
        hdg *= g_f[..., None, :]
        hdg *= scale[..., None, None]
        return hdg, (self.hd[ell, n, u] @ f)[..., 0]


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
        self._hd = np.zeros((nt, nc, u, mr, mt), dtype=complex)
        # streams fill (re, im) pairs in place; one division sets E|x|^2 = 1
        for ell in range(nt):
            for sub in range(nc):
                for link, arr in ((LINK_G, self._wg), (LINK_H, self._wh), (LINK_HD, self._hd)):
                    if arr.size:
                        rng_stream(seed, self.trial, ell, sub, link).standard_normal(
                            out=arr[ell, sub].view(float))
        for arr in (self._wg, self._wh, self._hd):
            arr /= math.sqrt(2.0)

        # the direct link never moves: realize it once
        d_ub = np.linalg.norm(scenario.user_positions - scenario.bs_position[None, :], axis=1)
        dscale = np.sqrt(p.nlos_pathloss_ref * d_ub ** (-p.direct_pathloss_exp))
        self._hd *= dscale[None, None, :, None, None]

    def without_surface(self, bare):
        """This trial's set for `bare`, its scenario with no surface, as
        ChannelSet(bare, trial) would build it: the direct-link draws are
        shared, never copied or written, and the surface links are zero-width."""
        if bare.params.num_ris_elements:
            raise ValueError("without_surface needs a scenario with no surface")
        out = object.__new__(ChannelSet)
        out.scenario, out.trial, out._hd = bare, self.trial, self._hd
        out._wg = np.zeros(self._wg.shape[:3] + (0,) + self._wg.shape[4:], dtype=complex)
        out._wh = np.zeros(self._wh.shape[:3] + (0,), dtype=complex)
        return out

    def realize(self, trajectory):
        """Channels at the given (N_T, 3) trajectory, reusing the stored fading."""
        sc = self.scenario
        p = sc.params
        q = np.asarray(trajectory, dtype=float).reshape(p.num_slots, 3)
        diff = sc.user_positions[None, :, :] - q[:, None, :]   # (N_T, U, 3)
        d_ur = np.linalg.norm(diff, axis=2)
        if np.any(d_ur <= 0):
            raise ValueError("degenerate geometry: platform touches a user position")
        d_rb = np.linalg.norm(q - sc.bs_position[None, :], axis=1)
        if np.any(d_rb <= 0):
            raise ValueError("degenerate geometry: platform touches the BS position")

        def steer(m, sines):    # (..., m) ULA steering vectors at the given sines
            return np.exp(-1j * TWO_PI * p.antenna_spacing_ratio * np.arange(m) * sines[..., None])

        sin_ur = diff[:, :, 1] / d_ur                       # (N_T, U)
        sin_ud = diff[:, :, 0] / d_ur if sc.departure_uses_x else sin_ur
        ar_n, at_m = steer(p.num_ris_elements, sin_ur), steer(p.tx_antennas, sin_ud)
        los_g = ar_n[:, :, :, None] * at_m.conj()[:, :, None, :]   # (N_T, U, N, M_t)

        sin_rb = (sc.bs_position[0] - q[:, 0]) / d_rb
        ar_mr, ad_n = steer(p.rx_antennas, sin_rb), steer(p.num_ris_elements, sin_rb)
        los_h = ar_mr[:, :, None] * ad_n.conj()[:, None, :]        # (N_T, M_r, N)

        k1, k2 = p.rician_factors
        gbar = RicianMixture(math.sqrt(k1 / (k1 + 1.0)) * los_g[:, None],
                             math.sqrt(1.0 / (k1 + 1.0)), self._wg)
        hbar = RicianMixture(math.sqrt(k2 / (k2 + 1.0)) * los_h[:, None],
                             math.sqrt(1.0 / (k2 + 1.0)), self._wh)
        return ChannelRealization(q, gbar, hbar, self._hd, d_ur, d_rb,
                                  p.los_pathloss_ref, *p.ris_pathloss_exps)
