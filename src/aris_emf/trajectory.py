"""Successive convex refinement of the relay platform's flight path.

With fading realizations frozen, each link's gain against the platform
position decomposes into pure distance power laws,

    gamma(u, v) = a / (u^k1 * v^k2) + b / sqrt(u^k1 * v^k2) + resid,

with u the user-platform distance, v the platform-base-station distance,
a >= 0 the reflected-path energy, b the reflected/direct cross term, and
resid the direct-path floor.  The exposure proxy sum_links c^2/gamma is
handled in two nested loops: an outer ratio transform fixing auxiliary
weights x = c/gamma, and an inner sequence of convex subproblems where the
slack-relaxed distance terms are tangent-linearized at the current point
(terms convex in the minimization, i.e. b < 0 cross terms, are kept exact).
Slack lower bounds use the linearized square trick d^2 + u0^2 - 2*u0*u <= 0,
which implies the true bound u >= d for any expansion point u0.

Positions move only at interior slots; endpoints stay pinned and per-slot
displacement stays within the platform's speed limit.  Every candidate path
is re-scored against the frozen-fading proxy and accepted only if it does
not increase, so the returned path is never worse than the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .convex_kernels import ConvexProgram, ConvexSolverError, solve_convex_program
from .exposure import InfeasibleError
from .ris_phase import quad_transform_y

SLACK_LIFT = 1e-6  # initial slacks sit this far (relatively) above the distances


@dataclass(frozen=True)
class Trajectory:
    """Platform waypoints, one per slot, at fixed altitude."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError(f"expected (num_slots >= 2, 3) waypoints, got {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def steps(self):
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)

    def check(self, max_step, start=None, end=None):
        worst = float(self.steps().max())
        if worst > max_step + 1e-6:
            raise ValueError(f"slot displacement {worst:.6g} m exceeds {max_step:.6g} m")
        if start is not None and not np.array_equal(self.points[0], np.asarray(start)):
            raise ValueError("start waypoint is not pinned")
        if end is not None and not np.array_equal(self.points[-1], np.asarray(end)):
            raise ValueError("end waypoint is not pinned")


def straight_trajectory(start, end, num_slots):
    """Uniformly spaced waypoints on the segment start -> end."""
    frac = np.linspace(0.0, 1.0, num_slots)[:, None]
    return Trajectory((1.0 - frac) * np.asarray(start, dtype=float)
                      + frac * np.asarray(end, dtype=float))


def link_distances(points, user_positions, bs_position):
    """(slot, user) and (slot,) distances of the platform to users and BS."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - np.asarray(user_positions, dtype=float)[None, :, :]
    d_ur = np.sqrt((diff ** 2).sum(axis=-1))
    db = pts - np.asarray(bs_position, dtype=float)
    return d_ur, np.sqrt((db ** 2).sum(axis=-1))


@dataclass(frozen=True)
class GainField:
    """Frozen-fading gain constants of every (slot, user, element) link."""

    delta: np.ndarray    # (N_T, U, N_c) allocation
    c_un: np.ndarray     # (N_T, U, N_c) sqrt(power_factor * SAR)
    a_un: np.ndarray     # (N_T, U, N_c) reflected-path energy, >= 0
    b_un: np.ndarray     # (N_T, U, N_c) cross term, sign free
    resid: np.ndarray    # (N_T, U, N_c) direct-path floor, >= 0
    kappa1: float
    kappa2: float

    def __post_init__(self):
        shape = np.asarray(self.delta).shape
        for name in ("c_un", "a_un", "b_un", "resid"):
            if np.asarray(getattr(self, name)).shape != shape:
                raise ValueError(f"{name} does not match the allocation shape {shape}")
        if np.any(np.asarray(self.a_un) < 0) or np.any(np.asarray(self.resid) < 0):
            raise ValueError("reflected energies and direct floors must be >= 0")

    def gains(self, d_ur, d_rb):
        s2 = np.asarray(d_ur)[:, :, None] ** self.kappa1 \
            * np.asarray(d_rb)[:, None, None] ** self.kappa2
        return self.a_un / s2 + self.b_un / np.sqrt(s2) + self.resid

    def proxy(self, d_ur, d_rb):
        """sum over allocated links of c^2 / gamma at the given distances."""
        gains = self.gains(d_ur, d_rb)
        mask = np.asarray(self.delta) > 0
        if not np.any(mask):
            return 0.0
        c = np.asarray(self.c_un)[mask]
        x = quad_transform_y(c, gains[mask])
        return float(np.sum(c * x))


def linearize_gain_terms(a_un, b_un, u0, v0, kappa1, kappa2):
    """Tangent planes at (u0, v0) of the two distance power laws.

    Returns ((fa, dau, dav), (fb, dbu, dbv)) for a/(u^k1 v^k2) and
    b/(u^(k1/2) v^(k2/2)); each triple is (value, d/du, d/dv) at (u0, v0).
    For non-negative coefficients the terms are convex, so the tangents
    under-estimate them everywhere.
    """
    a = np.asarray(a_un, dtype=float)
    b = np.asarray(b_un, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    fa = a / (u0 ** kappa1 * v0 ** kappa2)
    h1, h2 = 0.5 * kappa1, 0.5 * kappa2
    fb = b / (u0 ** h1 * v0 ** h2)
    return (fa, -kappa1 * fa / u0, -kappa2 * fa / v0), \
           (fb, -h1 * fb / u0, -h2 * fb / v0)


@dataclass(frozen=True)
class ScaState:
    """Current waypoints, distance slacks, ratio weights, and proxy value."""

    points: np.ndarray     # (N_T, 3)
    u_slack: np.ndarray    # (N_T, U)
    v_slack: np.ndarray    # (N_T,)
    x_aux: np.ndarray      # (N_T, U, N_c)
    objective: float       # frozen-fading proxy at points
    surrogate: float = float("nan")   # subproblem objective at the last solve


def make_sca_state(points, gain_field, user_positions, bs_position):
    pts = np.asarray(points, dtype=float)
    d_ur, d_rb = link_distances(pts, user_positions, bs_position)
    x = np.zeros_like(gain_field.c_un, dtype=float)
    mask = np.asarray(gain_field.delta) > 0
    if np.any(mask):
        gains = gain_field.gains(d_ur, d_rb)
        x[mask] = quad_transform_y(gain_field.c_un[mask], gains[mask])
    return ScaState(pts, d_ur * (1.0 + SLACK_LIFT), d_rb * (1.0 + SLACK_LIFT), x,
                    gain_field.proxy(d_ur, d_rb))


def _collapse_weights(state, gain_field):
    """Per-(slot, user) effective coefficients under weights delta * x^2."""
    w = np.asarray(gain_field.delta) * state.x_aux ** 2
    a_eff = np.einsum("lun,lun->lu", w, gain_field.a_un)
    b_pos = np.einsum("lun,lun->lu", w, np.maximum(gain_field.b_un, 0.0))
    b_neg = np.einsum("lun,lun->lu", w, np.maximum(-gain_field.b_un, 0.0))
    return a_eff, b_pos, b_neg


def sca_step(state, gain_field, user_positions, bs_position, max_step,
             barrier_tol=1e-8, t0=1.0):
    """One tangent-linearized subproblem solve.

    Returns a new ScaState; on solver failure the input state is returned
    unchanged (with a warning).  With no interior slots the waypoints are
    fixed and only the slacks tighten onto the true distances.
    """
    pts = np.asarray(state.points, dtype=float)
    n_slots = pts.shape[0]
    users = np.asarray(user_positions, dtype=float)
    n_users = users.shape[0]
    bs = np.asarray(bs_position, dtype=float)
    if n_slots == 2:
        d_ur, d_rb = link_distances(pts, users, bs)
        return replace(state, u_slack=d_ur, v_slack=d_rb,
                       objective=gain_field.proxy(d_ur, d_rb))

    free = list(range(1, n_slots - 1))
    a_eff, b_pos, b_neg = _collapse_weights(state, gain_field)
    k1, k2 = gain_field.kappa1, gain_field.kappa2
    h1, h2 = 0.5 * k1, 0.5 * k2

    # variable layout: per free slot (qx, qy), then included slacks
    qx_of = {}
    u_of = {}
    v_of = {}
    dim = 0
    for l in free:
        qx_of[l] = dim
        dim += 2
    for l in free:
        # a pure b<0 pull has no linear term to bound its slack from above;
        # such pairs keep their gain frozen instead of entering the program
        pulled = a_eff[l] + b_pos[l] > 0.0
        if np.any(pulled):
            v_of[l] = dim
            dim += 1
            for u in np.flatnonzero(pulled):
                u_of[(l, int(u))] = dim
                dim += 1

    lin = np.zeros(dim)
    const = 0.0
    exact_iu, exact_iv, exact_coef = [], [], []  # kept-exact convex cross terms
    for (l, u), iu in u_of.items():
        iv = v_of[l]
        u0 = float(state.u_slack[l, u])
        v0 = float(state.v_slack[l])
        (fa, dau, dav), (fb, dbu, dbv) = linearize_gain_terms(
            a_eff[l, u], b_pos[l, u], u0, v0, k1, k2)
        lin[iu] -= dau + dbu
        lin[iv] -= dav + dbv
        const += -(fa + fb) + (dau + dbu) * u0 + (dav + dbv) * v0
        if b_neg[l, u] > 0.0:
            exact_iu.append(iu)
            exact_iv.append(iv)
            exact_coef.append(float(b_neg[l, u]))
    eu = np.asarray(exact_iu, dtype=int)
    ev = np.asarray(exact_iv, dtype=int)
    ec = np.asarray(exact_coef)

    def raw_objective(x):
        val = const + float(lin @ x)
        grad = lin.copy()
        hess = np.zeros((dim, dim))
        if eu.size:
            uu, vv = x[eu], x[ev]
            if np.any(uu <= 0.0) or np.any(vv <= 0.0):
                # line-search probe outside the distance cone; the barrier
                # rejects such points, only the (infinite) value matters
                return np.inf, grad, hess
            f = ec * uu ** -h1 * vv ** -h2
            val += float(f.sum())
            np.add.at(grad, eu, -h1 * f / uu)
            np.add.at(grad, ev, -h2 * f / vv)
            cross = h1 * h2 * f / (uu * vv)
            np.add.at(hess, (eu, eu), h1 * (h1 + 1.0) * f / uu ** 2)
            np.add.at(hess, (ev, ev), h2 * (h2 + 1.0) * f / vv ** 2)
            np.add.at(hess, (eu, ev), cross)
            np.add.at(hess, (ev, eu), cross)
        return val, grad, hess

    # constraint system: slack surrogates then step-length disks, as arrays
    sq, si, stx, sty, sz2, ss0 = [], [], [], [], [], []
    for (l, u), iu in u_of.items():
        sq.append(qx_of[l])
        si.append(iu)
        stx.append(users[u, 0])
        sty.append(users[u, 1])
        sz2.append((pts[l, 2] - users[u, 2]) ** 2)
        ss0.append(float(state.u_slack[l, u]))
    for l, iv in v_of.items():
        sq.append(qx_of[l])
        si.append(iv)
        stx.append(bs[0])
        sty.append(bs[1])
        sz2.append((pts[l, 2] - bs[2]) ** 2)
        ss0.append(float(state.v_slack[l]))
    sq = np.asarray(sq, dtype=int)
    si = np.asarray(si, dtype=int)
    stx, sty = np.asarray(stx), np.asarray(sty)
    sz2, ss0 = np.asarray(sz2), np.asarray(ss0)
    ks = sq.size

    ia = np.array([qx_of.get(l, -1) for l in range(n_slots - 1)], dtype=int)
    ib = np.array([qx_of.get(l + 1, -1) for l in range(n_slots - 1)], dtype=int)
    pa = pts[:-1, :2].copy()
    pb = pts[1:, :2].copy()
    free_a, free_b = ia >= 0, ib >= 0
    n_steps = ia.size
    m = ks + n_steps
    limit2 = float(max_step) ** 2

    hess_bank = np.zeros((m, dim, dim))
    rows_s = np.arange(ks)
    hess_bank[rows_s, sq, sq] = 2.0
    hess_bank[rows_s, sq + 1, sq + 1] = 2.0
    for i in range(n_steps):
        r = ks + i
        for idx, here in ((ia[i], free_a[i]), (ib[i], free_b[i])):
            if here:
                hess_bank[r, idx, idx] = hess_bank[r, idx + 1, idx + 1] = 2.0
        if free_a[i] and free_b[i]:
            for off in (0, 1):
                hess_bank[r, ia[i] + off, ib[i] + off] = -2.0
                hess_bank[r, ib[i] + off, ia[i] + off] = -2.0

    step_rows = ks + np.arange(n_steps)

    def pack(x, want_derivs):
        f = np.empty(m)
        dxs = x[sq] - stx
        dys = x[sq + 1] - sty
        f[:ks] = dxs * dxs + dys * dys + sz2 + ss0 * ss0 - 2.0 * ss0 * x[si]
        ax = np.where(free_a, x[np.maximum(ia, 0)], pa[:, 0])
        ay = np.where(free_a, x[np.maximum(ia, 0) + 1], pa[:, 1])
        bx = np.where(free_b, x[np.maximum(ib, 0)], pb[:, 0])
        by = np.where(free_b, x[np.maximum(ib, 0) + 1], pb[:, 1])
        dxt, dyt = bx - ax, by - ay
        f[ks:] = dxt * dxt + dyt * dyt - limit2
        if not want_derivs:
            return f
        g = np.zeros((m, dim))
        g[rows_s, sq] = 2.0 * dxs
        g[rows_s, sq + 1] = 2.0 * dys
        g[rows_s, si] = -2.0 * ss0
        g[step_rows[free_a], ia[free_a]] = -2.0 * dxt[free_a]
        g[step_rows[free_a], ia[free_a] + 1] = -2.0 * dyt[free_a]
        g[step_rows[free_b], ib[free_b]] = 2.0 * dxt[free_b]
        g[step_rows[free_b], ib[free_b] + 1] = 2.0 * dyt[free_b]
        return f, g, lambda coeffs: np.einsum("m,mij->ij", coeffs, hess_bank)

    x0 = np.zeros(dim)
    for l in free:
        x0[qx_of[l]: qx_of[l] + 2] = pts[l, :2]
    for (l, u), iu in u_of.items():
        x0[iu] = state.u_slack[l, u]
    for l, iv in v_of.items():
        x0[iv] = state.v_slack[l]

    # rescale so the barrier works on an O(1)-gradient objective regardless
    # of the physical magnitudes of the collapsed weights
    scale = max(float(np.max(np.abs(raw_objective(x0)[1]), initial=0.0)), 1e-300)

    def objective(x):
        val, grad, hess = raw_objective(x)
        return val / scale, grad / scale, hess / scale

    prog = ConvexProgram(dim=dim, objective=objective, constraint_pack=pack)
    try:
        sol = solve_convex_program(prog, x0, tol=barrier_tol, t0=t0,
                                   t_growth=4.0, max_newton=600)
    except ConvexSolverError as exc:
        warnings.warn(f"path subproblem failed, keeping current waypoints: {exc}",
                      RuntimeWarning, stacklevel=2)
        return state

    new_pts = pts.copy()
    for l in free:
        new_pts[l, :2] = sol[qx_of[l]: qx_of[l] + 2]
    d_ur, d_rb = link_distances(new_pts, users, bs)
    u_slack = d_ur * (1.0 + SLACK_LIFT)
    v_slack = d_rb * (1.0 + SLACK_LIFT)
    for (l, u), iu in u_of.items():
        u_slack[l, u] = sol[iu]
    for l, iv in v_of.items():
        v_slack[l] = sol[iv]
    return ScaState(new_pts, u_slack, v_slack, state.x_aux,
                    gain_field.proxy(d_ur, d_rb), surrogate=raw_objective(sol)[0])


def optimize_trajectory(points, gain_field, user_positions, bs_position, max_step,
                        eps5=1e-4, max_x_rounds=30, max_sca_iters=50,
                        barrier_tol=1e-8, history=None):
    """Full alternating loop over ratio weights and waypoint refinements.

    points: (N_T, 3) current waypoints (endpoints treated as pinned).
    history, when a list, collects the frozen-fading proxy after every
    accepted inner iteration.  Returns a Trajectory that never scores worse
    than the input on the frozen-fading proxy.
    """
    state = make_sca_state(points, gain_field, user_positions, bs_position)
    if history is not None:
        history.append(state.objective)
    x_prev = None
    for _ in range(max_x_rounds):
        d_ur, d_rb = link_distances(state.points, user_positions, bs_position)
        gains = gain_field.gains(d_ur, d_rb)
        x_aux = np.zeros_like(state.x_aux)
        mask = np.asarray(gain_field.delta) > 0
        if np.any(mask):
            x_aux[mask] = quad_transform_y(gain_field.c_un[mask], gains[mask])
        if x_prev is not None:
            drift = float(np.linalg.norm(x_aux - x_prev))
            if drift <= eps5 * max(1e-300, float(np.linalg.norm(x_prev))):
                break
        x_prev = x_aux
        state = replace(state, x_aux=x_aux)

        # no barrier warm start here: accepted iterates ride the speed-limit
        # boundary, where a restarted high-t barrier stalls
        for _ in range(max_sca_iters):
            new_state = sca_step(state, gain_field, user_positions, bs_position,
                                 max_step, barrier_tol=barrier_tol)
            if new_state is state:
                break
            prev = state.objective
            if new_state.objective > prev * (1.0 + 1e-12):
                break  # surrogate descent did not carry to the true proxy
            moved = float(np.max(np.abs(new_state.points - state.points)))
            state = new_state
            if history is not None:
                history.append(state.objective)
            if moved <= 1e-9 or prev - state.objective <= 1e-6 * prev:
                break
    return Trajectory(state.points)
