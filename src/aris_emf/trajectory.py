"""Successive convex refinement of the relay platform's flight path.

With fading realizations frozen, each link's gain against the platform
position decomposes into pure distance power laws,

    gamma(u, v) = a / (u^k1 * v^k2) + b / sqrt(u^k1 * v^k2) + resid,

with u the user-platform distance, v the platform-base-station distance,
a >= 0 the reflected-path energy, b the reflected/direct cross term, and
resid the direct-path floor.  A round on the exposure proxy
sum_links c^2/gamma fixes the ratio transform's weights x = c/gamma at the
current path and solves one convex subproblem, its slack-relaxed distance
terms tangent-linearized at the current point (b < 0 cross terms, convex in
the minimization, are kept exact).  The alternating optimization runs the
rounds, re-deriving the gain field before each.  Slack lower bounds use the
linearized square trick d^2 + u0^2 - 2*u0*u <= 0, which implies the true
bound u >= d for any expansion point u0.

Positions move only at interior slots; endpoints stay pinned and per-slot
displacement stays within the platform's speed limit.  The moved path is
kept only if the frozen-fading proxy does not rise, so a round never
returns a worse path than it was given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .convex_kernels import ConvexProgram, ConvexSolverError, solve_convex_program
from .ris_phase import quad_transform_y

# A state's slacks, the tangent points of its next subproblem, sit SLACK_LIFT
# (relatively) above the distances they bound.  The subproblem's barrier
# starts the slacks START_LIFT times higher, off the surrogates' boundary:
# from the tangent point each slack row would start at about -2e-6 d^2, and
# the first centering would take 36-68 Newton steps on desk programs, not
# 19-30.
SLACK_LIFT = 1e-6
START_LIFT = 1.1
# How far the subproblem's answer may sit above its optimum in the scaled
# surrogate (the barrier's m/t).  Answers within it are equally valid, so a
# change in the barrier's schedule moves waypoints (by up to 0.2 m on a desk
# round) while the surrogate value moves by less than the tolerance.
BARRIER_TOL = 1e-4


def check_path(points, max_step, start, end):
    """Raises ValueError unless points holds (num_slots >= 2, 3) waypoints
    from `start` to `end` whose every slot move is within max_step."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ValueError(f"expected (num_slots >= 2, 3) waypoints, got {pts.shape}")
    worst = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).max())
    if worst > max_step + 1e-6:
        raise ValueError(f"slot displacement {worst:.6g} m exceeds {max_step:.6g} m")
    if not np.array_equal(pts[0], start):
        raise ValueError("start waypoint is not pinned")
    if not np.array_equal(pts[-1], end):
        raise ValueError("end waypoint is not pinned")


def straight_trajectory(start, end, num_slots):
    """(num_slots, 3) uniformly spaced waypoints on the segment start -> end."""
    frac = np.linspace(0.0, 1.0, num_slots)[:, None]
    return (1.0 - frac) * np.asarray(start, dtype=float) + frac * np.asarray(end, dtype=float)


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

    def weights(self, d_ur, d_rb):
        """Ratio weights x = c / gamma on allocated links, 0 elsewhere."""
        x = np.zeros(np.shape(self.delta))
        mask = np.asarray(self.delta) > 0
        if np.any(mask):
            x[mask] = quad_transform_y(np.asarray(self.c_un)[mask],
                                       self.gains(d_ur, d_rb)[mask])
        return x

    def proxy(self, d_ur, d_rb):
        """sum over allocated links of c^2 / gamma at the given distances."""
        mask = np.asarray(self.delta) > 0
        return float(np.sum(np.asarray(self.c_un)[mask] * self.weights(d_ur, d_rb)[mask]))


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


def make_sca_state(points, gain_field, user_positions, bs_position):
    pts = np.asarray(points, dtype=float)
    d_ur, d_rb = link_distances(pts, user_positions, bs_position)
    return ScaState(pts, d_ur * (1.0 + SLACK_LIFT), d_rb * (1.0 + SLACK_LIFT),
                    gain_field.weights(d_ur, d_rb), gain_field.proxy(d_ur, d_rb))


def _collapse_weights(state, gain_field):
    """Per-(slot, user) effective coefficients under weights delta * x^2."""
    w = np.asarray(gain_field.delta) * state.x_aux ** 2
    a_eff = np.einsum("lun,lun->lu", w, gain_field.a_un)
    b_pos = np.einsum("lun,lun->lu", w, np.maximum(gain_field.b_un, 0.0))
    b_neg = np.einsum("lun,lun->lu", w, np.maximum(-gain_field.b_un, 0.0))
    return a_eff, b_pos, b_neg


def sca_step(state, gain_field, user_positions, bs_position, max_step,
             barrier_tol=BARRIER_TOL):
    """One tangent-linearized subproblem solve.

    The F = N_T - 2 interior waypoints move; the program's variables are
    [q (F, 2) | v of each slot with a pulled user | u of each pulled pair],
    where a (slot, user) pair is pulled when its collapsed reflected energy
    or positive cross term is nonzero.  A pure b < 0 pull has no linear term
    to bound its slack from above, so such pairs keep their gain frozen
    instead of entering the program.  The objective is minus the weighted
    gain sum, its convex terms replaced by their tangent planes at the
    current slacks and its b < 0 cross terms kept exact; the constraints are
    the slack surrogates (one per slack, in variable order) and the
    step-length disks of the N_T - 1 slot moves.

    The state's slacks s0 are the tangent points of the linearization; the
    barrier starts with the waypoints in place and the slacks at
    START_LIFT * s0, strictly inside every slack surrogate, and grows its
    weight 16-fold per round.

    Returns a new ScaState; on solver failure the input state is returned
    unchanged (with a warning).  With no interior slots the waypoints are
    fixed and only the slacks tighten onto the true distances.
    """
    pts = np.asarray(state.points, dtype=float)
    n_slots = pts.shape[0]
    users = np.asarray(user_positions, dtype=float)
    bs = np.asarray(bs_position, dtype=float)
    if n_slots == 2:
        d_ur, d_rb = link_distances(pts, users, bs)
        return replace(state, u_slack=d_ur, v_slack=d_rb,
                       objective=gain_field.proxy(d_ur, d_rb))

    n_free = n_slots - 2
    nq = 2 * n_free
    a_eff, b_pos, b_neg = _collapse_weights(state, gain_field)
    k1, k2 = gain_field.kappa1, gain_field.kappa2
    h1, h2 = 0.5 * k1, 0.5 * k2

    # pulled pairs (interior slot index, user) and the slots that own a v
    pl, pu = np.nonzero((a_eff + b_pos)[1:-1] > 0.0)
    vslots = np.unique(pl)
    nv, n_pairs = vslots.size, pl.size
    dim = nq + nv + n_pairs
    vpos = np.searchsorted(vslots, pl)              # each pair's slot among vslots
    iv = nq + vpos                                  # each pair's v variable
    iu = nq + nv + np.arange(n_pairs)               # each pair's u variable

    u0 = state.u_slack[pl + 1, pu]
    v0 = state.v_slack[pl + 1]
    (fa, dau, dav), (fb, dbu, dbv) = linearize_gain_terms(
        a_eff[pl + 1, pu], b_pos[pl + 1, pu], u0, v0, k1, k2)
    lin = np.zeros(dim)
    lin[iu] = -(dau + dbu)
    lin[nq:nq + nv] = -np.bincount(vpos, dav + dbv, minlength=nv)
    const = float(np.sum(-(fa + fb) + (dau + dbu) * u0 + (dav + dbv) * v0))
    exact = b_neg[pl + 1, pu] > 0.0                 # kept-exact convex cross terms
    eu, ev, ec = iu[exact], iv[exact], b_neg[pl + 1, pu][exact]
    exact_v = vpos[exact]                           # each exact term's v among vslots
    v_diag = (np.arange(nq, nq + nv),) * 2

    def raw_objective(x, want_derivs=True):
        # (value, gradient, Hessian), or the value alone for line-search
        # probes; a probe outside the distance cone, which the barrier
        # rejects, gets an infinite value.  Each exact term owns its u
        # variable, while several may share a v, so v sums go by bincount.
        uu, vv = x[eu], x[ev]
        if (uu <= 0.0).any() or (vv <= 0.0).any():
            return (np.inf, lin, np.zeros((dim, dim))) if want_derivs else np.inf
        f = ec * uu ** -h1 * vv ** -h2
        val = const + float(lin @ x) + float(f.sum())
        if not want_derivs:
            return val
        fu, fv = h1 * f / uu, h2 * f / vv
        grad = lin.copy()
        grad[eu] -= fu
        grad[nq:nq + nv] -= np.bincount(exact_v, fv, minlength=nv)
        hess = np.zeros((dim, dim))
        hess[eu, eu] = (h1 + 1.0) * fu / uu
        hess[v_diag] = np.bincount(exact_v, (h2 + 1.0) * fv / vv, minlength=nv)
        hess[eu, ev] = hess[ev, eu] = h2 * fu / vv
        return val, grad, hess

    # slack surrogates |q - target|^2 + dz^2 + s0^2 - 2 s0 s <= 0, one row per
    # slack variable and in the same order: the v rows, then the u rows
    sl = np.concatenate([vslots, pl])               # interior slot of each row
    target = np.vstack([np.broadcast_to(bs[:2], (nv, 2)), users[pu, :2]])
    dz2 = (pts[sl + 1, 2] - np.concatenate([np.full(nv, bs[2]), users[pu, 2]])) ** 2
    s0 = np.concatenate([state.v_slack[vslots + 1], u0])
    ks = s0.size
    slack_const = dz2 + s0 * s0
    # step disks |D q + pinned ends|^2 <= max_step^2 over the N_T - 1 moves
    diff_mat = np.eye(n_slots - 1, n_free) - np.eye(n_slots - 1, n_free, k=-1)
    m = ks + n_slots - 1
    limit2 = float(max_step) ** 2
    # the Jacobian's slack columns are constant; pack fills in its q entries,
    # 2 (q - target) on the slack rows and +-2 (move) on the step rows
    jac = np.zeros((m, dim))
    jac[np.arange(ks), nq + np.arange(ks)] = -2.0 * s0
    q_rows = np.concatenate([np.arange(ks), ks + np.arange(n_free), ks + 1 + np.arange(n_free)])
    q_cols = 2 * np.concatenate([sl, np.arange(n_free), np.arange(n_free)])
    q_entries = (q_rows * dim + q_cols)[:, None] + np.arange(2)

    path = pts[:, :2].copy()                        # pack writes the interior rows

    def hess_mix(coeffs):
        # kron(2 (diag(S^T c_slack) + D^T diag(c_step) D), I_2) on the q block
        qq = 2.0 * (np.diag(np.bincount(sl, coeffs[:ks], minlength=n_free))
                    + diff_mat.T @ (coeffs[ks:, None] * diff_mat))
        hess = np.zeros((dim, dim))
        hess[0:nq:2, 0:nq:2] = qq
        hess[1:nq:2, 1:nq:2] = qq
        return hess

    def pack(x, want_derivs):
        q = x[:nq].reshape(n_free, 2)
        dq = q[sl] - target
        path[1:-1] = q
        moves = path[1:] - path[:-1]
        f = np.concatenate([(dq * dq).sum(axis=1) + slack_const - 2.0 * s0 * x[nq:],
                            (moves * moves).sum(axis=1) - limit2])
        if not want_derivs:
            return f
        g = jac.copy()
        g.flat[q_entries] = 2.0 * np.concatenate([dq, moves[:-1], -moves[1:]])
        return f, g, hess_mix

    # the barrier starts the slacks above their tangent point (see START_LIFT)
    xt = np.concatenate([pts[1:-1, :2].ravel(), s0])
    x0 = np.concatenate([pts[1:-1, :2].ravel(), START_LIFT * s0])

    # rescale so the barrier works on an O(1)-gradient objective regardless
    # of the physical magnitudes of the collapsed weights
    scale = max(float(np.max(np.abs(raw_objective(xt)[1]), initial=0.0)), 1e-300)

    def objective(x):
        val, grad, hess = raw_objective(x)
        return val / scale, grad / scale, hess / scale

    prog = ConvexProgram(dim=dim, objective=objective, constraint_pack=pack,
                         objective_value=lambda x: raw_objective(x, False) / scale)
    try:
        sol = solve_convex_program(prog, x0, tol=barrier_tol, t_growth=16.0)
    except ConvexSolverError as exc:
        warnings.warn(f"path subproblem failed, keeping current waypoints: {exc}",
                      RuntimeWarning, stacklevel=2)
        return state

    new_pts = pts.copy()
    new_pts[1:-1, :2] = sol[:nq].reshape(n_free, 2)
    d_ur, d_rb = link_distances(new_pts, users, bs)
    u_slack = d_ur * (1.0 + SLACK_LIFT)
    v_slack = d_rb * (1.0 + SLACK_LIFT)
    v_slack[vslots + 1] = sol[nq:nq + nv]
    u_slack[pl + 1, pu] = sol[iu]
    return ScaState(new_pts, u_slack, v_slack, state.x_aux, gain_field.proxy(d_ur, d_rb))


def optimize_trajectory(points, gain_field, user_positions, bs_position, max_step,
                        counters=None):
    """One round from the (N_T, 3) waypoints `points`, endpoints pinned:
    weights and slacks taken there, then one `sca_step`, whose move is kept
    unless it raises the frozen-fading proxy by more than 1e-12 relative.
    The alternating optimization runs the rounds.  counters, when a dict,
    has "sca_iters" raised by one for a kept move and "path_fallbacks" for
    a failed subproblem solve.  Returns (N_T, 3) waypoints."""
    state = make_sca_state(points, gain_field, user_positions, bs_position)
    new_state = sca_step(state, gain_field, user_positions, bs_position, max_step)
    if new_state is state:
        if counters is not None:
            counters["path_fallbacks"] += 1
        return state.points
    if new_state.objective > state.objective * (1.0 + 1e-12):
        return state.points  # surrogate descent did not carry to the true proxy
    if counters is not None:
        counters["sca_iters"] += 1
    return new_state.points
