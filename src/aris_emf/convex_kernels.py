"""In-house numerical kernels shared by the optimizer blocks.

Three tools, all dense and dimension-modest:

* a primal-dual path-following solver for the unit-diagonal semidefinite
  relaxation (Hermitian matrices handled in complex arithmetic directly),
* a log-barrier method for small smooth inequality-constrained convex
  programs,
* bisection to a relative bracket width, returning the end on hi's side.

Everything here is deterministic: no randomized pivoting, no global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SdpError(RuntimeError):
    """Semidefinite solve failed (max iterations or numerical breakdown)."""


class ConvexSolverError(RuntimeError):
    """Barrier solve failed (infeasible start or line-search breakdown)."""


# ---------------------------------------------------------------------------
# semidefinite programming
# ---------------------------------------------------------------------------

MAX_SDP_DIM = 256


@dataclass(frozen=True)
class SdpProblem:
    """maximize tr(R X) subject to X_ii = 1 and X positive semidefinite."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("objective matrix must be square")
        if not np.all(np.isfinite(r)):
            raise ValueError("objective matrix has non-finite entries")
        herm_err = np.max(np.abs(r - r.conj().T))
        scale = max(1.0, float(np.max(np.abs(r))))
        if herm_err > 1e-12 * scale:
            raise ValueError(f"objective matrix is not Hermitian (asymmetry {herm_err:.3g})")
        object.__setattr__(self, "r", 0.5 * (r + r.conj().T))


def _min_eig_ratio(inv_l, delta):
    """Largest step a with x + a*delta staying PSD, given any inv_l with
    inv_l^H inv_l = x^-1 (inv(chol(x)) or x^-1/2)."""
    c = inv_l @ delta @ inv_l.conj().T
    lo = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
    if lo >= -1e-300:
        return np.inf
    return -1.0 / lo


def _herm_sqrt(a):
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def solve_sdp(problem, tol=1e-7, max_iter=100):
    """Solve the unit-diagonal SDP relaxation.

    Returns (X, value). The dual variable is diagonal as the constraints are
    coordinate projections, which reduces the Newton system to a real
    positive-definite solve with matrix |W|^2 (W the scaling point).
    """
    if not isinstance(problem, SdpProblem):
        problem = SdpProblem(problem)
    n = problem.r.shape[0]
    if n > MAX_SDP_DIM:
        raise ValueError(f"SDP dimension {n} exceeds the configured maximum {MAX_SDP_DIM}")

    # normalize the objective so iteration behavior is scale-free; the gap
    # criterion in original units only tightens under this change
    r_scale = max(float(np.max(np.abs(problem.r))), 1e-300)
    r = problem.r / r_scale

    x = np.eye(n, dtype=complex)
    lam_max = float(np.linalg.eigvalsh(r)[-1])
    y = np.full(n, lam_max + 1.0)
    s = np.diag(y) - r
    tau = 0.98

    def solve_direction(w_mat, m_fact, target):
        # diag(W diag(dy) W) = diag(target) - rp  with  dX = target - W diag(dy) W
        rp = 1.0 - np.diag(x).real
        rhs = np.diag(target).real - rp
        dy = np.linalg.solve(m_fact, rhs)
        ds = np.diag(dy).astype(complex)
        dx = target - w_mat @ ds @ w_mat
        dx = 0.5 * (dx + dx.conj().T)
        return dx, dy, ds

    for it in range(max_iter):
        gap = float(np.vdot(x, s).real)
        value = float(np.vdot(r, x).real)
        rp_inf = float(np.max(np.abs(1.0 - np.diag(x).real)))
        if rp_inf <= tol and gap <= tol * (1.0 + abs(value)):
            return 0.5 * (x + x.conj().T), value * r_scale

        mu = gap / n
        try:
            # NT scaling point W = S^-1/2 (S^1/2 X S^1/2)^1/2 S^-1/2
            ws, vs = np.linalg.eigh(s)
            if ws[0] <= 0:
                raise SdpError(f"dual iterate lost definiteness (min eig {ws[0]:.3g}, "
                               f"gap {gap:.3g}, primal residual {rp_inf:.3g})")
            s_half = (vs * np.sqrt(ws)) @ vs.conj().T
            s_ihalf = (vs / np.sqrt(ws)) @ vs.conj().T
            w_mat = s_ihalf @ _herm_sqrt(s_half @ x @ s_half) @ s_ihalf
            w_mat = 0.5 * (w_mat + w_mat.conj().T)
            m_mat = np.abs(w_mat) ** 2
            m_fact = m_mat + 1e-15 * np.eye(n) * max(1.0, m_mat.max())
            s_inv = (vs / ws) @ vs.conj().T
            x_il = np.linalg.inv(np.linalg.cholesky(0.5 * (x + x.conj().T)))

            # predictor
            dx_a, dy_a, ds_a = solve_direction(w_mat, m_fact, -x)
            ap = min(1.0, tau * _min_eig_ratio(x_il, dx_a))
            ad = min(1.0, tau * _min_eig_ratio(s_ihalf, ds_a))
            mu_aff = float(np.vdot(x + ap * dx_a, s + ad * ds_a).real) / n
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-4, 0.99))

            # corrector
            target = sigma * mu * s_inv - x
            dx, dy, ds = solve_direction(w_mat, m_fact, target)
            ap = min(1.0, tau * _min_eig_ratio(x_il, dx))
            ad = min(1.0, tau * _min_eig_ratio(s_ihalf, ds))
        except np.linalg.LinAlgError as exc:
            raise SdpError(f"numerical breakdown at iteration {it}: {exc} "
                           f"(gap {gap:.3g}, primal residual {rp_inf:.3g})") from None

        if ap < 1e-13 and ad < 1e-13:
            raise SdpError(f"step collapsed at iteration {it} "
                           f"(gap {gap:.3g}, primal residual {rp_inf:.3g})")
        x = x + ap * dx
        x = 0.5 * (x + x.conj().T)
        y = y + ad * dy
        s = np.diag(y) - r

    gap = float(np.vdot(x, s).real)
    rp_inf = float(np.max(np.abs(1.0 - np.diag(x).real)))
    raise SdpError(f"no convergence in {max_iter} iterations "
                   f"(gap {gap:.3g}, primal residual {rp_inf:.3g})")


# ---------------------------------------------------------------------------
# barrier method for small smooth convex programs
# ---------------------------------------------------------------------------

MAX_NEWTON = 200  # Newton steps per centering before the solve gives up


@dataclass
class ConvexProgram:
    """minimize f0(x) s.t. f_i(x) <= 0.

    The objective and each entry of `constraints` return (value, gradient,
    hessian).  `constraint_pack` gives the constraints as one batched
    callable instead:
        pack(x, True)  -> (f (m,), G (m, dim), hess_mix or None)
        pack(x, False) -> f (m,)
    where G stacks the constraint gradients row-wise and hess_mix(coeffs)
    returns sum_i coeffs[i] * hess f_i as (dim, dim) (None when every
    constraint is affine).  Give one form or the other; the solver turns a
    closure list into a pack.  An optional `objective_value(x)` returns the
    value alone, for the line search's probes.
    """

    dim: int
    objective: callable
    constraints: list = field(default_factory=list)
    constraint_pack: callable = None
    objective_value: callable = None


def _eval(fn, x):
    value, grad, hess = fn(x)
    return value, np.asarray(grad, dtype=float), np.asarray(hess, dtype=float)


def _closure_pack(cons, dim):
    """The constraint-pack form of a closure list."""
    def pack(x, want_derivs):
        triples = [_eval(c, x) for c in cons]
        f = np.array([tr[0] for tr in triples], dtype=float)
        if not want_derivs:
            return f
        g = np.array([tr[1] for tr in triples]).reshape(len(cons), dim)
        hs = np.array([tr[2] for tr in triples]).reshape(len(cons), dim, dim)
        return f, g, lambda coeffs: np.einsum("m,mij->ij", coeffs, hs)
    return pack


def _strictly_feasible(fv):
    """Every constraint value finite and negative (NaN and inf count as
    infeasible, which a comparison with 0 alone would not catch)."""
    return bool(np.all(np.isfinite(fv) & (fv < 0)))


def _step_bound(fvec, gdx):
    """Least alpha at which a constraint rising along the step (G dx > 0)
    has its tangent plane reach 0; inf when none rises."""
    rising = gdx > 0.0
    return float(np.min(-fvec[rising] / gdx[rising])) if rising.any() else np.inf


def solve_convex_program(program, x0, tol=1e-8, return_duals=False,
                         t0=1.0, t_growth=2.0):
    """Log-barrier method (Boyd & Vandenberghe, Convex Optimization, 11.3):
    damped Newton centering on t*f0 - sum(log(-f_i)), with t grown by
    t_growth each round until m/t <= tol.

    Schedule.  A round before the last stops centering once the Newton
    decrement is at most 1e-6*t; the last round centers until the gradient
    of t*f0 clears the requested tolerance.  Between rounds the point moves
    along the central path's tangent to the next t, dx*/dt = -H^-1 grad f0,
    when that lowers the barrier value at the next t.

    Line search.  Backtracking by 0.8 under a 0.3 Armijo slope, started at
    min(1, 0.99*alpha_lin), where alpha_lin is the least -f_i/(G dx)_i over
    rows rising along dx.  A convex f_i lies above its tangent, so
    f_i(x + alpha dx) >= f_i + alpha (G dx)_i >= 0 for every alpha >=
    alpha_lin: the start skips only probes that would leave the feasible set.

    The Newton system gets no ridge: Newton's method is invariant under a
    linear change of variables, and a ridge scaled to the largest Hessian
    entry swamps the soft directions of a badly scaled program (the path
    subproblem's diagonal spans about 12 orders of magnitude).  With
    return_duals=True the result is (x, lam): the inequality
    multipliers lam_i = 1/(t * (-f_i)) at the last barrier weight.  t0 > 1
    starts the barrier schedule further along, useful when x0 is a warm start
    near the optimum; t_growth > 2 trades extra Newton steps per round for
    fewer rounds.
    """
    if t_growth <= 1.0:
        raise ValueError("t_growth must exceed 1")
    x = np.asarray(x0, dtype=float).copy()
    pack = program.constraint_pack
    if pack is not None and program.constraints:
        raise ConvexSolverError("give either constraints or constraint_pack, not both")
    if pack is None:
        pack = _closure_pack(program.constraints, program.dim)

    def ineq_values(xx):
        return np.asarray(pack(xx, False), dtype=float)

    fvals = ineq_values(x)
    m = fvals.size
    if m and not _strictly_feasible(fvals):
        worst = int(np.argmax(np.where(np.isfinite(fvals), fvals, np.inf)))
        raise ConvexSolverError(
            f"infeasible start: constraint {worst} has value {fvals[worst]:.3g} (needs < 0)")

    value_of = program.objective_value or (lambda xx: _eval(program.objective, xx)[0])

    def barrier_value(t, xx):
        # a trial point may leave the constraints' domain (a log of a
        # negative number, say); the NaN or inf that gives is rejected here,
        # so its warning carries no information
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            fv = ineq_values(xx)
            if not _strictly_feasible(fv):
                return np.inf
            return t * value_of(xx) - float(np.sum(np.log(-fv)))

    def line_search(t, phi0, xx, dx, slope, alpha):
        """(alpha, barrier value) of the first probe from alpha down that
        meets the Armijo test, or (0, inf) once alpha falls below 1e-14."""
        while alpha > 1e-14:
            phi = barrier_value(t, xx + alpha * dx)
            if phi <= phi0 + 0.3 * alpha * slope:
                return alpha, phi
            alpha *= 0.8
        return 0.0, np.inf

    t = max(float(t0), 1.0)
    while True:
        final_round = m == 0 or m / t <= tol
        # center at the current t
        for _ in range(MAX_NEWTON):
            f0, g0, h0 = _eval(program.objective, x)
            fvec, gmat, hess_mix = pack(x, True)
            inv = 1.0 / fvec
            scaled = gmat * inv[:, None]
            grad = t * g0 - gmat.T @ inv
            hess = t * h0 + scaled.T @ scaled
            if hess_mix is not None:
                hess = hess + hess_mix(-inv)
            phi0 = t * f0 - float(np.sum(np.log(-fvec)))

            # grad/t is the KKT stationarity residual under the barrier duals;
            # in the last round center until it clears the requested tolerance
            if final_round:
                if np.linalg.norm(grad) / t <= 0.5 * tol * max(1.0, np.linalg.norm(g0)):
                    break

            try:
                dx = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(hess, -grad, rcond=None)[0]

            decrement = float(-grad @ dx)
            if decrement <= (1e-13 if final_round else 1e-6) * max(1.0, t):
                break

            alpha, phi = line_search(t, phi0, x, dx, -decrement,
                                     min(1.0, 0.99 * _step_bound(fvec, gmat @ dx)))
            if alpha == 0.0:
                # steps this small only happen at numerical centering accuracy
                if decrement <= 1e-4 * max(1.0, t):
                    break
                raise ConvexSolverError("line-search failure while centering")
            x = x + alpha * dx
            if phi >= phi0:  # centered as far as the barrier value resolves
                break
        else:
            raise ConvexSolverError("centering did not converge")

        if final_round:
            break
        t_next = t * t_growth
        if decrement <= 1e-6 * max(1.0, t):
            # x is centered and f0, fvec, gmat and hess are its values:
            # follow the central path's tangent to t_next if that lowers the
            # barrier value there
            try:
                dx = (t_next - t) * np.linalg.solve(hess, -g0)
            except np.linalg.LinAlgError:
                dx = np.full_like(x, np.nan)
            if np.all(np.isfinite(dx)):
                alpha = min(1.0, 0.99 * _step_bound(fvec, gmat @ dx))
                if barrier_value(t_next, x + alpha * dx) < phi0 + (t_next - t) * f0:
                    x = x + alpha * dx
        t = t_next
    if return_duals:
        fv = ineq_values(x)
        lam = 1.0 / (t * np.maximum(-fv, 1e-300))
        return x, lam
    return x


def bisect(f, lo, hi, tol=1e-12, max_iter=200):
    """Bisection for a sign-changing f on [lo, hi].

    tol is relative: the search stops once the bracket width is at most
    tol * max(|lo|, |hi|) of the current bracket, or once its midpoint no
    longer splits it in floating point.  The value of f never decides the
    stop, except that a probe where f is exactly zero is returned as is.
    Otherwise the result is the bracket end on the side of the initial hi,
    where f keeps the sign of f(hi); a caller that places the feasible end
    at hi thus always gets a feasible point.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}] (f: {flo:.3g}, {fhi:.3g})")
    hi_positive = fhi > 0
    for _ in range(max_iter):
        if abs(hi - lo) <= tol * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == hi_positive:
            hi = mid
        else:
            lo = mid
    return hi
