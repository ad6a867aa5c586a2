"""In-house numerical kernels shared by the optimizer blocks.

Four tools, all dense and dimension-modest:

* a primal-dual path-following solver for the unit-diagonal semidefinite
  relaxation (Hermitian matrices handled in complex arithmetic directly),
* a log-barrier method for small smooth convex programs with optional
  linear equality constraints,
* a damped Newton root-finder that reports divergence instead of looping,
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
        herm_err = np.max(np.abs(r - r.conj().T))
        scale = max(1.0, float(np.max(np.abs(r))))
        if herm_err > 1e-12 * scale:
            raise ValueError(f"objective matrix is not Hermitian (asymmetry {herm_err:.3g})")
        object.__setattr__(self, "r", 0.5 * (r + r.conj().T))


def _min_eig_ratio(inv_l, delta):
    """Largest step a with x + a*delta staying PSD, given inv(chol(x))."""
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

            eye = np.eye(n, dtype=complex)
            x_il = np.linalg.solve(np.linalg.cholesky(0.5 * (x + x.conj().T)), eye)
            s_il = np.linalg.solve(np.linalg.cholesky(0.5 * (s + s.conj().T)), eye)

            # predictor
            dx_a, dy_a, ds_a = solve_direction(w_mat, m_fact, -x)
            ap = min(1.0, tau * _min_eig_ratio(x_il, dx_a))
            ad = min(1.0, tau * _min_eig_ratio(s_il, ds_a))
            mu_aff = float(np.vdot(x + ap * dx_a, s + ad * ds_a).real) / n
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-4, 0.99))

            # corrector
            target = sigma * mu * s_inv - x
            dx, dy, ds = solve_direction(w_mat, m_fact, target)
            ap = min(1.0, tau * _min_eig_ratio(x_il, dx))
            ad = min(1.0, tau * _min_eig_ratio(s_il, ds))
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

@dataclass
class ConvexProgram:
    """minimize f0(x) s.t. f_i(x) <= 0 and A x = b.

    Evaluators return (value, gradient) or (value, gradient, hessian);
    missing Hessians are finite-differenced from the gradient.

    For hot loops with many structured constraints, `constraint_pack`
    replaces the per-constraint closure list with one batched callable:
        pack(x, True)  -> (f (m,), G (m, dim), hess_mix or None)
        pack(x, False) -> f (m,)
    where G stacks the constraint gradients row-wise and
    hess_mix(coeffs) returns sum_i coeffs[i] * hess f_i as (dim, dim)
    (None when every constraint beyond G is curvature-free).
    """

    dim: int
    objective: callable
    constraints: list = field(default_factory=list)
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    constraint_pack: callable = None


def _eval(fn, x):
    out = fn(x)
    if len(out) == 2:
        return out[0], np.asarray(out[1], dtype=float), None
    return out[0], np.asarray(out[1], dtype=float), np.asarray(out[2], dtype=float)


def _fd_hessian(fn, x, grad):
    n = x.size
    h = np.empty((n, n))
    step = 1e-6 * np.maximum(1.0, np.abs(x))
    for j in range(n):
        xp = x.copy()
        xp[j] += step[j]
        gp = np.asarray(fn(xp)[1], dtype=float)
        h[:, j] = (gp - grad) / step[j]
    return 0.5 * (h + h.T)


def _strictly_feasible(fv):
    """Every constraint value finite and negative (NaN and inf count as
    infeasible, which a comparison with 0 alone would not catch)."""
    return bool(np.all(np.isfinite(fv) & (fv < 0)))


def solve_convex_program(program, x0, tol=1e-8, max_newton=200, return_duals=False,
                         t0=1.0, t_growth=2.0):
    """Log-barrier method: barrier weight shrunk (t grown by t_growth) each
    round, damped Newton centering with 0.3/0.8 backtracking.

    With return_duals=True the result is (x, lam, nu): the inequality
    multipliers lam_i = 1/(t * (-f_i)) and equality multipliers nu from the
    last centering step.  t0 > 1 starts the barrier schedule further along,
    useful when x0 is a warm start near the optimum; t_growth > 2 trades
    extra Newton steps per round for fewer rounds.
    """
    if t_growth <= 1.0:
        raise ValueError("t_growth must exceed 1")
    x = np.asarray(x0, dtype=float).copy()
    cons = program.constraints
    pack = program.constraint_pack
    if pack is not None and cons:
        raise ConvexSolverError("give either constraints or constraint_pack, not both")
    a_eq = program.a_eq
    if a_eq is not None:
        a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(program.b_eq, dtype=float)
        if np.max(np.abs(a_eq @ x - b_eq)) > 1e-9 * max(1.0, np.max(np.abs(b_eq))):
            raise ConvexSolverError("infeasible start: equality constraints violated")

    def ineq_values(xx):
        if pack is not None:
            return np.asarray(pack(xx, False), dtype=float)
        return np.array([_eval(c, xx)[0] for c in cons], dtype=float)

    fvals = ineq_values(x)
    m = fvals.size
    if m and not _strictly_feasible(fvals):
        worst = int(np.argmax(np.where(np.isfinite(fvals), fvals, np.inf)))
        raise ConvexSolverError(
            f"infeasible start: constraint {worst} has value {fvals[worst]:.3g} (needs < 0)")

    def barrier_value(t, xx):
        v0 = _eval(program.objective, xx)[0]
        fv = ineq_values(xx)
        if fv.size and not _strictly_feasible(fv):
            return np.inf
        return t * v0 - float(np.sum(np.log(-fv))) if fv.size else t * v0

    t = max(float(t0), 1.0)
    newton_used = 0
    nu = np.zeros(0 if a_eq is None else a_eq.shape[0])
    while True:
        final_round = m == 0 or m / t <= tol
        # center at the current t
        for _ in range(max_newton):
            f0, g0, h0 = _eval(program.objective, x)
            if h0 is None:
                h0 = _fd_hessian(program.objective, x, g0)
            if pack is not None:
                fvec, gmat, hess_mix = pack(x, True)
                fvec = np.asarray(fvec, dtype=float)
                gmat = np.asarray(gmat, dtype=float)
                grad = t * g0 - gmat.T @ (1.0 / fvec)
                hess = t * h0 + (gmat.T * fvec ** -2) @ gmat
                if hess_mix is not None:
                    hess = hess + hess_mix(-1.0 / fvec)
            else:
                grad = t * g0
                hess = t * h0
                for c in cons:
                    fv, gv, hv = _eval(c, x)
                    if hv is None:
                        hv = _fd_hessian(c, x, gv)
                    grad = grad - gv / fv
                    hess = hess + np.outer(gv, gv) / fv ** 2 - hv / fv
            hess = 0.5 * (hess + hess.T)
            ridge = 1e-12 * max(1.0, float(np.max(np.abs(np.diag(hess)))))
            hess = hess + ridge * np.eye(program.dim)

            # grad/t is the KKT stationarity residual under the barrier duals;
            # in the last round center until it clears the requested tolerance
            if final_round and a_eq is None:
                if np.linalg.norm(grad) / t <= 0.5 * tol * max(1.0, np.linalg.norm(g0)):
                    break

            if a_eq is None:
                try:
                    dx = np.linalg.solve(hess, -grad)
                except np.linalg.LinAlgError:
                    dx = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            else:
                k = a_eq.shape[0]
                kkt = np.block([[hess, a_eq.T], [a_eq, np.zeros((k, k))]])
                rhs = np.concatenate([-grad, np.zeros(k)])
                try:
                    sol = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
                dx = sol[:program.dim]
                nu = sol[program.dim:] / t
                if final_round:
                    resid = np.linalg.norm(grad + a_eq.T @ (t * nu)) / t
                    if resid <= 0.5 * tol * max(1.0, np.linalg.norm(g0)):
                        break

            decrement = float(-grad @ dx)
            if decrement <= 1e-13 * max(1.0, t):
                break
            if not final_round and decrement <= 1e-10 * max(1.0, t):
                break

            phi0 = barrier_value(t, x)
            alpha = 1.0
            gd = float(grad @ dx)
            while alpha > 1e-14:
                if barrier_value(t, x + alpha * dx) <= phi0 + 0.3 * alpha * gd:
                    break
                alpha *= 0.8
            else:
                # steps this small only happen at numerical centering accuracy
                if decrement <= 1e-4 * max(1.0, t):
                    break
                raise ConvexSolverError("line-search failure while centering")
            x = x + alpha * dx
            newton_used += 1
        else:
            raise ConvexSolverError("centering did not converge")

        if m == 0 or m / t <= tol:
            break
        t *= t_growth
    if return_duals:
        fv = ineq_values(x)
        lam = 1.0 / (t * np.maximum(-fv, 1e-300))
        return x, lam, nu
    return x


def newton_solve(f, jac, x0, tol=1e-10, max_iter=50, max_halvings=30):
    """Damped Newton for F(x) = 0. Returns (x, converged).

    converged=False signals the caller to fall back to a bracketing method.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    for _ in range(max_iter):
        norm = float(np.linalg.norm(fx))
        if norm <= tol:
            return x, True
        j = np.atleast_2d(np.asarray(jac(x), dtype=float))
        try:
            step = np.linalg.solve(j, -fx)
        except np.linalg.LinAlgError:
            return x, False
        alpha = 1.0
        for _ in range(max_halvings):
            x_new = x + alpha * step
            f_new = np.atleast_1d(np.asarray(f(x_new), dtype=float))
            if np.all(np.isfinite(f_new)) and float(np.linalg.norm(f_new)) < norm:
                x, fx = x_new, f_new
                break
            alpha *= 0.5
        else:
            return x, False
    return x, float(np.linalg.norm(fx)) <= tol


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
