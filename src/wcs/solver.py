"""Weighted l1 minimization over complex vectors.

solve_weighted_bp handles the equality-constrained program, and
solve_weighted_bpdn the noisy variant with an l2 ball constraint. Both run
the same loop: Douglas-Rachford splitting between a weighted complex
soft-threshold and an exact Euclidean projection onto the constraint set,
computed from a single SVD of the sensing matrix. For a positive noise
radius the projection's Lagrange multiplier solves a scalar secular
equation; a safeguarded Newton iteration finds it, warm-started from the
previous iteration's multiplier, with brentq on the held bracket as the
fallback.

The splitting map is accelerated by safeguarded type-II Anderson
extrapolation with memory 5 (Fu, Zhang and Boyd, SIAM J. Sci. Comput.
42(6), 2020): an extrapolated point is kept only if its fixed-point
residual is no larger than the current one, otherwise the plain step is
taken and the memory cleared. A support polish (as in OSQP, Stellato et
al., Math. Prog. Comp. 12, 2020) solves the program restricted to the
support of a sparse point in closed form and stops the solve if a KKT
certificate proves the result optimal; diagnostics["certified"] says so.
The certificate is sound on any candidate, so every evaluated point is one,
a rejected extrapolation included. On real data the polish depends only on
the support and the signs, and each such pattern is polished once per
solve. Complex phases move inside a fixed support, so complex data is
polished every 20 evaluations and when the stopping rule is met. Without a
certificate the loop ends by its fixed-point and objective tolerances, as
plain Douglas-Rachford does.
Initialization is fixed at zero and the scheme is deterministic. The
outcome's diagnostics also count polish attempts, rejected extrapolations,
secular-equation evaluations and root-find fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dposv
from scipy.optimize import brentq

from .core import as_matrix, as_weights

__all__ = [
    "ConvergenceError",
    "InfeasibleProblemError",
    "SolverOutcome",
    "complex_soft_threshold",
    "solve_weighted_bp",
    "solve_weighted_bpdn",
]

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
_ANDERSON_MEMORY = 5
_POLISH_EVERY = 20
# relative slack of the certificate's stationarity and dual feasibility
# checks; a phase error enters the duality gap squared
_KKT_TOL = 1e-9
_PHASE_TOL = 1e-5
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class InfeasibleProblemError(ValueError):
    """The measurement vector cannot be matched within the noise radius."""


class ConvergenceError(RuntimeError):
    """The splitting loop hit the iteration cap before the tolerances."""

    def __init__(self, message: str, outcome: "SolverOutcome"):
        super().__init__(message)
        self.outcome = outcome


@dataclass
class SolverOutcome:
    """Solution of a weighted l1 program with convergence diagnostics."""

    x: np.ndarray
    objective: float
    residual: float
    iterations: int
    converged: bool
    epsilon: float
    feasibility_gap: float
    zero_feasible: bool = False
    diagnostics: dict[str, Any] = field(default_factory=dict)


def complex_soft_threshold(z, tau) -> np.ndarray:
    """Shrink each modulus by tau_i, keeping the phase; zero stays zero."""
    z = np.asarray(z)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), z.shape)
    if np.any(tau < 0):
        raise ValueError("thresholds must be nonnegative")
    return _shrink(z, tau)


def _shrink(z: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """complex_soft_threshold without its checks; tau must be nonnegative."""
    mag = np.abs(z)
    keep = mag > tau
    # where nothing is kept the factor is 1 - 1 = 0, so the entry becomes 0 * z
    scale = np.divide(tau, mag, out=np.ones(mag.shape), where=keep)
    return (1.0 - scale) * z


class _ConstraintProjector:
    """Exact projection onto {z : ||Az - y||_2 <= eps} from one SVD of A.

    Corrections live in the row space; the radial part reduces to a scalar
    root find on the Lagrange multiplier lam of the secular equation
    ||r(lam)|| = eps_eff with r_i(lam) = b_i / (1 + lam s_i^2). eps = 0
    degenerates to the affine projection onto {Az = y}.

    The root find is a safeguarded Newton iteration on the concave, increasing
    phi(lam) = 1/||r(lam)|| - 1/eps_eff (More & Sorensen, "Computing a trust
    region step", 1983), started from the multiplier of the previous call. It
    keeps a bracket and bisects when a step leaves it, and hands the bracket
    to brentq if it has not converged after NEWTON_STEPS evaluations. One
    instance serves one solve, so the warm start is never shared.
    """

    NEWTON_STEPS = 8
    RTOL = 1e-14

    def __init__(self, A: np.ndarray, y: np.ndarray, eps: float):
        U, sv, Vh = np.linalg.svd(A, full_matrices=False)
        rank_tol = max(A.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
        r = int(np.sum(sv > rank_tol))
        self.U = U[:, :r]
        self.sv = sv[:r]
        self.s2 = self.sv**2
        self.Vh = Vh[:r, :]
        self.V = self.Vh.conj().T
        self.spectral_norm = float(sv[0]) if sv.size else 0.0
        # component of y outside range(A) is unreachable by any Az
        y_range_coef = self.U.conj().T @ y
        y_perp = y - self.U @ y_range_coef
        self.y_perp_norm = float(np.linalg.norm(y_perp))
        self.y_range_coef = y_range_coef
        if self.y_perp_norm > eps + DEFAULT_FEAS_TOL * (1.0 + np.linalg.norm(y)):
            raise InfeasibleProblemError(
                f"no vector reaches the measurements within radius {eps}: "
                f"the out-of-range residual is {self.y_perp_norm:.3e}"
            )
        self.eps_eff = float(np.sqrt(max(eps**2 - self.y_perp_norm**2, 0.0)))
        self.lam: float | None = None  # multiplier of the last call, the warm start
        self.evals = 0  # secular-equation evaluations, brentq's included
        self.fallbacks = 0  # calls that finished with brentq

    def __call__(self, x: np.ndarray) -> np.ndarray:
        sv = self.sv
        b = sv * (self.Vh @ x) - self.y_range_coef
        b2 = (b.conj() * b).real
        b2sum = float(b2.sum())
        if b2sum <= self.eps_eff**2:
            return x
        if self.eps_eff <= 0.0:
            t = -b / sv
        else:
            lam = self._multiplier(b2, b2sum)
            t = -(lam * sv * b) / (1.0 + lam * self.s2)
        return x + self.V @ t

    def _multiplier(self, b2: np.ndarray, b2sum: float) -> float:
        """The root of ||r(lam)|| = eps_eff, given |b_i|^2 with ||b|| > eps_eff."""
        s2, eps = self.s2, self.eps_eff
        ratio = math.sqrt(b2sum) / eps
        # ||b|| / (1 + lam s_max^2) <= ||r(lam)|| <= ||b|| / (1 + lam s_min^2),
        # so the root is at least lam0, and ||r(hi)|| <= eps_eff / 2
        lam0 = (ratio - 1.0) / float(s2[0])
        lo, hi = 0.0, 2.0 * ratio / float(s2[-1])
        lam = self.lam if self.lam is not None and lo < self.lam < hi else lam0

        def radius(lam_: float) -> tuple[float, np.ndarray, np.ndarray]:
            self.evals += 1
            inv = 1.0 / (1.0 + lam_ * s2)
            r2 = b2 * inv * inv
            return math.sqrt(r2.sum()), r2, inv

        for _ in range(self.NEWTON_STEPS):
            rho, r2, inv = radius(lam)
            if rho > eps:
                lo = lam
            else:
                hi = lam
            # the Newton step -phi/phi' is (rho/eps - 1) n / q, where n = rho^2
            # and q = -n'/2 = sum r_i^2 s_i^2 / (1 + lam s_i^2)
            step = (rho / eps - 1.0) * rho * rho / float(r2 @ (s2 * inv))
            new = lam + step
            if abs(step) <= self.RTOL * new or abs(rho / eps - 1.0) <= 4.0 * _EPS:
                self.lam = new
                return new
            lam = new if lo < new < hi else 0.5 * (lo + hi)

        # a tiny xtol leaves brentq the same relative tolerance as Newton
        self.fallbacks += 1
        self.lam = brentq(
            lambda l: radius(l)[0] - eps, lo, hi, xtol=_TINY, rtol=self.RTOL, maxiter=200
        )
        return self.lam


def _objective(z: np.ndarray, w: np.ndarray) -> float:
    return float(w @ np.abs(z))


def _norm(z: np.ndarray) -> float:
    return math.sqrt(np.vdot(z, z).real)


class _Anderson:
    """Type-II Anderson extrapolation of a fixed-point iteration x -> g(x) = x + f(x).

    Holds the last _ANDERSON_MEMORY differences of residuals (df) and of map
    values (dg) in ring buffers. The coefficients minimise ||f - dF gamma||
    over real gamma; complex data is fitted over its real view, so the Gram
    matrix stays real and small. One instance serves one solve.
    """

    def __init__(self, n: int, dtype):
        self.df = np.zeros((_ANDERSON_MEMORY, n), dtype=dtype)
        self.dg = np.zeros((_ANDERSON_MEMORY, n), dtype=dtype)
        # complex rows viewed as interleaved real and imaginary parts
        self.df_real = self.df.view(float)
        self.size = 0
        self.head = 0

    def clear(self) -> None:
        self.size = self.head = 0

    def push(self, dx: np.ndarray, df: np.ndarray) -> None:
        """Record the step dx between two iterates and the change df of their residuals."""
        self.df[self.head] = df
        np.add(dx, df, out=self.dg[self.head])
        self.head = (self.head + 1) % _ANDERSON_MEMORY
        self.size = min(self.size + 1, _ANDERSON_MEMORY)

    def step(self, x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, bool]:
        """The next point to evaluate, and whether it is extrapolated."""
        plain = x + f
        if self.size == 0:
            return plain, False
        dF = self.df_real[: self.size]
        _, gamma, info = dposv(dF @ dF.T, dF @ f.view(float))
        if info != 0 or not math.isfinite(gamma.sum()):
            return plain, False
        return plain - gamma @ self.dg[: self.size], True


def _polish(A, y, w, eps, z, res_tol) -> np.ndarray | None:
    """The minimiser on the support of z, if a KKT certificate proves it optimal.

    With S = supp(z), sigma = z_S / |z_S| and c = w_S sigma, the candidate is
    x_S = A_S^+ y for eps = 0 and otherwise the minimiser of Re<c, x_S> over
    ||A_S x_S - y|| <= eps. It is accepted only if its phases match sigma,
    t (A^H r)_S = -c for some t > 0 (for eps = 0, A_S^H u = c for the
    least-norm u), |t (A^H r)_j| <= w_j off S, and the residual is within
    res_tol of eps. These conditions bound the relative duality gap by about
    _KKT_TOL. Returns None when |S| > m, when the Cholesky factorization of
    A_S^H A_S fails, or when a check fails; a rank-deficient A_S whose
    factorization survives rounding yields a point that fails the checks.
    """
    S = np.flatnonzero(z)
    if S.size == 0 or S.size > A.shape[0]:
        return None
    sigma = z[S] / np.abs(z[S])
    c = w[S] * sigma
    AS = A[:, S]
    G = AS.conj().T @ AS
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    Ginv_c, xS = cho_solve((L, True), np.stack([c, AS.conj().T @ y], axis=1), check_finite=False).T
    if eps > 0:
        rho2 = eps**2 - _norm(AS @ xS - y) ** 2
        kappa2 = np.vdot(c, Ginv_c).real
        if rho2 <= 0 or kappa2 <= 0:
            return None
        xS = xS - math.sqrt(rho2 / kappa2) * Ginv_c
    mag = np.abs(xS)
    if not np.all(mag > 0) or np.max(np.abs(xS / mag - sigma)) > _PHASE_TOL:
        return None
    r = AS @ xS - y
    if _norm(r) > eps + res_tol:
        return None
    if eps > 0:
        g = -(A.conj().T @ r)
        t = np.vdot(g[S], c).real / np.vdot(g[S], g[S]).real
    else:
        g = A.conj().T @ (AS @ Ginv_c)
        t = 1.0
    if not t > 0 or _norm(t * g[S] - c) > _KKT_TOL * _norm(c):
        return None
    violated = t * np.abs(g) > w * (1.0 + _KKT_TOL)
    violated[S] = False
    if np.any(violated):
        return None
    x = np.zeros(w.size, dtype=A.dtype)
    x[S] = xS
    return x


def solve_weighted_bpdn(
    A,
    y,
    w,
    epsilon: float,
    rel_tol: float = DEFAULT_REL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolverOutcome:
    """Minimize ||z||_{w,1} subject to ||Az - y||_2 <= epsilon.

    Anderson-accelerated Douglas-Rachford splitting between the weighted
    soft-threshold and the exact constraint projection, with a support
    polish of evaluated points that stops the solve once a KKT certificate
    holds. The proximal scale comes from the measured largest singular
    value, so the run is fully determined by the inputs. Each iteration is
    one evaluation of the splitting map. A solve that hits max_iter raises
    ConvergenceError, which carries the outcome.
    """
    A = as_matrix(A)
    y = np.asarray(y).ravel()
    m, n = A.shape
    if y.size != m:
        raise ValueError(f"measurement vector has length {y.size}, expected {m}")
    prof = as_weights(w, n)
    if epsilon < 0:
        raise ValueError("noise radius must be nonnegative")

    complex_data = np.iscomplexobj(A) or np.iscomplexobj(y)
    dtype = complex if complex_data else float
    A = A.astype(dtype)
    y = y.astype(dtype)

    ynorm = float(np.linalg.norm(y))
    if epsilon >= ynorm:
        # the origin is already feasible and has the smallest possible objective
        return SolverOutcome(
            x=np.zeros(n, dtype=dtype),
            objective=0.0,
            residual=ynorm,
            iterations=0,
            converged=True,
            epsilon=epsilon,
            feasibility_gap=0.0,
            zero_feasible=True,
        )

    project = _ConstraintProjector(A, y, epsilon)
    mu = 1.0 / project.spectral_norm if project.spectral_norm > 0 else 1.0
    # WeightProfile holds positive finite weights and mu > 0, so the
    # thresholds are valid and the loop can shrink without checking them
    tau = mu * prof.w
    res_tol = DEFAULT_FEAS_TOL * (1.0 + ynorm)

    anderson = _Anderson(n, dtype)
    point = np.zeros(n, dtype=dtype)  # where the map is evaluated next
    extrapolated = False
    wv = fx = z = v = point  # the current iterate, its residual and its parts
    gap = np.inf
    polished = None
    tried: set[bytes] = set()  # the real sign patterns already polished
    polish_attempts = rejects = 0

    def attempt(cand: np.ndarray) -> np.ndarray | None:
        """Polish cand if it is due: a new sign pattern on real data, and on
        complex data every _POLISH_EVERY evaluations and at the stopping rule."""
        nonlocal polish_attempts
        if complex_data:
            if not (converged or it % _POLISH_EVERY == 0):
                return None
        else:
            key = np.sign(cand).astype(np.int8).tobytes()
            if key in tried:
                return None
            tried.add(key)
        polish_attempts += 1
        return _polish(A, y, prof.w, epsilon, cand, res_tol)

    prev_obj = np.inf
    converged = False
    it = 0
    # the fixed-point gap overestimates how close the objective is to
    # optimal, so the uncertified stop uses a stricter internal threshold
    inner_tol = 0.02 * rel_tol
    for it in range(1, max_iter + 1):
        z_new = _shrink(point, tau)
        v_new = project(2.0 * z_new - point)
        f = v_new - z_new
        gap_new = _norm(f)
        accepted = not extrapolated or gap_new <= gap
        if accepted:
            if it > 1:
                anderson.push(point - wv, f - fx)
            wv, fx, z, v, gap = point, f, z_new, v_new, gap_new
            obj = _objective(v, prof.w)
            scale = 1.0 + _norm(z)
            converged = gap <= inner_tol * scale and abs(obj - prev_obj) <= inner_tol * (1.0 + obj)
            prev_obj = obj
        else:
            # the safeguard: fall back to the plain step and forget the history
            rejects += 1
            anderson.clear()
        # the certificate is sound on any point, so every evaluated one is a
        # candidate, a rejected extrapolation included
        polished = attempt(z_new)
        if polished is not None:
            converged = True
            # an entry at rounding level took its sign from rounding; without
            # it the point is exactly sparse if it certifies as well
            mag = np.abs(polished)
            faint = (mag > 0) & (mag <= _KKT_TOL * mag.max())
            if faint.any():
                sparser = attempt(np.where(faint, 0, z_new))
                polished = polished if sparser is None else sparser
        if converged:
            break
        point, extrapolated = anderson.step(wv, fx) if accepted else (wv + fx, False)

    if polished is not None:
        x = polished
        objective = _objective(x, prof.w)
        residual = float(np.linalg.norm(A @ x - y))
    else:
        # v is feasible by construction; z is the sparse iterate and may be
        # slightly infeasible but lower in objective
        res_z = float(np.linalg.norm(A @ z - y))
        candidates = [(v, _objective(v, prof.w), float(np.linalg.norm(A @ v - y)))]
        if res_z <= epsilon + res_tol:
            candidates.append((z, _objective(z, prof.w), res_z))
        x, objective, residual = min(candidates, key=lambda c: c[1])

    outcome = SolverOutcome(
        x=x,
        objective=objective,
        residual=residual,
        iterations=it,
        converged=converged,
        epsilon=epsilon,
        feasibility_gap=max(residual - epsilon, 0.0),
        diagnostics={
            "prox_scale": mu,
            "gap": gap,
            "certified": polished is not None,
            "polish_attempts": polish_attempts,
            "anderson_rejects": rejects,
            "projection_evals": project.evals,
            "rootfind_fallbacks": project.fallbacks,
        },
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(gap {gap:.3e}, residual {residual:.6e} for radius {epsilon:.6e})",
            outcome,
        )
    return outcome


def solve_weighted_bp(
    A,
    y,
    w,
    rel_tol: float = DEFAULT_REL_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolverOutcome:
    """Minimize ||z||_{w,1} subject to Az = y (noise radius zero)."""
    A = as_matrix(A)
    if A.shape[0] > A.shape[1]:
        raise ValueError(
            f"equality-constrained recovery expects m <= N, got shape {A.shape}"
        )
    return solve_weighted_bpdn(
        A,
        y,
        w,
        epsilon=0.0,
        rel_tol=rel_tol,
        max_iter=max_iter,
    )
