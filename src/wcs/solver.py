"""Weighted l1 minimization over complex vectors.

solve_weighted_bp handles the equality-constrained program, and
solve_weighted_bpdn the noisy variant with an l2 ball constraint. Both run
the same operator-splitting loop: a weighted complex soft-threshold step
alternating with an exact Euclidean projection onto the constraint set,
computed from a single SVD of the sensing matrix. For a positive noise
radius the projection's Lagrange multiplier solves a scalar secular
equation; a safeguarded Newton iteration finds it, warm-started from the
previous iteration's multiplier, with brentq on the held bracket as the
fallback. Initialization is fixed at zero and the scheme is deterministic.
The outcome's diagnostics count the secular-equation evaluations and the
fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
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

    def __init__(self, A: np.ndarray, y: np.ndarray, eps: float, feas_tol: float):
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
        if self.y_perp_norm > eps + feas_tol * (1.0 + np.linalg.norm(y)):
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
    return float(np.sum(w * np.abs(z)))


def solve_weighted_bpdn(
    A,
    y,
    w,
    epsilon: float,
    rel_tol: float = DEFAULT_REL_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    raise_on_nonconvergence: bool = True,
    trace_every: int = 50,
) -> SolverOutcome:
    """Minimize ||z||_{w,1} subject to ||Az - y||_2 <= epsilon.

    Douglas-Rachford splitting between the weighted soft-threshold and the
    exact constraint projection. The proximal scale comes from the measured
    largest singular value, so the run is fully determined by the inputs.
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

    project = _ConstraintProjector(A, y, epsilon, feas_tol)
    mu = 1.0 / project.spectral_norm if project.spectral_norm > 0 else 1.0
    # WeightProfile holds positive finite weights and mu > 0, so the
    # thresholds are valid and the loop can shrink without checking them
    tau = mu * prof.w

    wv = np.zeros(n, dtype=dtype)
    z = np.zeros(n, dtype=dtype)
    v = np.zeros(n, dtype=dtype)
    obj_trace: list[float] = []
    prev_obj = np.inf
    converged = False
    it = 0
    # the fixed-point gap overestimates how close the objective is to
    # optimal, so prefer a stricter internal threshold; if the iteration
    # stalls at its numerical floor inside the documented tolerance for a
    # sustained stretch, accept that instead of spinning to the cap
    inner_tol = 0.02 * rel_tol
    loose_hits = 0
    for it in range(1, max_iter + 1):
        z = _shrink(wv, tau)
        v = project(2.0 * z - wv)
        wv += v - z
        gap = float(np.linalg.norm(v - z))
        obj = _objective(v, prof.w)
        if it % trace_every == 0 or it == 1:
            obj_trace.append(obj)
        scale = 1.0 + float(np.linalg.norm(z))
        if gap <= inner_tol * scale and abs(obj - prev_obj) <= inner_tol * (1.0 + obj):
            converged = True
            break
        loose_hits = loose_hits + 1 if gap <= rel_tol * scale else 0
        if loose_hits >= 1000:
            converged = True
            break
        prev_obj = obj

    # v is feasible by construction; z is the sparse iterate and may be
    # slightly infeasible but lower in objective
    res_z = float(np.linalg.norm(A @ z - y))
    candidates = [(v, _objective(v, prof.w), float(np.linalg.norm(A @ v - y)))]
    if res_z <= epsilon + feas_tol * (1.0 + ynorm):
        candidates.append((z, _objective(z, prof.w), res_z))
    x, objective, residual = min(candidates, key=lambda c: c[1])
    gap = float(np.linalg.norm(v - z))

    outcome = SolverOutcome(
        x=x,
        objective=objective,
        residual=residual,
        iterations=it,
        converged=converged,
        epsilon=epsilon,
        feasibility_gap=max(residual - epsilon, 0.0),
        diagnostics={
            "objective_trace": obj_trace,
            "prox_scale": mu,
            "gap": gap,
            "projection_evals": project.evals,
            "rootfind_fallbacks": project.fallbacks,
        },
    )
    if not converged and raise_on_nonconvergence:
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
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    raise_on_nonconvergence: bool = True,
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
        feas_tol=feas_tol,
        max_iter=max_iter,
        raise_on_nonconvergence=raise_on_nonconvergence,
    )
