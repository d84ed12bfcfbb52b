"""Closed-form constants and error budgets for weighted l1 recovery.

All formulas are evaluated directly in double precision; premise checks
are strict and a violated premise raises instead of returning a value that
the formulas no longer guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_matrix

__all__ = [
    "ErrorBudget",
    "PremiseError",
    "RecoveryConstants",
    "RobustNspConstants",
    "largest_singular_value",
    "operator_norm_bound",
    "recovery_constants_floor_weights",
    "rip_nsp_error_budget",
    "robust_nsp_constants_from_rip",
    "smallest_positive_singular_value",
]


class PremiseError(ValueError):
    """A constant formula was evaluated outside its admissible region."""


def operator_norm_bound(delta: float, n_nu: int) -> float:
    """Upper bound sqrt(N_nu * (1 + delta)) on the operator norm."""
    if not 0 <= delta < 1:
        raise PremiseError(f"isometry constant must lie in [0, 1), got {delta}")
    if n_nu < 1:
        raise PremiseError(f"partition count must be at least 1, got {n_nu}")
    return math.sqrt(n_nu * (1.0 + delta))


@dataclass(frozen=True)
class RecoveryConstants:
    """Error-bound constants for weights bounded below by a floor in (0, 1].

    l1 error <= l1_sigma * sigma_s + l1_noise * sqrt(s) * rho, and
    l2 error <= l2_sigma * sigma_s / sqrt(s) + l2_noise * rho.
    """

    l1_sigma: float
    l1_noise: float
    l2_sigma: float
    l2_noise: float
    delta_2s: float
    weight_floor: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.l1_sigma, self.l1_noise, self.l2_sigma, self.l2_noise)


def recovery_constants_floor_weights(delta_2s: float, weight_floor: float) -> RecoveryConstants:
    """Stable/robust recovery constants for cardinality sparsity, weights in
    [weight_floor, 1].

    Requires delta_2s < weight_floor / (weight_floor + 2); the common
    denominator weight_floor * (1 - delta) - 2 * delta is positive exactly
    on that region.
    """
    g, d = float(weight_floor), float(delta_2s)
    if not 0 < g <= 1:
        raise PremiseError(f"weight floor must lie in (0, 1], got {g}")
    if not 0 <= d:
        raise PremiseError(f"isometry constant must be nonnegative, got {d}")
    denom = g * (1.0 - d) - 2.0 * d
    if denom <= 0 or d >= g / (g + 2.0):
        raise PremiseError(
            f"requires delta_2s < floor/(floor+2) = {g / (g + 2.0):.6g}, got {d}"
        )
    root = math.sqrt(1.0 + d)
    return RecoveryConstants(
        l1_sigma=2.0 * g * (1.0 - d) / denom,
        l1_noise=4.0 * g * root / denom,
        l2_sigma=2.0 / denom,
        l2_noise=(2.0 * root) * (denom + 2.0) / ((1.0 - d) * denom),
        delta_2s=d,
        weight_floor=g,
    )


@dataclass(frozen=True)
class RobustNspConstants:
    """Robust null space constants implied by delta at triple order < 1/3."""

    rho: float
    gamma: float
    l2_noise: float
    delta_w3s: float


def robust_nsp_constants_from_rip(delta_w3s: float) -> RobustNspConstants:
    """rho = 2d/(1-d), gamma = sqrt(1+d)/(1-d), and the l2 noise coefficient
    6 sqrt(1+d)/(1-d), valid for d < 1/3."""
    d = float(delta_w3s)
    if not 0 <= d < 1.0 / 3.0:
        raise PremiseError(f"requires an isometry constant below 1/3, got {d}")
    root = math.sqrt(1.0 + d)
    return RobustNspConstants(
        rho=2.0 * d / (1.0 - d),
        gamma=root / (1.0 - d),
        l2_noise=6.0 * root / (1.0 - d),
        delta_w3s=d,
    )


@dataclass(frozen=True)
class ErrorBudget:
    """Evaluated stability/robustness budget with the inputs echoed back.

    l1_bound or l2_bound is None when the corresponding coefficients are
    not available for the weight model in use; the noise-only l2 term is
    always exposed.
    """

    l1_bound: float | None
    l2_bound: float | None
    l2_noise_term: float
    constants: dict[str, float | None]
    inputs: dict[str, float]


def rip_nsp_error_budget(
    sigma_s: float,
    s: float,
    delta: float,
    n_nu: int,
    lambda_phi: float,
    epsilon: float,
    constants: RecoveryConstants | RobustNspConstants,
) -> ErrorBudget:
    """Error budget for a matrix sharing its kernel with an isometry-like one.

    The noise radius seen by the underlying well-conditioned matrix is
    sqrt(1+delta) * sqrt(N_nu) * epsilon / lambda_phi. With full constants
    both bounds are evaluated; with only the l2 noise coefficient available
    the l2 bound is returned only for exactly sparse inputs (sigma_s = 0)
    and the sigma coefficients are reported as unavailable.
    """
    if min(sigma_s, s, delta, epsilon) < 0 or n_nu < 1:
        raise PremiseError("all budget inputs must be nonnegative and N_nu >= 1")
    if lambda_phi <= 0:
        raise PremiseError("largest singular value must be positive")
    noise = math.sqrt(1.0 + delta) * math.sqrt(n_nu) * epsilon / lambda_phi
    inputs = {
        "sigma_s": sigma_s,
        "s": s,
        "delta": delta,
        "n_nu": float(n_nu),
        "lambda_phi": lambda_phi,
        "epsilon": epsilon,
    }
    if isinstance(constants, RecoveryConstants):
        c = constants
        return ErrorBudget(
            l1_bound=c.l1_sigma * sigma_s + c.l1_noise * math.sqrt(s) * noise,
            l2_bound=c.l2_sigma * sigma_s / math.sqrt(s) + c.l2_noise * noise,
            l2_noise_term=c.l2_noise * noise,
            constants={
                "l1_sigma": c.l1_sigma,
                "l1_noise": c.l1_noise,
                "l2_sigma": c.l2_sigma,
                "l2_noise": c.l2_noise,
            },
            inputs=inputs,
        )
    c = constants
    term = c.l2_noise * noise
    return ErrorBudget(
        l1_bound=None,
        l2_bound=term if sigma_s == 0 else None,
        l2_noise_term=term,
        constants={"l1_sigma": None, "l1_noise": None, "l2_sigma": None, "l2_noise": c.l2_noise},
        inputs=inputs,
    )


def largest_singular_value(M) -> float:
    """Spectral norm via singular value decomposition."""
    M = as_matrix(M)
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[0]) if sv.size else 0.0


def smallest_positive_singular_value(M, tol: float | None = None) -> float:
    """Smallest singular value above the rank cutoff."""
    M = as_matrix(M)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0:
        raise ValueError("matrix has no singular values")
    cutoff = tol if tol is not None else max(M.shape) * np.finfo(float).eps * sv[0]
    positive = sv[sv > cutoff]
    if positive.size == 0:
        raise ValueError("matrix has no positive singular values above the cutoff")
    return float(positive[-1])
