"""Random partial-unitary sensing matrices and kernel-designed counterexamples.

The counterexample build plants a prescribed vector d and a distinguished
unit row inside the orthogonal complement of a lifted kernel, producing a
matrix with orthonormal rows whose null space is known in closed form. All
randomness is seeded and every step is deterministic given the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .bounds import recovery_constants_floor_weights, robust_nsp_constants_from_rip
from .certify import null_space_basis, nsp_constant
from .core import (
    SparseModel,
    as_matrix,
    as_weights,
    complement,
    enumeration_cap,
    maximal_admissible_supports,
    weighted_l1_norm,
)

__all__ = [
    "ConstructionError",
    "CounterexampleBundle",
    "Provenance",
    "SenseMatrix",
    "ShrinkResult",
    "build_counterexample",
    "dft_matrix",
    "sample_partial_unitary",
    "shrink_to_break_robust_nsp",
    "unitary_with_flat_first_row",
]


# the null space constant an inner matrix must reach, per model, and the
# number of inner matrices drawn to reach it
_INNER_GAMMA_TARGET = {
    SparseModel.WEIGHTED_CARDINALITY: 1.0 / 3.0,
    SparseModel.CARDINALITY: 1.0 / 5.0,
}
_MAX_RESAMPLES = 50


class ConstructionError(ValueError):
    """Raised when requested dimensions make a construction degenerate."""


@dataclass(frozen=True)
class Provenance:
    """Where a sensing matrix came from."""

    source: str
    rows: tuple[int, ...] | None = None
    seed: Any = None
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SenseMatrix:
    """Dense sensing matrix with provenance metadata."""

    matrix: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        M = as_matrix(self.matrix)
        if self.provenance.rows is not None and len(self.provenance.rows) != M.shape[0]:
            raise ValueError("provenance row list does not match the row count")
        object.__setattr__(self, "matrix", M)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix; row 0 is flat."""
    t = np.arange(n)
    return np.exp(2j * np.pi * np.outer(t, t) / n) / math.sqrt(n)


def unitary_with_flat_first_row(n: int, seed: int = 0, real: bool = False) -> np.ndarray:
    """Random unitary (orthogonal when real) whose first row is all ones / sqrt(n)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    if not real:
        G = G + 1j * rng.standard_normal((n, n))
    G[:, 0] = 1.0
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.real(np.diag(R)) + (np.real(np.diag(R)) == 0))
    return Q.conj().T  # rows orthonormal, first row flat up to normalization


def _check_unitary(U: np.ndarray, tol: float = 1e-8) -> None:
    n = U.shape[0]
    if U.shape[0] != U.shape[1]:
        raise ConstructionError(f"base must be square, got shape {U.shape}")
    err = np.max(np.abs(U @ U.conj().T - np.eye(n)))
    if err > tol:
        raise ConstructionError(f"base is not unitary: max Gram deviation {err:.3e}")


def sample_partial_unitary(
    base: np.ndarray,
    m: int,
    seed: Any = None,
    exclude_first_row: bool = False,
    with_replacement: bool = False,
) -> SenseMatrix:
    """Select m rows of a unitary base uniformly at random and rescale by
    sqrt(N/m) so unit-norm columns survive the subsampling.

    Rows are distinct by default; with_replacement allows duplicates.
    Excluding the first row of a base with a flat first row puts the
    all-ones vector into the kernel of the result.
    """
    base = np.asarray(base)
    _check_unitary(base)
    n = base.shape[0]
    pool = np.arange(1, n) if exclude_first_row else np.arange(n)
    if m > n:
        raise ConstructionError(f"cannot select {m} rows from a {n}-dimensional base")
    if not with_replacement and m > pool.size:
        raise ConstructionError(
            f"row pool has {pool.size} rows after exclusion, cannot pick {m} distinct ones"
        )
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(pool, size=m, replace=with_replacement))
    A = base[rows, :] * math.sqrt(n / m)
    return SenseMatrix(
        matrix=A,
        provenance=Provenance(
            source="partial-unitary",
            rows=tuple(int(r) for r in rows),
            seed=seed,
            detail={
                "base_dim": n,
                "exclude_first_row": exclude_first_row,
                "with_replacement": with_replacement,
            },
        ),
    )


# ---------------------------------------------------------------------------
# counterexample construction


@dataclass(frozen=True)
class CounterexampleBundle:
    """All pieces of the kernel-designed matrix plus its diagnostics."""

    phi: SenseMatrix
    inner: SenseMatrix
    model: SparseModel
    weights: np.ndarray
    s: float
    k: int
    d: np.ndarray
    phi1: np.ndarray
    alpha: float
    phi_normalizer: float  # rho, the normalizer of phi1
    x0: np.ndarray
    xhat: np.ndarray
    z: np.ndarray
    y: np.ndarray
    null_basis: np.ndarray  # columns span ker(phi): lifted vectors then d
    lifted_basis: np.ndarray
    inner_gamma: float | None
    inner_certified: bool | None
    inner_attempts: int
    diagnostics: dict[str, Any]
    premises: dict[str, bool | None]


def _prefix_length(w: np.ndarray, s: float) -> int:
    cumsum = np.cumsum(w * w)
    if cumsum[0] > s:
        raise ConstructionError(
            f"the first squared weight {cumsum[0]:.6g} already exceeds the budget {s}"
        )
    k = int(np.searchsorted(cumsum, s, side="right"))
    if k >= len(w):
        raise ConstructionError(
            f"every prefix fits inside the budget {s}; no break point exists"
        )
    return k


def _orthonormal_columns(P: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    if P.size == 0:
        return P.reshape(P.shape[0], 0)
    U, sv, _ = np.linalg.svd(P, full_matrices=False)
    # the inputs are projections of orthonormal columns, so unit scale:
    # an absolute cutoff keeps pure-noise residuals out of the basis
    rank = int(np.sum(sv > tol * max(1.0, float(sv[0]))))
    return U[:, :rank]


def _complete_orthonormal_rows(first: np.ndarray, span_cols: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal rows spanning the column space, with `first` as row one.

    Modified Gram-Schmidt with one re-orthogonalization pass; candidate
    directions below 1e-12 of their original size are dropped.
    """
    rows = [first / np.linalg.norm(first)]
    for j in range(span_cols.shape[1]):
        v = span_cols[:, j].copy()
        scale = np.linalg.norm(v)
        for _ in range(2):
            for q in rows:
                v -= (q.conj() @ v) * q
        if np.linalg.norm(v) > 1e-12 * scale:
            rows.append(v / np.linalg.norm(v))
        if len(rows) == m:
            break
    if len(rows) != m:
        raise ConstructionError(
            f"orthonormal completion found {len(rows)} rows, expected {m}"
        )
    return np.vstack(rows)


def build_counterexample(
    w,
    s: float,
    m: int,
    N: int,
    model: SparseModel,
    seed: Any = 0,
    inner_base: np.ndarray | None = None,
) -> CounterexampleBundle:
    """Build the matrix with a designed null space and its recovery gap data.

    The inner matrix is a partial unitary on the reduced dimensions with the
    all-ones vector in its kernel. When its null space constant can be
    certified, that is for a real base inside the enumeration cap, it is
    resampled until the constant reaches the target (1/3 for the
    weighted-cardinality case, 1/5 for the cardinality case), and
    inner_certified says whether it did. Otherwise the first sample is kept,
    and inner_gamma and inner_certified are None: a complex base would only
    give a lower bound. Asymptotic premises are recorded as flags, never
    enforced.
    """
    prof = as_weights(w, N)
    if model is SparseModel.WEIGHTED_CARDINALITY:
        if prof.w_min < 1.0:
            raise ConstructionError(
                "the weighted-cardinality construction needs all weights >= 1"
            )
        k = _prefix_length(prof.w, s)
    elif model is SparseModel.CARDINALITY:
        if prof.w_max > 1.0:
            raise ConstructionError("the cardinality construction needs all weights <= 1")
        if s != int(s) or s < 1:
            raise ConstructionError(f"cardinality budget must be a positive integer, got {s}")
        k = int(s)
    else:  # pragma: no cover
        raise ValueError(f"unknown model {model}")

    if N - 4 * k < 1:
        raise ConstructionError(f"need N > 4k for the planted vector, got N={N}, k={k}")
    if m - k < 1:
        raise ConstructionError(f"need m > k for the inner matrix, got m={m}, k={k}")
    if m >= N:
        raise ConstructionError(f"need m < N, got m={m}, N={N}")

    n_inner = N - k
    base = dft_matrix(n_inner) if inner_base is None else np.asarray(inner_base)
    if base.shape != (n_inner, n_inner):
        raise ConstructionError(
            f"inner base must be {n_inner}x{n_inner}, got {base.shape}"
        )
    w_inner = prof.w[k:]

    do_certify = n_inner <= enumeration_cap() and not np.iscomplexobj(base)
    target = _INNER_GAMMA_TARGET[model] + 1e-9
    seed_list = [int(seed)] if np.isscalar(seed) else [int(x) for x in seed]
    attempts = 0
    best: tuple[float, SenseMatrix] | None = None  # the smallest constant so far
    for attempt in range(_MAX_RESAMPLES if do_certify else 1):
        attempts += 1
        inner = sample_partial_unitary(
            base, m - k, seed=seed_list + [attempt], exclude_first_row=True
        )
        if do_certify:
            gamma = nsp_constant(inner, w_inner, model, s).gamma
            if best is None or gamma < best[0]:
                best = (gamma, inner)
            if gamma <= target:
                break
    inner_gamma: float | None = None
    inner_certified: bool | None = None
    if best is not None:
        inner_gamma, inner = best
        inner_certified = bool(inner_gamma <= target)

    M = inner.matrix
    e = np.ones(n_inner, dtype=M.dtype)
    e_residual = float(np.linalg.norm(M @ e))

    B_inner = null_space_basis(M)
    e_unit = e / math.sqrt(n_inner)
    coeffs = e_unit.conj() @ B_inner
    Ne_basis = _orthonormal_columns(B_inner - np.outer(e_unit, coeffs))
    expected_dim = N - m - 1
    if Ne_basis.shape[1] != expected_dim:
        raise ConstructionError(
            f"kernel-minus-ones space has dimension {Ne_basis.shape[1]}, expected {expected_dim}"
        )

    dtype = Ne_basis.dtype if np.iscomplexobj(Ne_basis) else float
    lifted = np.zeros((N, expected_dim), dtype=dtype)
    lifted[k:, :] = Ne_basis

    scale = float(N - 4 * k)
    prefix = scale / (2.0 ** np.arange(2, k + 2) * prof.w[:k])
    d = np.concatenate([prefix, -np.ones(n_inner)]).astype(dtype)

    inv_sum = float(np.sum(1.0 / (2.0 ** np.arange(2, k + 2) * prof.w[:k])))
    alpha = (N - k) / (scale * inv_sum)
    rho = math.sqrt(N + (alpha**2 - 1.0) * k)
    phi1 = np.concatenate([np.full(k, alpha), np.ones(n_inner)]).astype(dtype) / rho

    null_basis = np.hstack([lifted, (d / np.linalg.norm(d))[:, None]])
    perp = null_space_basis(null_basis.conj().T)
    if perp.shape[1] != m:
        raise ConstructionError(
            f"orthogonal complement has dimension {perp.shape[1]}, expected {m}"
        )
    # rows act bilinearly (Phi x sums row_i * x_i), so the Hermitian-orthonormal
    # complement basis enters conjugated; phi1 is real and stays row one
    Phi = np.conj(_complete_orthonormal_rows(phi1.astype(perp.dtype), perp, m))

    x0 = np.concatenate([prefix, np.zeros(n_inner)]).astype(dtype)
    xhat = np.concatenate([np.full(k, -alpha), np.zeros(n_inner)]).astype(dtype)
    z = np.zeros(m, dtype=Phi.dtype)
    z[0] = rho
    y = Phi @ x0 - z

    # diagnostics: construction identities and the two error bounds whose
    # clash drives the recovery-gap argument
    w_prefix_min = float(prof.w[:k].min())
    w_prefix_max = float(prof.w[:k].max())
    geo = 1.0 - 2.0**-k
    bracket_lo = 2.0 * (N - k) * w_prefix_min / (scale * geo)
    bracket_hi = 2.0 * (N - k) * w_prefix_max / (scale * geo)
    xhat_w = weighted_l1_norm(xhat, prof)
    x0_w = weighted_l1_norm(x0, prof)
    direct_sq = float(np.linalg.norm(xhat - x0) ** 2)
    if model is SparseModel.WEIGHTED_CARDINALITY:
        boundary = robust_nsp_constants_from_rip(1.0 / 3.0 - 1e-12)
        c_prime = boundary.l2_noise**2 * (1.0 + boundary.delta_w3s)
        lower_bound = scale**2 / (16.0 * prof.w_max**2)
        upper_bound = 2.0 * c_prime * N * (N * prof.w_max**2 / k + 1.0)
        norm_premise = N >= 24.0 * prof.w_max**2 * s
        premises = {
            "N_ge_24_wmax2_s": bool(norm_premise),
            "s_gt_23040_wmax6": bool(s > 23040.0 * prof.w_max**6),
            "m_sample_complexity": None,  # unspecified absolute constant
            "standing_assumption": bool(s >= 2.0 * prof.w_max**2),
        }
    else:
        boundary_delta = 1.0 / 11.0 - 1e-12
        consts = recovery_constants_floor_weights(boundary_delta, prof.w_min)
        c_prime = consts.l2_noise**2 * (1.0 + boundary_delta)
        lower_bound = scale**2 / 16.0
        upper_bound = 2.0 * c_prime * N * (N / s + 1.0)
        norm_premise = N >= 24.0 * s
        premises = {
            "N_ge_24_s": bool(norm_premise),
            "s_ge_3717120": bool(s >= 3717120),
            "m_sample_complexity": None,
            "weight_floor_gt_3_4": bool(prof.w_min > 0.75),
            "standing_assumption": bool(s >= 2.0 * prof.w_max**2),
        }

    phi_gram = Phi @ Phi.conj().T
    diagnostics = {
        "orthonormality_error": float(np.max(np.abs(phi_gram - np.eye(m)))),
        "d_kernel_residual": float(np.linalg.norm(Phi @ d)),
        "lifted_kernel_residual": float(
            np.max(np.abs(Phi @ lifted)) if expected_dim else 0.0
        ),
        "phi1_dot_d": float(np.abs(phi1.conj() @ d)),
        "phi1_norm_error": abs(float(np.linalg.norm(phi1)) - 1.0),
        "inner_ones_residual": e_residual,
        "xhat_closed_form_error": float(np.linalg.norm((x0 - rho * phi1 - d) - xhat)),
        "rho_residual_relative": abs(float(np.linalg.norm(Phi @ xhat - Phi @ x0)) - rho) / rho,
        "xhat_weighted_norm": xhat_w,
        "x0_weighted_norm": x0_w,
        "xhat_le_x0": bool(xhat_w <= x0_w),
        "alpha": alpha,
        "alpha_bracket": (bracket_lo, bracket_hi),
        "alpha_in_bracket": bool(bracket_lo - 1e-9 <= alpha <= bracket_hi + 1e-9),
        "error_lower_bound_sq": lower_bound,
        "error_upper_bound_sq": upper_bound,
        "direct_error_sq": direct_sq,
        "bounds_contradict": bool(lower_bound > upper_bound),
        # the planted prefix carries (N - 4k)/2 (1 - 2^-k), below half the tail
        "prefix_mass_measured": weighted_l1_norm(d[:k], prof.w[:k]),
        "prefix_mass_closed_form": scale / 2.0 * geo,
        "half_tail_sum": (N - k) / 2.0,
    }

    phi = SenseMatrix(
        matrix=Phi,
        provenance=Provenance(
            source="counterexample",
            rows=None,
            seed=seed,
            detail={"model": model.value, "s": s, "k": k, "inner_rows": inner.provenance.rows},
        ),
    )
    return CounterexampleBundle(
        phi=phi,
        inner=inner,
        model=model,
        weights=prof.w,
        s=s,
        k=k,
        d=d,
        phi1=phi1,
        alpha=alpha,
        phi_normalizer=rho,
        x0=x0,
        xhat=xhat,
        z=z,
        y=y,
        null_basis=null_basis,
        lifted_basis=lifted,
        inner_gamma=inner_gamma,
        inner_certified=inner_certified,
        inner_attempts=attempts,
        diagnostics=diagnostics,
        premises=premises,
    )


# ---------------------------------------------------------------------------
# scaling attack on the robust null space property


@dataclass(frozen=True)
class ShrinkResult:
    matrix: SenseMatrix
    factor: float
    factor_critical: float
    support: tuple[int, ...]
    lhs: float
    rhs: float
    violated: bool


def shrink_to_break_robust_nsp(
    Psi,
    w,
    s: float,
    rho: float,
    gamma: float,
    x_witness,
) -> ShrinkResult:
    """Scale a matrix down until the robust null space inequality fails at x.

    Needs an admissible support where ||x_S||_2 already exceeds the tail
    term; shrinking only the matrix term then breaks the inequality while
    the kernel (hence any kernel-sharing property) is untouched. The factor
    is half the critical one, at which the inequality turns.
    """
    A = as_matrix(Psi)
    n = A.shape[1]
    prof = as_weights(w, n)
    x = np.asarray(x_witness).ravel()
    if x.size != n:
        raise ValueError(f"witness has length {x.size}, expected {n}")
    # enumerating first turns a budget s <= 0 into a BudgetError
    supports = list(maximal_admissible_supports(n, prof, SparseModel.WEIGHTED_CARDINALITY, s))
    threshold = rho / math.sqrt(s)

    best_margin = -math.inf
    best_support: tuple[int, ...] | None = None
    for S in supports:
        comp = complement(S, n)
        tail = float(prof.w[list(comp)] @ np.abs(x[list(comp)])) if comp else 0.0
        margin = float(np.linalg.norm(x[list(S)])) - threshold * tail
        if margin > best_margin:
            best_margin = margin
            best_support = S
    if best_support is None or best_margin <= 0:
        raise ConstructionError(
            "no admissible support has ||x_S||_2 above the tail term; "
            "this witness cannot break the property by shrinking"
        )
    image_norm = float(np.linalg.norm(A @ x))
    if image_norm <= 1e-13 * float(np.linalg.norm(x)):
        raise ConstructionError("witness lies in the kernel; the matrix term is already zero")

    factor_critical = best_margin / (gamma * image_norm)
    factor = 0.5 * factor_critical
    scaled = SenseMatrix(
        matrix=factor * A,
        provenance=Provenance(
            source="scaled",
            rows=None,
            seed=None,
            detail={"factor": factor, "factor_critical": factor_critical},
        ),
    )
    comp = complement(best_support, n)
    tail = float(prof.w[list(comp)] @ np.abs(x[list(comp)])) if comp else 0.0
    lhs = float(np.linalg.norm(x[list(best_support)]))
    rhs = threshold * tail + gamma * float(np.linalg.norm(scaled.matrix @ x))
    return ShrinkResult(
        matrix=scaled,
        factor=factor,
        factor_critical=factor_critical,
        support=best_support,
        lhs=lhs,
        rhs=rhs,
        violated=lhs > rhs,
    )
