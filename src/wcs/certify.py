"""Desk-scale certification of weighted null space and restricted isometry
properties.

Null space ratios are exact for real matrices: taken over the vertex
directions of the kernel polytope when there are few enough of them, by
linear programs over the kernel basis (one per sign pattern) otherwise.
Complex matrices get a lower bound from a phase-aware projected ascent with
deterministic restarts. Restricted isometry constants come from eigenvalue
extremes of column submatrices over the maximal admissible supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice, product

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .core import (
    SparseModel,
    as_matrix,
    as_weights,
    complement,
    maximal_admissible_supports,
    standing_assumption_holds,
    weighted_l1_norm,
)
from .solver import solve_weighted_bp

__all__ = [
    "CERTIFICATION_MARGIN",
    "BoundViolationError",
    "CertificationReport",
    "DisjointBoundReport",
    "EquivalenceVerdict",
    "NspResult",
    "RipResult",
    "RobustNspReport",
    "check_robust_nsp_kernel",
    "disjoint_inner_product_bound_check",
    "exact_recovery_equivalence_test",
    "nsp_constant",
    "null_space_basis",
    "rip_constant",
]

CERTIFICATION_MARGIN = 1e-9
_RANK_TOL = 1e-10
_ASCENT_RESTARTS = 12
_ASCENT_ITERS = 300
_RIP_CHUNK = 1024
# real kernels with at most this many vertex directions C(N, d-1) skip the LPs
_VERTEX_BUDGET = 1 << 14
# direction x support entries evaluated per block of the vertex scan
_VERTEX_BLOCK = 1 << 15
# a kernel vector whose off-support mass is at most this share of its total
# mass lives inside the support
_HIDDEN_MASS = 1e-10
# a support whose per-index bound sum reaches this may hide a kernel vector
_HIDDEN_BOUND = 1.0 - 1e-6
# relative slack on the per-support upper bound when pruning
_PRUNE_SLACK = 1e-6


class BoundViolationError(RuntimeError):
    """A quantity exceeded a bound that should hold for every matrix."""


def null_space_basis(A, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of ker(A) as columns, via singular value thresholding."""
    A = as_matrix(A)
    return scipy.linalg.null_space(A, rcond=tol)


# ---------------------------------------------------------------------------
# restricted isometry constant


@dataclass(frozen=True)
class RipResult:
    """Measured restricted isometry constant and the support attaining it."""

    delta: float
    attaining_support: tuple[int, ...] | None
    supports_examined: int
    order: float
    model: SparseModel


def rip_constant(A, w, model: SparseModel, s: float, cap: int | None = None) -> RipResult:
    """delta = max over admissible supports of max(sigma_max^2 - 1, 1 - sigma_min^2).

    Submatrix singular value extremes are monotone under support inclusion,
    so only maximal admissible supports are visited. They are taken in
    chunks, and within a chunk one batched eigvalsh call per support size
    gives the Gram spectra; the first support attaining the maximum wins.
    """
    A = as_matrix(A)
    prof = as_weights(w, A.shape[1])
    rows = A.T
    best = 0.0
    best_support: tuple[int, ...] | None = None
    count = 0
    supports = maximal_admissible_supports(A.shape[1], prof, model, s, cap=cap)
    while chunk := list(islice(supports, _RIP_CHUNK)):
        by_size: dict[int, list[int]] = {}
        for k, S in enumerate(chunk):
            by_size.setdefault(len(S), []).append(k)
        d_chunk = np.empty(len(chunk))
        for positions in by_size.values():
            # product form: gathering from a precomputed Gram matrix moves
            # delta by rounding and can change the attaining support
            cols = rows[np.array([chunk[k] for k in positions])]
            evs = np.linalg.eigvalsh(cols.conj() @ cols.transpose(0, 2, 1))
            d_chunk[positions] = np.maximum(evs[:, -1] - 1.0, 1.0 - evs[:, 0])
        k = int(np.argmax(d_chunk))
        if best_support is None or d_chunk[k] > best:
            best = float(d_chunk[k])
            best_support = chunk[k]
        count += len(chunk)
    return RipResult(
        delta=best if best_support is not None else 0.0,
        attaining_support=best_support,
        supports_examined=count,
        order=s,
        model=model,
    )


# ---------------------------------------------------------------------------
# kernel ratio maximizers


def _hidden_kernel_vector(B: np.ndarray, comp: tuple[int, ...]) -> np.ndarray | None:
    """A kernel vector vanishing on comp (so the off-support mass is zero)."""
    d = B.shape[1]
    if len(comp) == 0:
        return B[:, 0]
    sub = B[list(comp), :]
    U, sv, Vh = np.linalg.svd(sub, full_matrices=True)
    rank = int(np.sum(sv > _RANK_TOL))
    if rank >= d:
        return None
    c = Vh[rank, :].conj()
    return B @ c


def _offsupport_lp_parts(B: np.ndarray, comp: list[int], w_arr: np.ndarray):
    """Inequality block expressing ||(Bc)_comp||_{w,1} <= 1 with slack moduli."""
    d = B.shape[1]
    nc = len(comp)
    Bc = B[comp, :]
    A_ub = np.vstack(
        [
            np.hstack([Bc, -np.eye(nc)]),
            np.hstack([-Bc, -np.eye(nc)]),
            np.hstack([np.zeros((1, d)), w_arr[comp][None, :]]),
        ]
    )
    b_ub = np.concatenate([np.zeros(2 * nc), [1.0]])
    bounds = [(None, None)] * d + [(0, None)] * nc
    return A_ub, b_ub, bounds


def _lp_max_linear(a_vec, A_ub, b_ub, bounds, d) -> tuple[float, np.ndarray]:
    c_obj = np.concatenate([-a_vec, np.zeros(len(bounds) - d)])
    res = linprog(c_obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 3:
        return math.inf, np.zeros(d)
    if not res.success:
        raise RuntimeError(f"kernel subproblem failed: {res.message}")
    return -float(res.fun), res.x[:d]


def _max_wl1_ratio_real(B, S, comp, w_arr) -> tuple[float, np.ndarray]:
    """Exact sup of ||v_S||_{w,1} with ||v_comp||_{w,1} <= 1 over a real kernel."""
    A_ub, b_ub, bounds = _offsupport_lp_parts(B, list(comp), w_arr)
    d = B.shape[1]
    best = -math.inf
    best_c = None
    for tail in product((1.0, -1.0), repeat=len(S) - 1):
        signs = (1.0,) + tail  # global sign symmetry fixes the first
        a_vec = np.zeros(d)
        for sg, i in zip(signs, S):
            a_vec += sg * w_arr[i] * B[i, :]
        val, c = _lp_max_linear(a_vec, A_ub, b_ub, bounds, d)
        if val > best:
            best, best_c = val, c
    return best, B @ best_c


def _max_l2_ratio_real(B, S, comp, w_arr, seed: int, restarts: int) -> tuple[float, np.ndarray]:
    """Sup of ||v_S||_2 with ||v_comp||_{w,1} <= 1 by alternating direction LPs."""
    A_ub, b_ub, bounds = _offsupport_lp_parts(B, list(comp), w_arr)
    d = B.shape[1]
    rng = np.random.default_rng(seed)
    starts = [np.eye(len(S))[j] for j in range(len(S))]
    starts += [rng.standard_normal(len(S)) for _ in range(restarts)]
    best = 0.0
    best_c = np.zeros(d)
    for u in starts:
        u = u / max(np.linalg.norm(u), 1e-300)
        val_prev = -math.inf
        c_prev = None
        for _ in range(40):
            a_vec = u @ B[list(S), :]
            val, c = _lp_max_linear(a_vec, A_ub, b_ub, bounds, d)
            if math.isinf(val):
                return math.inf, B[:, 0]
            vS = (B @ c)[list(S)]
            val = float(np.linalg.norm(vS))
            if val <= val_prev * (1 + 1e-12):
                break
            val_prev, c_prev = val, c
            u = vS / max(val, 1e-300)
        if c_prev is not None and val_prev > best:
            best = val_prev
            best_c = c_prev
    return best, B @ best_c


def _ratio_ascent_complex(
    B, S, comp, w_arr, numerator: str, seed: int, restarts: int = _ASCENT_RESTARTS
) -> tuple[float, np.ndarray]:
    """Projected ascent on f(Bc)/g(Bc) over complex kernel coefficients.

    Returns a lower bound on the supremum; deterministic restarts make the
    value reproducible. Objective tolerance is about 1e-8 on these scales.
    """
    d = B.shape[1]
    Sl = list(S)
    cl = list(comp)
    Bn = B[Sl, :]
    Bd = B[cl, :]
    wn = w_arr[Sl]
    wd = w_arr[cl]
    tiny = 1e-300
    rng = np.random.default_rng(seed)

    def evaluate(c):
        vn = Bn @ c
        vd = Bd @ c
        f = float(np.linalg.norm(vn)) if numerator == "l2" else float(wn @ np.abs(vn))
        g = float(wd @ np.abs(vd))
        return f, g

    def ascent_dir(c, f, g):
        vn = Bn @ c
        vd = Bd @ c
        if numerator == "l2":
            hf = (Bn.conj().T @ vn) / max(f, tiny)
        else:
            un = vn / np.maximum(np.abs(vn), tiny)
            hf = Bn.conj().T @ (wn * un)
        ud = vd / np.maximum(np.abs(vd), tiny)
        hg = Bd.conj().T @ (wd * ud)
        return (g * hf - f * hg) / max(g * g, tiny)

    starts = []
    for i in range(min(len(Sl), 4)):
        starts.append(Bn[i, :].conj())
    while len(starts) < restarts:
        starts.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))

    best = 0.0
    best_c = None
    for c0 in starts:
        nrm = np.linalg.norm(c0)
        if nrm < tiny:
            continue
        c = c0.astype(complex) / nrm
        f, g = evaluate(c)
        if g < 1e-13:
            continue
        phi = f / g
        step = 0.5  # adaptive: grows on success, halves on failure
        stall = 0
        for _ in range(_ASCENT_ITERS):
            direction = ascent_dir(c, f, g)
            dn = np.linalg.norm(direction)
            if dn < 1e-14:
                break
            improved = False
            while step > 1e-12:
                c_new = c + step * direction / dn
                c_new = c_new / np.linalg.norm(c_new)
                f2, g2 = evaluate(c_new)
                if g2 > 1e-13 and f2 / g2 > phi * (1 + 1e-15):
                    gain = f2 / g2 - phi
                    c, f, g, phi = c_new, f2, g2, f2 / g2
                    improved = True
                    step = min(step * 2.0, 1.0)
                    stall = stall + 1 if gain <= 1e-12 * phi else 0
                    break
                step *= 0.5
            if not improved or stall >= 3:
                break
        if phi > best:
            best = phi
            best_c = c
    if best_c is None:
        return 0.0, B[:, 0]
    v = B @ best_c
    g = float(wd @ np.abs(v[cl]))
    return best, v / g if g > tiny else v


def _max_kernel_ratio(B, S, comp, w_arr, numerator: str, seed: int) -> tuple[float, np.ndarray]:
    hidden = _hidden_kernel_vector(B, comp)
    if hidden is not None:
        return math.inf, hidden
    if np.iscomplexobj(B):
        return _ratio_ascent_complex(B, S, comp, w_arr, numerator, seed)
    if numerator == "l2":
        return _max_l2_ratio_real(B, S, comp, w_arr, seed, restarts=4)
    return _max_wl1_ratio_real(B, S, comp, w_arr)


def _vertex_scan_fits(B: np.ndarray) -> bool:
    n, d = B.shape
    return not np.iscomplexobj(B) and math.comb(n, d - 1) <= _VERTEX_BUDGET


def _vertex_ratios(B, w_arr, supports, numerator: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact largest kernel ratio of every support, over the vertex directions.

    Both numerators are convex and the denominator ||(Bc)_{S^c}||_{w,1} is a
    norm, so the supremum on S sits at a vertex of {c : ||B_{S^c} c||_{w,1}
    <= 1}: a null vector of B_J for d - 1 rows J of S^c. Each null vector of
    B_J, J over all (d - 1)-subsets of rows, is a kernel vector, so the
    largest ratio per support over all of them is exact. Returns the ratios
    (inf where a kernel vector lives inside the support), the coefficient
    direction attaining each (first direction on ties) and the number of
    directions evaluated.
    """
    n, d = B.shape
    rows = np.array(list(combinations(range(n), d - 1)), dtype=np.intp)
    rows = rows.reshape(len(rows), d - 1)
    K = len(supports)
    inside = np.zeros((K, n))
    for k, S in enumerate(supports):
        inside[k, list(S)] = 1.0
    outside = 1.0 - inside
    best = np.full(K, -np.inf)
    best_c = np.zeros((K, d))
    every = np.arange(K)
    step = max(1, _VERTEX_BLOCK // K)
    for lo in range(0, len(rows), step):
        J = rows[lo : lo + step]
        # the last column of a complete QR of B_J^T is orthogonal to every row of B_J
        C = np.linalg.qr(B[J].transpose(0, 2, 1), mode="complete")[0][:, :, -1]
        V = C @ B.T
        # exact zeros: rounding there would swamp a small off-support mass
        V[np.arange(len(J))[:, None], J] = 0.0
        mass = w_arr * np.abs(V)
        off = mass @ outside.T
        on = np.sqrt(np.square(V) @ inside.T) if numerator == "l2" else mass @ inside.T
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(off <= _HIDDEN_MASS * mass.sum(axis=1)[:, None], np.inf, on / off)
        j = np.argmax(ratio, axis=0)
        top = ratio[j, every]
        better = top > best
        best[better] = top[better]
        best_c[better] = C[j[better]]
    return best, best_c, len(rows)


def _vertex_witness(B, comp, w_arr, c, ratio: float) -> np.ndarray:
    """The kernel vector B c, scaled to off-support mass one when it has any."""
    v = B @ c
    if math.isinf(ratio):
        hidden = _hidden_kernel_vector(B, comp)
        return hidden if hidden is not None else v / np.linalg.norm(v)
    return v / float(w_arr[list(comp)] @ np.abs(v[list(comp)]))


# ---------------------------------------------------------------------------
# null space constant


@dataclass(frozen=True)
class NspResult:
    """Measured null space constant with the attaining support and vector.

    supports_pruned counts the maximal supports whose upper bound ruled them
    out without a linear program; lp_calls counts every linear program,
    including the per-index bounds; kernel_vertices counts the vertex
    directions evaluated instead (0 on the linear program and complex paths).
    """

    gamma: float
    satisfied: bool
    attaining_support: tuple[int, ...] | None
    witness: np.ndarray | None
    supports_examined: int
    kernel_dim: int
    order: float
    model: SparseModel
    supports_pruned: int = 0
    lp_calls: int = 0
    kernel_vertices: int = 0


def _per_index_bounds(B: np.ndarray, w_arr: np.ndarray) -> np.ndarray:
    """alpha_i = max w_i |v_i| over kernel vectors v = Bc with ||v||_{w,1} <= 1.

    The polytope is symmetric under c -> -c, so maximizing w_i (Bc)_i gives
    the modulus (Juditsky and Nemirovski, Math. Program. 127, 2011).
    """
    n, d = B.shape
    A_ub, b_ub, bounds = _offsupport_lp_parts(B, list(range(n)), w_arr)
    return np.array(
        [_lp_max_linear(w_arr[i] * B[i, :], A_ub, b_ub, bounds, d)[0] for i in range(n)]
    )


def _nsp_vertices(B, prof, model, s, cap) -> NspResult:
    """Exact real constant from the vertex directions, with no linear program.

    The first support in enumeration order attains the maximum, so a hidden
    kernel vector is reported at the first support hiding one, with
    supports_examined counting the supports up to it as an in-order scan
    does.
    """
    n, kdim = B.shape
    supports = list(maximal_admissible_supports(n, prof, model, s, cap=cap))
    if not supports:
        return NspResult(0.0, True, None, None, 0, kdim, s, model)
    ratios, coeffs, directions = _vertex_ratios(B, prof.w, supports, "wl1")
    k = int(np.argmax(ratios))
    gamma = float(ratios[k])
    S = supports[k]
    return NspResult(
        gamma=gamma,
        satisfied=gamma < 1.0 - CERTIFICATION_MARGIN,
        attaining_support=S,
        witness=_vertex_witness(B, complement(S, n), prof.w, coeffs[k], gamma),
        supports_examined=k + 1 if math.isinf(gamma) else len(supports),
        kernel_dim=kdim,
        order=s,
        model=model,
        kernel_vertices=directions,
    )


def _nsp_real(B, prof, model, s, cap) -> NspResult:
    """Exact real constant, visiting supports by decreasing upper bound.

    On a kernel vector with ||v||_{w,1} = 1, ||v_S||_{w,1} <= a = sum of
    alpha_i over S, so the ratio on S is at most a / (1 - a). A support
    whose bound cannot reach the best value so far needs no linear program.
    Ties keep the smaller enumeration index, so the result is the one an
    in-order scan returns. The sign-pattern programs need no seed.
    """
    n, kdim = B.shape
    supports = list(maximal_admissible_supports(n, prof, model, s, cap=cap))
    if not supports:
        return NspResult(0.0, True, None, None, 0, kdim, s, model)
    alpha = _per_index_bounds(B, prof.w)
    lp_calls = n
    upper = []
    for S in supports:
        a = float(alpha[list(S)].sum())
        upper.append(math.inf if a >= _HIDDEN_BOUND else a / (1.0 - a))
    order = sorted(range(len(supports)), key=lambda k: (-upper[k], k))

    best = 0.0
    best_index: int | None = None
    witness: np.ndarray | None = None
    visited = 0
    for k in order:
        if upper[k] * (1.0 + _PRUNE_SLACK) < best:
            break
        visited += 1
        S = supports[k]
        comp = complement(S, n)
        hidden = _hidden_kernel_vector(B, comp)
        if hidden is None:
            val, v = _max_wl1_ratio_real(B, S, comp, prof.w)
            lp_calls += 2 ** (len(S) - 1)
        else:
            val, v = math.inf, hidden
        if math.isinf(val):
            return NspResult(
                math.inf, False, S, v, k + 1, kdim, s, model,
                supports_pruned=len(supports) - visited, lp_calls=lp_calls,
            )
        if val > best or (val == best and best_index is not None and k < best_index):
            best, best_index, witness = val, k, v
    return NspResult(
        gamma=best,
        satisfied=best < 1.0 - CERTIFICATION_MARGIN,
        attaining_support=None if best_index is None else supports[best_index],
        witness=witness,
        supports_examined=len(supports),
        kernel_dim=kdim,
        order=s,
        model=model,
        supports_pruned=len(supports) - visited,
        lp_calls=lp_calls,
    )


def nsp_constant(
    A, w, model: SparseModel, s: float, cap: int | None = None, seed: int = 0
) -> NspResult:
    """Smallest gamma with ||v_S||_{w,1} <= gamma ||v_{S^c}||_{w,1} on the kernel.

    gamma = 0 for a trivial kernel; math.inf (with witness) when some kernel
    vector lives entirely inside an admissible support. The property holds
    iff gamma < 1, reported with a certification margin of 1e-9.

    Real kernels are solved exactly. With a d-dimensional kernel and at most
    _VERTEX_BUDGET = 2^14 vertex directions C(N, d-1), gamma is the largest
    ratio over those directions and every maximal support, in closed form;
    the witness then has off-support mass one. Above the budget, linear
    programs per sign pattern run on the supports that per-index bounds do
    not rule out. Complex kernels run the ratio ascent on every support.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    B = null_space_basis(A)
    kdim = B.shape[1]
    if kdim == 0:
        return NspResult(0.0, True, None, None, 0, 0, s, model)
    if _vertex_scan_fits(B):
        return _nsp_vertices(B, prof, model, s, cap)
    if not np.iscomplexobj(B):
        return _nsp_real(B, prof, model, s, cap)

    best = 0.0
    best_support: tuple[int, ...] | None = None
    witness: np.ndarray | None = None
    count = 0
    for S in maximal_admissible_supports(n, prof, model, s, cap=cap):
        count += 1
        comp = complement(S, n)
        val, v = _max_kernel_ratio(B, S, comp, prof.w, "wl1", seed + count)
        if math.isinf(val):
            return NspResult(math.inf, False, S, v, count, kdim, s, model)
        if val > best:
            best = val
            best_support = S
            witness = v
    return NspResult(
        gamma=best,
        satisfied=best < 1.0 - CERTIFICATION_MARGIN,
        attaining_support=best_support,
        witness=witness,
        supports_examined=count,
        kernel_dim=kdim,
        order=s,
        model=model,
    )


# ---------------------------------------------------------------------------
# robust null space property, kernel part


@dataclass(frozen=True)
class RobustNspReport:
    """Outcome of the kernel certification plus the off-kernel search."""

    status: str  # "certified-on-kernel" | "violated" | "undecided-off-kernel"
    order: float
    rho: float
    gamma: float
    threshold: float
    max_kernel_ratio: float
    witness_support: tuple[int, ...] | None
    witness_vector: np.ndarray | None
    supports_examined: int
    search_margin: float | None

    @property
    def satisfied(self) -> bool | None:
        if self.status == "violated":
            return False
        if self.status == "certified-on-kernel":
            return True
        return None


def _offkernel_search(
    A, prof, supports, threshold, gamma, samples, seed
) -> tuple[float, np.ndarray | None, tuple[int, ...] | None]:
    """Gradient-ascent falsification of the full robust property off the kernel."""
    n = A.shape[1]
    complex_data = np.iscomplexobj(A)
    rng = np.random.default_rng(seed)

    def margin(v, S):
        comp = complement(S, n)
        off = float(prof.w[list(comp)] @ np.abs(v[list(comp)])) if comp else 0.0
        return float(np.linalg.norm(v[list(S)])) - threshold * off - gamma * float(
            np.linalg.norm(A @ v)
        )

    def margin_grad(v, S):
        tiny = 1e-300
        g = np.zeros(n, dtype=v.dtype)
        Sl = list(S)
        vS = v[Sl]
        g[Sl] += vS / max(np.linalg.norm(vS), tiny)
        comp = list(complement(S, n))
        if comp:
            g[comp] -= threshold * prof.w[comp] * (v[comp] / np.maximum(np.abs(v[comp]), tiny))
        Av = A @ v
        nAv = np.linalg.norm(Av)
        if nAv > tiny:
            g -= gamma * (A.conj().T @ Av) / nAv
        return g

    starts = [np.eye(n, dtype=complex if complex_data else float)[i] for i in range(min(n, 8))]
    for _ in range(samples):
        v = rng.standard_normal(n)
        if complex_data:
            v = v + 1j * rng.standard_normal(n)
        starts.append(v)

    best = -math.inf
    best_v = None
    best_S = None
    for v0 in starts:
        v = v0 / np.linalg.norm(v0)
        S = max(supports, key=lambda S_: margin(v, S_))
        m = margin(v, S)
        for _ in range(60):
            g = margin_grad(v, S)
            gn = np.linalg.norm(g)
            if gn < 1e-13:
                break
            step = 0.25
            improved = False
            while step > 1e-10:
                v_new = v + step * g / gn
                v_new = v_new / np.linalg.norm(v_new)
                m_new = margin(v_new, S)
                if m_new > m + 1e-15:
                    v, m = v_new, m_new
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if m > best:
            best, best_v, best_S = m, v, S
    return best, best_v, best_S


def check_robust_nsp_kernel(
    A,
    w,
    s: float,
    rho: float,
    gamma: float,
    cap: int | None = None,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> RobustNspReport:
    """Certify ||v_S||_2 <= (rho/sqrt(s)) ||v_{S^c}||_{w,1} on the kernel.

    The kernel restriction is necessary for the full robust property (the
    matrix term vanishes there), so any kernel violation is a genuine
    witness. The kernel ratio ||v_S||_2 / ||v_{S^c}||_{w,1} is exact on real
    data with at most _VERTEX_BUDGET = 2^14 vertex directions C(N, d-1) (the
    largest ratio over them, as in nsp_constant). Above the budget, real
    data runs alternating direction LPs and complex data the ratio ascent;
    both only bound the ratio from below, so a kernel violation can then be
    missed. Off the kernel only a randomized falsification search runs:
    samples=0 skips it and the report stays undecided off kernel.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    threshold = rho / math.sqrt(s)
    supports = list(
        maximal_admissible_supports(n, prof, SparseModel.WEIGHTED_CARDINALITY, s, cap=cap)
    )
    B = null_space_basis(A)
    count = 0
    max_ratio = 0.0
    if B.shape[1] > 0:
        exact = bool(supports) and _vertex_scan_fits(B)
        if exact:
            ratios, coeffs, _ = _vertex_ratios(B, prof.w, supports, "l2")
        for S in supports:
            count += 1
            comp = complement(S, n)
            if exact:
                val, v = float(ratios[count - 1]), None
            else:
                val, v = _max_kernel_ratio(B, S, comp, prof.w, "l2", seed + count)
            if val > max_ratio:
                max_ratio = val
            if val > threshold * (1.0 + 1e-9) + tol:
                if v is None:
                    v = _vertex_witness(B, comp, prof.w, coeffs[count - 1], val)
                return RobustNspReport(
                    status="violated",
                    order=s,
                    rho=rho,
                    gamma=gamma,
                    threshold=threshold,
                    max_kernel_ratio=val,
                    witness_support=S,
                    witness_vector=v,
                    supports_examined=count,
                    search_margin=None,
                )
    if samples <= 0:
        return RobustNspReport(
            "undecided-off-kernel", s, rho, gamma, threshold, max_ratio,
            None, None, count, None,
        )
    best, best_v, best_S = _offkernel_search(A, prof, supports, threshold, gamma, samples, seed)
    if best > tol:
        return RobustNspReport(
            "violated", s, rho, gamma, threshold, max_ratio, best_S, best_v, count, best
        )
    return RobustNspReport(
        "certified-on-kernel", s, rho, gamma, threshold, max_ratio, None, None, count, best
    )


# ---------------------------------------------------------------------------
# disjoint-support inner product bound


@dataclass(frozen=True)
class DisjointBoundReport:
    """Largest disjoint-pair coherence against delta_{s+t}; pairs_examined
    counts the pairs of maximal sizes visited, not every smaller pair."""

    max_coherence: float
    delta: float
    max_violation: float
    attaining_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    pairs_examined: int

    @property
    def satisfied(self) -> bool:
        return self.max_violation <= 1e-10


def disjoint_inner_product_bound_check(
    A, w, s: int, t: int, cap: int | None = None, raise_on_violation: bool = True
) -> DisjointBoundReport:
    """max |<Au, Av>| over disjoint unit sparse pairs, checked against delta_{s+t}.

    The pairwise value on supports (S, T) is the largest singular value of
    A_S^* A_T; it can never exceed the measured constant at order s + t. It
    only grows as S or T grows, so only pairs that cannot be extended are
    visited: |S| = s and |T| = t when N >= s + t, |S| + |T| = N otherwise.
    pairs_examined counts those pairs. Their singular values are computed
    in batches of up to 1024 pairs; the first pair attaining the maximum
    wins.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    if int(s) != s or int(t) != t or s < 1 or t < 1:
        raise ValueError("pair orders must be positive integers")
    s, t = int(s), int(t)
    delta = rip_constant(A, prof, SparseModel.CARDINALITY, s + t, cap=cap).delta

    cols = A.T
    best = 0.0
    best_pair = None
    count = 0
    for size_s in range(max(1, min(s, n - t)), min(s, n - 1) + 1):
        size_t = min(t, n - size_s)
        pairs = (
            (S, T)
            for S in combinations(range(n), size_s)
            for T in combinations([i for i in range(n) if i not in S], size_t)
        )
        while chunk := list(islice(pairs, _RIP_CHUNK)):
            left = cols[np.array([S for S, _ in chunk])]
            right = cols[np.array([T for _, T in chunk])]
            coh = np.linalg.svd(left.conj() @ right.transpose(0, 2, 1), compute_uv=False)[:, 0]
            k = int(np.argmax(coh))
            if coh[k] > best:
                best, best_pair = float(coh[k]), chunk[k]
            count += len(chunk)
    report = DisjointBoundReport(
        max_coherence=best,
        delta=delta,
        max_violation=best - delta,
        attaining_pair=best_pair,
        pairs_examined=count,
    )
    if raise_on_violation and report.max_violation > 1e-8:
        raise BoundViolationError(
            f"disjoint-support coherence {best:.12g} exceeds delta_(s+t) = {delta:.12g}"
        )
    return report


# ---------------------------------------------------------------------------
# exact recovery equivalence


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Agreement between the null space verdict and actual recovery behavior."""

    gamma: float
    nsp_satisfied: bool
    consistent: bool
    mode: str  # "recovery-sweep" | "non-uniqueness"
    supports_tested: int
    max_recovery_error: float | None
    competitor_objective_gap: float | None


def exact_recovery_equivalence_test(
    A,
    w,
    model: SparseModel,
    s: float,
    trials: int = 1,
    cap: int | None = None,
    seed: int = 0,
    recovery_tol: float = 1e-6,
) -> EquivalenceVerdict:
    """Replay the equivalence between the null space property and exact recovery.

    When the constant is below one, every maximal admissible support gets
    random plants plus an adversarial sign pattern, each recovered by the
    equality-constrained solver. Otherwise the witness kernel vector splits
    into a planted vector and a competitor with no worse objective,
    exhibiting non-uniqueness directly.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    res = nsp_constant(A, prof, model, s, cap=cap, seed=seed)
    complex_data = np.iscomplexobj(A)
    dtype = complex if complex_data else float

    if res.satisfied:
        max_err = 0.0
        count = 0
        for idx, S in enumerate(maximal_admissible_supports(n, prof, model, s, cap=cap)):
            count += 1
            rng = np.random.default_rng([seed, idx])
            plants = []
            for _ in range(trials):
                vals = rng.standard_normal(len(S))
                if complex_data:
                    vals = vals + 1j * rng.standard_normal(len(S))
                plants.append(vals)
            signs = rng.integers(0, 2, size=len(S)) * 2.0 - 1.0
            plants.append(signs.astype(dtype))
            for vals in plants:
                x = np.zeros(n, dtype=dtype)
                x[list(S)] = vals
                out = solve_weighted_bp(A, A @ x, prof)
                err = float(np.linalg.norm(out.x - x) / np.linalg.norm(x))
                max_err = max(max_err, err)
        return EquivalenceVerdict(
            gamma=res.gamma,
            nsp_satisfied=True,
            consistent=max_err <= recovery_tol,
            mode="recovery-sweep",
            supports_tested=count,
            max_recovery_error=max_err,
            competitor_objective_gap=None,
        )

    v = res.witness
    S = res.attaining_support
    x = np.zeros(n, dtype=v.dtype)
    x[list(S)] = v[list(S)]
    z = -(v - x)  # -v_{S^c}
    same_measurements = float(np.linalg.norm(A @ (x - z))) <= 1e-8 * (
        1.0 + float(np.linalg.norm(A @ x))
    )
    gap = weighted_l1_norm(x, prof) - weighted_l1_norm(z, prof)
    consistent = same_measurements and gap >= -1e-8 * (1.0 + weighted_l1_norm(x, prof))
    return EquivalenceVerdict(
        gamma=res.gamma,
        nsp_satisfied=False,
        consistent=consistent,
        mode="non-uniqueness",
        supports_tested=res.supports_examined,
        max_recovery_error=None,
        competitor_objective_gap=gap,
    )


# ---------------------------------------------------------------------------
# uniform report record


@dataclass(frozen=True)
class CertificationReport:
    """Uniform certification record emitted by the command line tools.

    A witness is attached exactly when satisfied is False; the support
    attaining a measured constant travels separately.
    """

    property: str
    order: float
    model: str
    constants: dict[str, float] = field(default_factory=dict)
    satisfied: bool | None = None
    status: str = ""
    attaining_support: tuple[int, ...] | None = None
    witness_support: tuple[int, ...] | None = None
    witness_vector: np.ndarray | None = None
    supports_examined: int = 0
    standing_assumption: bool | None = None

    @staticmethod
    def from_rip(result: RipResult, w, satisfied_threshold: float | None = None):
        sat = None if satisfied_threshold is None else result.delta < satisfied_threshold
        return CertificationReport(
            property="rip",
            order=result.order,
            model=result.model.value,
            constants={"delta": result.delta},
            satisfied=sat,
            status="measured",
            attaining_support=result.attaining_support,
            witness_support=result.attaining_support if sat is False else None,
            supports_examined=result.supports_examined,
            standing_assumption=standing_assumption_holds(w, result.model, result.order),
        )

    @staticmethod
    def from_nsp(result: NspResult, w):
        return CertificationReport(
            property="nsp",
            order=result.order,
            model=result.model.value,
            constants={"gamma": result.gamma},
            satisfied=result.satisfied,
            status="satisfied" if result.satisfied else "violated",
            attaining_support=result.attaining_support,
            witness_support=None if result.satisfied else result.attaining_support,
            witness_vector=None if result.satisfied else result.witness,
            supports_examined=result.supports_examined,
            standing_assumption=standing_assumption_holds(w, result.model, result.order),
        )

    @staticmethod
    def from_robust(result: RobustNspReport, w):
        return CertificationReport(
            property="robust-nsp",
            order=result.order,
            model=SparseModel.WEIGHTED_CARDINALITY.value,
            constants={
                "rho": result.rho,
                "gamma": result.gamma,
                "threshold": result.threshold,
                "max_kernel_ratio": result.max_kernel_ratio,
            },
            satisfied=result.satisfied,
            status=result.status,
            witness_support=result.witness_support,
            witness_vector=result.witness_vector,
            supports_examined=result.supports_examined,
            standing_assumption=standing_assumption_holds(
                w, SparseModel.WEIGHTED_CARDINALITY, result.order
            ),
        )
