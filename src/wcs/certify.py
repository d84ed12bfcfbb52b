"""Desk-scale certification of weighted null space and restricted isometry
properties.

Kernel ratios are exact for real matrices: taken over the vertex
directions of the kernel polytope, or for the null space constant past a
budget of them, by linear programs over the kernel basis (one per sign
pattern).
Complex matrices get a lower bound from a phase-aware projected ascent with
deterministic restarts, run in lockstep: every restart of every support in a
block of the enumeration is one lane of a numpy batch, and a tick steps all
live lanes with one product against the kernel basis. The off-kernel
falsification search of the robust property runs its starts in lockstep the
same way. Restricted isometry constants come from eigenvalue extremes of
column submatrices over the maximal admissible supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
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
# the null space constant of a real kernel with more vertex directions
# C(N, d-1) than this runs the pruned sign-pattern LPs instead
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
# absolute slack on the robust threshold, on the kernel and off it
_ROBUST_TOL = 1e-9


class BoundViolationError(RuntimeError):
    """A quantity exceeded a bound that should hold for every matrix."""


def null_space_basis(A) -> np.ndarray:
    """Orthonormal basis of ker(A) as columns, via singular value thresholding."""
    return scipy.linalg.null_space(as_matrix(A))


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


def rip_constant(A, w, model: SparseModel, s: float) -> RipResult:
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
    supports = maximal_admissible_supports(A.shape[1], prof, model, s)
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


def _ratio_ascent(
    B, supports, w_arr, numerator: str, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Projected ascent on f(Bc)/g(Bc) over complex kernel coefficients,
    every restart of every support in one lockstep batch.

    f is ||v_S||_{w,1} ("wl1") or ||v_S||_2 ("l2") and g is
    ||v_{S^c}||_{w,1}, with v = Bc. Support k restarts from its first
    min(|S|, 4) rows of B conjugated, then from draws of
    default_rng(seed + k); a start of norm zero or with g < 1e-13 is
    skipped. Each (support, restart) pair is a lane. A tick gives every
    lane whose last step was taken a new ascent direction, then tries one
    normalised step on every live lane in a single product with B, with
    per-lane on- and off-support weight rows, so supports of mixed sizes
    share the batch. A step is taken when it raises the ratio by more than
    one part in 1e-15, which doubles it up to 1; otherwise it is halved.
    A lane stops when its direction vanishes, its step falls to 1e-12,
    three taken steps in a row gain at most 1e-12 relative, or after 300
    directions.

    Returns, per support, the best ratio over its restarts (the first
    maximum; 0 when none is positive), a lower bound on the supremum that
    deterministic restarts make reproducible; the coefficients attaining
    it (e_0 where the bound is 0); and the number of lane objective
    evaluations. The objective tolerance is about 1e-8 on these scales.
    """
    n, d = B.shape
    K, R = len(supports), _ASCENT_RESTARTS
    tiny = 1e-300
    inside = np.zeros((K, n), dtype=bool)
    starts = np.empty((K, R, d), dtype=complex)
    for k, S in enumerate(supports):
        inside[k, list(S)] = True
        q = min(len(S), 4)
        starts[k, :q] = B[list(S[:q])].conj()
        draws = np.random.default_rng(seed + k).standard_normal((R - q, 2, d))
        starts[k, q:] = draws[:, 0] + 1j * draws[:, 1]
    on = np.where(inside, w_arr, 0.0) if numerator == "wl1" else inside.astype(float)
    off = np.where(inside, 0.0, w_arr)
    Bt, Bh = B.T, B.conj()

    def evaluate(C, sup):
        V = C @ Bt
        mod = np.abs(V)
        if numerator == "l2":
            f = np.sqrt(np.einsum("ij,ij->i", on[sup], mod * mod))
        else:
            f = np.einsum("ij,ij->i", on[sup], mod)
        return V, mod, f, np.einsum("ij,ij->i", off[sup], mod)

    def direction(V, mod, f, g, sup):
        # gradient of f/g: (g grad f - f grad g) / g^2, in one product with B
        U = V / np.maximum(mod, tiny)
        if numerator == "l2":
            rows = (g / np.maximum(f, tiny))[:, None] * on[sup] * V - f[:, None] * off[sup] * U
        else:
            rows = (g[:, None] * on[sup] - f[:, None] * off[sup]) * U
        D = (rows @ Bh) / np.maximum(g * g, tiny)[:, None]
        dn = np.linalg.norm(D, axis=1)
        return D / np.maximum(dn, 1e-14)[:, None], dn < 1e-14

    ratio = np.zeros(K * R)
    coeff = np.zeros((K * R, d), dtype=complex)
    C = starts.reshape(K * R, d)
    nrm = np.linalg.norm(C, axis=1)
    lane = np.flatnonzero(nrm >= tiny)
    C = C[lane] / nrm[lane, None]
    V, mod, f, g = evaluate(C, lane // R)
    evaluations = len(lane)
    keep = g >= 1e-13
    lane, C, V, mod, f, g = lane[keep], C[keep], V[keep], mod[keep], f[keep], g[keep]
    L = len(lane)
    phi = f / g
    step = np.full(L, 0.5)
    stall = np.zeros(L, dtype=int)
    iters = np.ones(L, dtype=int)
    D, done = direction(V, mod, f, g, lane // R)

    while True:
        if done.any():
            ratio[lane[done]] = phi[done]
            coeff[lane[done]] = C[done]
            keep = ~done
            lane, C, f, g, phi = lane[keep], C[keep], f[keep], g[keep], phi[keep]
            step, stall, iters, D = step[keep], stall[keep], iters[keep], D[keep]
            L = len(lane)
        if not L:
            break
        Cn = C + step[:, None] * D
        Cn /= np.linalg.norm(Cn, axis=1)[:, None]
        sup = lane // R
        V, mod, f2, g2 = evaluate(Cn, sup)
        evaluations += L
        live = g2 > 1e-13
        r2 = np.divide(f2, g2, out=np.zeros(L), where=live)
        acc = live & (r2 > phi * (1 + 1e-15))
        gain = r2 - phi
        C[acc], f[acc], g[acc], phi[acc] = Cn[acc], f2[acc], g2[acc], r2[acc]
        stall = np.where(acc, np.where(gain <= 1e-12 * r2, stall + 1, 0), stall)
        step = np.where(acc, np.minimum(step * 2.0, 1.0), step * 0.5)
        done = np.where(acc, (stall >= 3) | (iters >= _ASCENT_ITERS), step <= 1e-12)
        # a taken step that does not end the lane sets its next direction
        i = np.flatnonzero(acc & ~done)
        if i.size:
            D[i], done[i] = direction(V[i], mod[i], f2[i], g2[i], sup[i])
            iters[i] += 1

    ratio = ratio.reshape(K, R)
    j = np.argmax(ratio, axis=1)
    best = ratio[np.arange(K), j]
    coeffs = coeff.reshape(K, R, d)[np.arange(K), j]
    coeffs[best <= 0.0] = np.eye(d)[0]
    return best, coeffs, evaluations


def _indicator(supports, n: int) -> np.ndarray:
    """One row per support, 1.0 on its indices and 0.0 elsewhere."""
    rows = np.zeros((len(supports), n))
    for k, S in enumerate(supports):
        rows[k, list(S)] = 1.0
    return rows


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
    K = len(supports)
    inside = _indicator(supports, n)
    outside = 1.0 - inside
    best = np.full(K, -np.inf)
    best_c = np.zeros((K, d))
    every = np.arange(K)
    step = max(1, _VERTEX_BLOCK // K)
    directions = 0
    rows = combinations(range(n), d - 1)
    while block := list(islice(rows, step)):
        J = np.array(block, dtype=np.intp).reshape(len(block), d - 1)
        directions += len(J)
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
    return best, best_c, directions


def _kernel_witness(B, comp, w_arr, c, ratio: float) -> np.ndarray:
    """The kernel vector B c, scaled to off-support mass one when it has any;
    the hidden kernel vector when the ratio is infinite."""
    v = B @ c
    if math.isinf(ratio):
        hidden = _hidden_kernel_vector(B, comp)
        return hidden if hidden is not None else v / np.linalg.norm(v)
    g = float(w_arr[list(comp)] @ np.abs(v[list(comp)]))
    return v / g if g > 0.0 else v


def _kernel_path(B: np.ndarray) -> str:
    """How the kernel ratios of B are found: "vertex" on real kernels
    (exact), "ascent" on complex kernels (a lower bound)."""
    return "ascent" if np.iscomplexobj(B) else "vertex"


def _kernel_scan(B, supports, w_arr, numerator: str, seed: int, bound: float):
    """Largest kernel ratio f(v_S) / ||v_{S^c}||_{w,1} of every support, in
    enumeration order, on the path _kernel_path picks.

    f is ||v_S||_{w,1} ("wl1") or ||v_S||_2 ("l2"). Yields (first, block,
    ratios, coeffs, work): first is the enumeration index of block[0],
    coeffs the kernel coefficients attaining each ratio, and work the vertex
    directions or ascent evaluations spent. The vertex path yields every
    support as one block, with ratio inf where a vertex direction lives
    inside the support. The ascent path yields blocks of up to _VERTEX_BLOCK
    lane x index entries, seeded seed + first + 1, and ends at the first
    support hiding a kernel vector, which reads inf with coefficients e_0.
    A caller reads up to the first ratio above bound, so with bound = inf
    the supports before a hidden one in its block are not scanned and read
    0, a valid lower bound.
    """
    n, d = B.shape
    if _kernel_path(B) == "vertex":
        supports = list(supports)
        if supports:
            yield 0, supports, *_vertex_ratios(B, w_arr, supports, numerator)
        return
    size = max(1, _VERTEX_BLOCK // (_ASCENT_RESTARTS * n))
    supports = iter(supports)
    first = 0
    while block := list(islice(supports, size)):
        hides = (_hidden_kernel_vector(B, complement(S, n)) is not None for S in block)
        h = next((h for h, hit in enumerate(hides) if hit), len(block))
        hidden = h < len(block)
        if not (hidden and math.isinf(bound)):
            ratios, coeffs, work = _ratio_ascent(B, block[:h], w_arr, numerator, seed + first + 1)
        else:  # nothing is scanned before the hidden support
            ratios, coeffs, work = np.zeros(h), np.zeros((h, d)), 0
        if hidden:
            block = block[: h + 1]
            ratios = np.append(ratios, math.inf)
            coeffs = np.vstack([coeffs, np.eye(d)[:1]])
        yield first, block, ratios, coeffs, work
        if hidden:
            return
        first += len(block)


# ---------------------------------------------------------------------------
# null space constant


@dataclass(frozen=True)
class NspResult:
    """Measured null space constant with the attaining support and vector.

    On the vertex and ascent paths of _kernel_scan gamma is the largest
    ratio it read, exact on the vertex path and a lower bound on the ascent;
    real data above the vertex budget runs the exact pruned sign-pattern
    LPs instead. When gamma is inf, supports_examined counts the supports up
    to the first hiding a kernel vector. supports_pruned counts the maximal
    supports whose upper bound ruled them out without a linear program;
    lp_calls counts every linear program, including the per-index bounds;
    kernel_vertices counts the vertex directions evaluated instead (0 on the
    linear program and complex paths); ascent_evaluations counts the lane
    objective evaluations of the complex ratio ascent (0 on the real paths).
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
    ascent_evaluations: int = 0


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


def _nsp_real(B, prof, model, s) -> NspResult:
    """Exact real constant, visiting supports by decreasing upper bound.

    On a kernel vector with ||v||_{w,1} = 1, ||v_S||_{w,1} <= a = sum of
    alpha_i over S, so the ratio on S is at most a / (1 - a). A support
    whose bound cannot reach the best value so far needs no linear program.
    Ties keep the smaller enumeration index, so the result is the one an
    in-order scan returns. The sign-pattern programs need no seed.
    """
    n, kdim = B.shape
    supports = list(maximal_admissible_supports(n, prof, model, s))
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


def nsp_constant(A, w, model: SparseModel, s: float, seed: int = 0) -> NspResult:
    """Smallest gamma with ||v_S||_{w,1} <= gamma ||v_{S^c}||_{w,1} on the kernel.

    gamma = 0 for a trivial kernel; math.inf (with witness) when some kernel
    vector lives entirely inside an admissible support. The property holds
    iff gamma < 1, reported with a certification margin of 1e-9.

    Real kernels are solved exactly. With a d-dimensional kernel and at most
    _VERTEX_BUDGET = 2^14 vertex directions C(N, d-1), gamma is the largest
    ratio over those directions and every maximal support, in closed form;
    the witness then has off-support mass one. Above the budget, linear
    programs per sign pattern run on the supports that per-index bounds do
    not rule out. Complex kernels run the lockstep ratio ascent on every
    support, which bounds gamma from below only.

    Within the budget and on complex data it reads _kernel_scan with no
    bound, so a support hiding a kernel vector ends the scan, and the first
    support attaining the largest ratio wins: the support, the count and the
    ascent seeds are those of an in-order scan.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    B = null_space_basis(A)
    kdim = B.shape[1]
    if kdim == 0:
        return NspResult(0.0, True, None, None, 0, 0, s, model)
    path = _kernel_path(B)
    if path == "vertex" and math.comb(n, kdim - 1) > _VERTEX_BUDGET:
        return _nsp_real(B, prof, model, s)
    # an exact ratio of 0 still attains; the ascent's lower bound of 0 does not
    best = -math.inf if path == "vertex" else 0.0
    best_support: tuple[int, ...] | None = None
    witness: np.ndarray | None = None
    count = work = 0
    supports = maximal_admissible_supports(n, prof, model, s)
    for first, block, ratios, coeffs, spent in _kernel_scan(
        B, supports, prof.w, "wl1", seed, math.inf
    ):
        work += spent
        k = int(np.argmax(ratios))
        count = first + (k + 1 if math.isinf(ratios[k]) else len(block))
        if ratios[k] > best:
            best, best_support = float(ratios[k]), block[k]
            witness = _kernel_witness(B, complement(block[k], n), prof.w, coeffs[k], best)
    gamma = max(best, 0.0)
    return NspResult(
        gamma=gamma,
        satisfied=gamma < 1.0 - CERTIFICATION_MARGIN,
        attaining_support=best_support,
        witness=witness,
        supports_examined=count,
        kernel_dim=kdim,
        order=s,
        model=model,
        kernel_vertices=work if path == "vertex" else 0,
        ascent_evaluations=work if path == "ascent" else 0,
    )


# ---------------------------------------------------------------------------
# robust null space property, kernel part


@dataclass(frozen=True)
class RobustNspReport:
    """Outcome of the kernel certification plus the off-kernel search.

    kernel_path names the path of _kernel_scan that found the kernel
    ratios: "vertex" (real data, exact, over kernel_vertices vertex
    directions), "ascent" (the complex ratio ascent, a lower bound) or
    "none" (a trivial kernel or no admissible support). supports_examined
    counts the supports scanned, up to the first whose ratio crosses the
    threshold when the status comes from the kernel; a support hiding a
    kernel vector crosses it with ratio inf. offkernel_starts counts the
    lanes of the off-kernel search and offkernel_evaluations their margin
    evaluations (both 0 when the search does not run).
    """

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
    kernel_path: str = "none"  # "vertex" | "ascent" | "none"
    kernel_vertices: int = 0
    offkernel_starts: int = 0
    offkernel_evaluations: int = 0

    @property
    def satisfied(self) -> bool | None:
        if self.status == "violated":
            return False
        if self.status == "certified-on-kernel":
            return True
        return None


def _offkernel_search(
    A, prof, supports, threshold, gamma, samples, seed
) -> tuple[float, np.ndarray | None, tuple[int, ...] | None, int]:
    """Gradient-ascent falsification of the full robust property off the
    kernel, every start one lane of a lockstep batch.

    The margin of a unit v on S is ||v_S||_2 - threshold ||v_{S^c}||_{w,1} -
    gamma ||Av||_2. The starts are the first min(N, 8) unit vectors, then
    `samples` draws of default_rng(seed) (real and imaginary parts in turn
    on complex data), normalised. Each lane keeps the support on which its
    start has the largest margin, the first on ties; those margins are
    evaluated in blocks of _VERTEX_BLOCK lane x support entries. A tick
    gives every lane whose last step was taken its gradient and a step of
    0.25, then tries one normalised step on every live lane at once. A step
    is taken when it raises the margin by more than 1e-15, otherwise it is
    halved. A lane stops when its gradient norm falls below 1e-13, its step
    to 1e-10, or after 60 taken steps.

    Returns the largest final margin (the first lane attaining it), its unit
    vector and support, and the number of lane margin evaluations, the
    start of each lane counting once; (-inf, None, None, 0) without
    supports.
    """
    n = A.shape[1]
    if not supports:
        return -math.inf, None, None, 0
    w_arr = prof.w
    tiny = 1e-300
    draws = np.random.default_rng(seed).standard_normal(
        (samples, 2, n) if np.iscomplexobj(A) else (samples, n)
    )
    if draws.ndim == 3:
        draws = draws[:, 0] + 1j * draws[:, 1]
    V = np.vstack([np.eye(n, dtype=draws.dtype)[: min(n, 8)], draws])
    V /= np.linalg.norm(V, axis=1)[:, None]
    L = len(V)
    At, Ah = A.T, A.conj()

    # the support of each lane: first largest start margin, block by block
    mod = np.abs(V)
    square, mass = mod * mod, w_arr * mod
    matrix_term = gamma * np.linalg.norm(V @ At, axis=1)
    top = np.full(L, -math.inf)
    chosen = np.zeros(L, dtype=np.intp)
    size = max(1, _VERTEX_BLOCK // L)
    for lo in range(0, len(supports), size):
        inside = _indicator(supports[lo : lo + size], n)
        m = np.sqrt(square @ inside.T) - threshold * (mass @ (1.0 - inside).T)
        m -= matrix_term[:, None]
        j = np.argmax(m, axis=1)
        better = m[np.arange(L), j] > top
        top[better] = m[better, j[better]]
        chosen[better] = lo + j[better]
    inside = _indicator([supports[k] for k in chosen], n)
    off_w = (1.0 - inside) * w_arr

    def margin(V, lanes):
        mod = np.abs(V)
        on = np.sqrt(np.einsum("ij,ij->i", inside[lanes], mod * mod))
        off = np.einsum("ij,ij->i", off_w[lanes], mod)
        return on - threshold * off - gamma * np.linalg.norm(V @ At, axis=1)

    def gradient(V, lanes):
        mod = np.abs(V)
        on = np.sqrt(np.einsum("ij,ij->i", inside[lanes], mod * mod))
        G = inside[lanes] * V / np.maximum(on, tiny)[:, None]
        G -= threshold * off_w[lanes] * (V / np.maximum(mod, tiny))
        AV = V @ At
        nAV = np.linalg.norm(AV, axis=1)
        hit = nAV > tiny
        G[hit] -= gamma * (AV[hit] @ Ah) / nAV[hit, None]
        return G

    every = np.arange(L)
    m = margin(V, every)
    evaluations = L
    G = np.zeros_like(V)
    gn = np.zeros(L)
    step = np.zeros(L)
    taken = np.zeros(L, dtype=int)
    live = np.ones(L, dtype=bool)
    fresh = every
    while True:
        # a lane whose last step was taken starts a new line search
        if fresh.size:
            G[fresh] = gradient(V[fresh], fresh)
            gn[fresh] = np.linalg.norm(G[fresh], axis=1)
            step[fresh] = 0.25
            live[fresh[gn[fresh] < 1e-13]] = False
        lanes = np.flatnonzero(live)
        if not lanes.size:
            break
        Vn = V[lanes] + step[lanes, None] * G[lanes] / gn[lanes, None]
        Vn /= np.linalg.norm(Vn, axis=1)[:, None]
        mn = margin(Vn, lanes)
        evaluations += lanes.size
        acc = mn > m[lanes] + 1e-15
        fresh = lanes[acc]
        V[fresh], m[fresh] = Vn[acc], mn[acc]
        taken[fresh] += 1
        live[fresh[taken[fresh] >= 60]] = False
        fresh = fresh[live[fresh]]
        halved = lanes[~acc]
        step[halved] *= 0.5
        live[halved[step[halved] <= 1e-10]] = False
    j = int(np.argmax(m))
    return float(m[j]), V[j].copy(), supports[chosen[j]], evaluations


def check_robust_nsp_kernel(
    A, w, s: float, rho: float, gamma: float, samples: int = 100, seed: int = 0
) -> RobustNspReport:
    """Certify ||v_S||_2 <= (rho/sqrt(s)) ||v_{S^c}||_{w,1} on the kernel.

    The kernel restriction is necessary for the full robust property (the
    matrix term vanishes there), so any kernel violation is a genuine
    witness. The kernel ratio ||v_S||_2 / ||v_{S^c}||_{w,1} comes from
    _kernel_scan, bounded by the threshold, so the scan stops at the first
    support that violates it. The ratio is exact on real data: the largest
    ratio over all C(N, d-1) vertex directions, with no budget (the
    enumeration cap bounds them). Complex data runs the ratio ascent, which
    only bounds the ratio from below, so a kernel violation can then be
    missed. Off the kernel only a randomized falsification search runs, the
    lockstep gradient ascent of _offkernel_search: samples=0 skips it and
    the report stays undecided off kernel.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    # enumerating first turns a budget s <= 0 into a BudgetError
    supports = list(maximal_admissible_supports(n, prof, SparseModel.WEIGHTED_CARDINALITY, s))
    threshold = rho / math.sqrt(s)
    B = null_space_basis(A)
    d = B.shape[1]
    path = _kernel_path(B) if d and supports else "none"
    report = partial(
        RobustNspReport,
        order=s,
        rho=rho,
        gamma=gamma,
        threshold=threshold,
        kernel_path=path,
        kernel_vertices=math.comb(n, d - 1) if path == "vertex" else 0,
    )
    bound = threshold * (1.0 + 1e-9) + _ROBUST_TOL
    count = 0
    max_ratio = 0.0
    scan = _kernel_scan(B, supports, prof.w, "l2", seed, bound) if path != "none" else ()
    for first, block, ratios, coeffs, _ in scan:
        over = np.flatnonzero(ratios > bound)
        if over.size:
            k = int(over[0])
            S, val = block[k], float(ratios[k])
            return report(
                status="violated",
                max_kernel_ratio=val,
                witness_support=S,
                witness_vector=_kernel_witness(B, complement(S, n), prof.w, coeffs[k], val),
                supports_examined=first + k + 1,
                search_margin=None,
            )
        count = first + len(block)
        max_ratio = max(max_ratio, float(ratios.max()))
    found = partial(report, max_kernel_ratio=max_ratio, supports_examined=count)
    if samples <= 0:
        return found(
            status="undecided-off-kernel",
            witness_support=None,
            witness_vector=None,
            search_margin=None,
        )
    best, best_v, best_S, evaluations = _offkernel_search(
        A, prof, supports, threshold, gamma, samples, seed
    )
    violated = best > _ROBUST_TOL
    return found(
        status="violated" if violated else "certified-on-kernel",
        witness_support=best_S if violated else None,
        witness_vector=best_v if violated else None,
        search_margin=best,
        offkernel_starts=min(n, 8) + samples if supports else 0,
        offkernel_evaluations=evaluations,
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
    A, w, s: int, t: int, raise_on_violation: bool = True
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
    delta = rip_constant(A, prof, SparseModel.CARDINALITY, s + t).delta

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
    seed: int = 0,
) -> EquivalenceVerdict:
    """Replay the equivalence between the null space property and exact recovery.

    When the constant is below one, every maximal admissible support gets
    random plants plus an adversarial sign pattern, each recovered by the
    equality-constrained solver; the verdict is consistent when every
    relative recovery error is at most 1e-6. Otherwise the witness kernel
    vector splits into a planted vector and a competitor with no worse
    objective, exhibiting non-uniqueness directly.
    """
    A = as_matrix(A)
    n = A.shape[1]
    prof = as_weights(w, n)
    res = nsp_constant(A, prof, model, s, seed=seed)
    complex_data = np.iscomplexobj(A)
    dtype = complex if complex_data else float

    if res.satisfied:
        max_err = 0.0
        count = 0
        for idx, S in enumerate(maximal_admissible_supports(n, prof, model, s)):
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
            consistent=max_err <= 1e-6,
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
