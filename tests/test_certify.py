"""Certification: kernel bases, isometry constants, null space constants,
robust kernel checks, and the recovery equivalence replay."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wcs.certify
from wcs import cli
from wcs.bounds import robust_nsp_constants_from_rip
from wcs.certify import (
    _ASCENT_ITERS,
    _ASCENT_RESTARTS,
    CERTIFICATION_MARGIN,
    CertificationReport,
    NspResult,
    _hidden_kernel_vector,
    _max_wl1_ratio_real,
    _ratio_ascent,
    _vertex_ratios,
    check_robust_nsp_kernel,
    disjoint_inner_product_bound_check,
    exact_recovery_equivalence_test,
    nsp_constant,
    null_space_basis,
    rip_constant,
)
from wcs.construct import dft_matrix, sample_partial_unitary, unitary_with_flat_first_row
from wcs.core import (
    SparseModel,
    as_weights,
    complement,
    enumerate_admissible_supports,
    maximal_admissible_supports,
    weighted_l1_norm,
)

CARD = SparseModel.CARDINALITY
WCARD = SparseModel.WEIGHTED_CARDINALITY


# ---------------------------------------------------------------------------
# per-support oracles


def _ratio_ascent_scalar(B, S, comp, w_arr, numerator, seed):
    """The complex ratio ascent one support and one restart at a time, as the
    program ran it before the lockstep batch: the same starts, seeds, step
    rule and stopping rules."""
    d = B.shape[1]
    Sl, cl = list(S), list(comp)
    Bn, Bd = B[Sl, :], B[cl, :]
    BnH, BdH = Bn.conj().T, Bd.conj().T
    wn, wd = w_arr[Sl], w_arr[cl]
    tiny = 1e-300
    rng = np.random.default_rng(seed)

    def evaluate(c):
        vn, vd = Bn @ c, Bd @ c
        f = float(np.linalg.norm(vn)) if numerator == "l2" else float(wn @ np.abs(vn))
        return f, float(wd @ np.abs(vd)), vn, vd

    def ascent_dir(vn, vd, f, g):
        if numerator == "l2":
            hf = (BnH @ vn) / max(f, tiny)
        else:
            hf = BnH @ (wn * (vn / np.maximum(np.abs(vn), tiny)))
        hg = BdH @ (wd * (vd / np.maximum(np.abs(vd), tiny)))
        return (g * hf - f * hg) / max(g * g, tiny)

    starts = [Bn[i, :].conj() for i in range(min(len(Sl), 4))]
    while len(starts) < _ASCENT_RESTARTS:
        starts.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    best, best_c = 0.0, None
    for c0 in starts:
        nrm = np.linalg.norm(c0)
        if nrm < tiny:
            continue
        c = c0.astype(complex) / nrm
        f, g, vn, vd = evaluate(c)
        if g < 1e-13:
            continue
        phi, step, stall = f / g, 0.5, 0
        for _ in range(_ASCENT_ITERS):
            direction = ascent_dir(vn, vd, f, g)
            dn = np.linalg.norm(direction)
            if dn < 1e-14:
                break
            improved = False
            while step > 1e-12:
                c_new = c + step * direction / dn
                c_new = c_new / np.linalg.norm(c_new)
                f2, g2, vn2, vd2 = evaluate(c_new)
                if g2 > 1e-13 and f2 / g2 > phi * (1 + 1e-15):
                    gain = f2 / g2 - phi
                    c, f, g, phi, vn, vd = c_new, f2, g2, f2 / g2, vn2, vd2
                    improved = True
                    step = min(step * 2.0, 1.0)
                    stall = stall + 1 if gain <= 1e-12 * phi else 0
                    break
                step *= 0.5
            if not improved or stall >= 3:
                break
        if phi > best:
            best, best_c = phi, c
    if best_c is None:
        return 0.0, B[:, 0]
    v = B @ best_c
    g = float(wd @ np.abs(v[cl]))
    return best, v / g if g > tiny else v


def _max_kernel_ratio(B, S, comp, w_arr, numerator, seed):
    """One support's kernel ratio: inf on a hidden kernel vector, the scalar
    ascent on complex data, exact oracles on real data: the sign-pattern LPs
    for wl1, and for l2 the LPs over w_i on a singleton {i} (there
    ||v_S||_2 = |v_i|), the vertex subsets otherwise."""
    hidden = _hidden_kernel_vector(B, comp)
    if hidden is not None:
        return math.inf, hidden
    if np.iscomplexobj(B):
        return _ratio_ascent_scalar(B, S, comp, w_arr, numerator, seed)
    if numerator == "wl1":
        return _max_wl1_ratio_real(B, S, comp, w_arr)
    if len(S) == 1:
        val, v = _max_wl1_ratio_real(B, S, comp, w_arr)
        return val / w_arr[S[0]], v
    return _l2_ratio_by_subsets(B, S, w_arr), None


# ---------------------------------------------------------------------------
# null space basis


def test_null_space_identity_empty():
    assert null_space_basis(np.eye(4)).shape == (4, 0)


def test_null_space_rank_one_row():
    B = null_space_basis(np.array([[1.0, 1.0, 1.0]]))
    assert B.shape == (3, 2)
    assert np.abs(np.ones(3) @ B).max() <= 1e-12
    assert np.abs(B.T @ B - np.eye(2)).max() <= 1e-12


def test_null_space_residual_small():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 5))
    B = null_space_basis(A)
    assert B.shape == (5, 2)
    assert np.abs(A @ B).max() <= 1e-10


# ---------------------------------------------------------------------------
# restricted isometry constant


def test_rip_identity_zero():
    assert rip_constant(np.eye(4), np.ones(4), CARD, 2).delta == pytest.approx(0.0, abs=1e-12)


def test_rip_uniform_scaling():
    res = rip_constant(2.0 * np.eye(4), np.ones(4), CARD, 1)
    assert res.delta == pytest.approx(3.0, abs=1e-12)


def test_rip_partial_dft_order_one_zero():
    sm = sample_partial_unitary(dft_matrix(8), 3, seed=0)
    res = rip_constant(sm, np.ones(8), CARD, 1)
    assert res.delta == pytest.approx(0.0, abs=1e-12)


def _rip_bruteforce(A, w, model, s):
    """Independent oracle: eigenvalue extremes over every admissible support."""
    best = 0.0
    n = A.shape[1]
    found = False
    for S in enumerate_admissible_supports(n, w, model, s):
        found = True
        G = A[:, list(S)].conj().T @ A[:, list(S)]
        evs = np.linalg.eigvalsh(G)
        best = max(best, float(evs[-1]) - 1.0, 1.0 - float(evs[0]))
    return best if found else 0.0


def test_rip_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for trial in range(8):
        m, n = int(rng.integers(3, 7)), int(rng.integers(6, 12))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        w = rng.uniform(0.8, 1.4, n)
        model = CARD if trial % 2 else WCARD
        s = 2 if model is CARD else float(rng.uniform(1.5, 4.0))
        got = rip_constant(A, w, model, s).delta
        assert got == pytest.approx(_rip_bruteforce(A, w, model, s), abs=1e-10)


def test_rip_scaling_recomputation():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 7))
    A /= np.linalg.norm(A, axis=0)
    w = np.ones(7)
    delta = rip_constant(A, w, CARD, 2).delta
    c = 0.5 * math.sqrt((1.0 - delta) / (1.0 + delta)) if delta < 1 else 0.1
    scaled = rip_constant(c * A, w, CARD, 2).delta
    assert scaled > delta


# ---------------------------------------------------------------------------
# null space constant


def test_nsp_full_rank_square_gamma_zero():
    res = nsp_constant(np.eye(3), np.ones(3), CARD, 1)
    assert res.gamma == 0.0
    assert res.satisfied
    assert res.witness is None


def test_nsp_ones_row_boundary():
    res = nsp_constant(np.array([[1.0, 1.0, 1.0]]), np.ones(3), CARD, 1)
    assert res.gamma == pytest.approx(1.0, abs=1e-9)
    assert not res.satisfied  # strict threshold with certification margin


def test_nsp_infinite_when_kernel_hides_in_support():
    # column of zeros: e2 is in the kernel and supported in {2}
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    res = nsp_constant(A, np.ones(3), CARD, 1)
    assert math.isinf(res.gamma)
    assert res.attaining_support == (2,)
    v = res.witness
    assert np.linalg.norm(A @ v) <= 1e-9
    assert np.abs(v[[0, 1]]).max() <= 1e-9


def test_nsp_kernel_invariance_under_invertible_maps():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 8))
    w = rng.uniform(0.5, 1.5, 8)
    base = nsp_constant(A, w, CARD, 2).gamma
    for trial in range(3):
        U = rng.standard_normal((4, 4))
        while abs(np.linalg.det(U)) < 1e-3:
            U = rng.standard_normal((4, 4))
        assert nsp_constant(U @ A, w, CARD, 2).gamma == pytest.approx(base, abs=1e-9)


def test_nsp_monotone_in_order():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 9))
    w = rng.uniform(0.7, 1.3, 9)
    gammas = [nsp_constant(A, w, CARD, s).gamma for s in (1, 2, 3)]
    assert gammas[0] <= gammas[1] + 1e-10
    assert gammas[1] <= gammas[2] + 1e-10


def test_nsp_complex_ascent_agrees_with_grid():
    rng = np.random.default_rng(5)
    for trial in range(3):
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        B = null_space_basis(A)
        w = rng.uniform(0.8, 1.5, 5)
        S, comp = (0, 2), (1, 3, 4)
        best_grid = 0.0
        for a in np.linspace(0, np.pi / 2, 150):
            for th in np.linspace(0, 2 * np.pi, 300, endpoint=False):
                c = np.array([np.cos(a), np.sin(a) * np.exp(1j * th)])
                v = B @ c
                g = float(w[list(comp)] @ np.abs(v[list(comp)]))
                if g > 1e-12:
                    best_grid = max(best_grid, float(w[list(S)] @ np.abs(v[list(S)])) / g)
        val = _ratio_ascent(B, [S], w, "wl1", seed=trial)[0][0]
        assert val >= best_grid - 1e-9  # ascent dominates any grid point
        assert val <= best_grid + 6e-2 * best_grid  # and stays near the dense scan


def test_nsp_witness_replays_violation():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 10))
    w = rng.uniform(0.6, 1.0, 10)
    res = nsp_constant(A, w, CARD, 3)
    if res.satisfied:
        pytest.skip("random instance unexpectedly satisfied the property")
    v, S = res.witness, res.attaining_support
    on = weighted_l1_norm(np.where(np.isin(np.arange(10), S), v, 0), w)
    off = weighted_l1_norm(np.where(np.isin(np.arange(10), S), 0, v), w)
    assert np.linalg.norm(A @ v) <= 1e-8 * np.linalg.norm(v)
    assert on >= res.gamma * off - 1e-6 * max(on, 1.0)


def test_nsp_rip_chain_floor_weights():
    # near-square partial orthogonal with a flat excluded row: the isometry
    # premise holds and the null space constant obeys the implied bound
    n = 12
    base = unitary_with_flat_first_row(n, seed=7, real=True)
    A = sample_partial_unitary(base, n - 1, seed=8, exclude_first_row=True).matrix
    rng = np.random.default_rng(9)
    for floor in (0.8, 0.9, 1.0):
        w = rng.uniform(floor, 1.0, n)
        for s in (1, 2):
            delta = rip_constant(A, w, CARD, 2 * s).delta
            if delta >= floor / (floor + 2.0):
                continue
            gamma = nsp_constant(A, w, CARD, s).gamma
            bound = delta / (floor - (floor + 1.0) * delta)
            assert gamma <= bound + 1e-8


# ---------------------------------------------------------------------------
# robust null space property (kernel part)


def test_robust_kernel_vacuous_for_full_rank():
    report = check_robust_nsp_kernel(np.eye(3), np.ones(3), 2.0, rho=0.5, gamma=1.0)
    assert report.status == "certified-on-kernel"
    assert report.max_kernel_ratio == 0.0
    assert report.satisfied


def test_robust_kernel_detects_violation_with_witness():
    # kernel contains e0 and e1; mass concentrates on the support {0}
    A = np.array([[0.0, 0.0, 1.0]])
    report = check_robust_nsp_kernel(A, np.ones(3), 1.0, rho=0.1, gamma=1.0, samples=0)
    assert report.status == "violated"
    v, S = report.witness_vector, report.witness_support
    comp = [i for i in range(3) if i not in S]
    lhs = np.linalg.norm(v[list(S)])
    rhs = (0.1 / math.sqrt(1.0)) * float(np.abs(v[comp]).sum())
    assert lhs > rhs
    assert np.linalg.norm(A @ v) <= 1e-10


def test_robust_kernel_certifies_when_rip_premise_holds():
    n = 17
    base = unitary_with_flat_first_row(n, seed=11, real=True)
    A = sample_partial_unitary(base, n - 1, seed=12, exclude_first_row=True).matrix
    w = np.ones(n)
    s = 2.2
    delta = rip_constant(A, w, WCARD, 3 * s).delta
    assert delta < 1.0 / 3.0
    consts = robust_nsp_constants_from_rip(delta)
    report = check_robust_nsp_kernel(A, w, s, consts.rho, consts.gamma, samples=40, seed=3)
    assert report.status == "certified-on-kernel"
    assert report.max_kernel_ratio <= consts.rho / math.sqrt(s) + 1e-9


def test_robust_kernel_undecided_when_search_skipped():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((11, 12))
    report = check_robust_nsp_kernel(A, np.ones(12), 2.0, rho=0.99, gamma=5.0, samples=0)
    assert report.status in ("undecided-off-kernel", "violated")


def _offkernel_search_scalar(A, prof, supports, threshold, gamma, samples, seed):
    """The off-kernel search one start at a time, as the program ran it
    before the lockstep batch: the same starts, step rule and stopping rules."""
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


def _robust_margin(A, w, S, threshold, gamma, v):
    comp = list(complement(S, A.shape[1]))
    return (
        np.linalg.norm(v[list(S)])
        - threshold * (w[comp] @ np.abs(v[comp]))
        - gamma * np.linalg.norm(A @ v)
    )


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
def test_offkernel_lockstep_matches_the_scalar_search(monkeypatch, complex_data):
    """Same support and verdict as the start-by-start search, the margin to
    rounding, whether the start margins run in one block or one support per
    block. The columns keep distinct norms: with unit columns every unit
    start that cannot climb ends at 1 - gamma, and rounding picks the lane."""
    rng = np.random.default_rng(61 + complex_data)
    for _ in range(6):
        n = int(rng.integers(6, 11))
        m = int(rng.integers(2, n))
        A = rng.standard_normal((m, n))
        if complex_data:
            A = A + 1j * rng.standard_normal((m, n))
        A /= math.sqrt(m)
        prof = as_weights(rng.uniform(1.0, 1.3, n))
        s = float(rng.uniform(1.2, 4.5))
        supports = list(maximal_admissible_supports(n, prof, WCARD, s))
        args = (A, prof, supports, float(rng.uniform(0.05, 1.0)) / math.sqrt(s),
                float(rng.uniform(0.2, 5.0)), int(rng.integers(0, 12)), int(rng.integers(0, 1000)))
        want, want_v, want_S = _offkernel_search_scalar(*args)
        for per_block in (None, 1):
            if per_block:
                monkeypatch.setattr(wcs.certify, "_VERTEX_BLOCK", per_block)
            got, v, S, evaluations = wcs.certify._offkernel_search(*args)
            monkeypatch.undo()
            assert S == want_S
            assert (got > 1e-9) == (want > 1e-9)
            assert got == pytest.approx(want, rel=1e-9)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            assert _robust_margin(A, prof.w, S, *args[3:5], v) == pytest.approx(got, rel=1e-12)
            assert evaluations > min(n, 8) + args[5]


def test_robust_offkernel_search_finds_a_violation_with_witness():
    """The kernel part certifies, and a small gamma lets the search find a
    unit vector off the kernel that breaks the full robust property."""
    n = 17
    base = unitary_with_flat_first_row(n, seed=11, real=True)
    A = sample_partial_unitary(base, n - 1, seed=12, exclude_first_row=True).matrix
    w, s, rho, gamma = np.ones(n), 2.2, 0.9, 0.5
    threshold = rho / math.sqrt(s)
    report = check_robust_nsp_kernel(A, w, s, rho, gamma, samples=10, seed=3)
    assert report.max_kernel_ratio <= threshold
    assert report.status == "violated" and report.satisfied is False
    assert report.search_margin > 0
    v, S = report.witness_vector, report.witness_support
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(A @ v) > 1e-3
    assert _robust_margin(A, w, S, threshold, gamma, v) == pytest.approx(
        report.search_margin, rel=1e-12
    )
    supports = list(maximal_admissible_supports(n, w, WCARD, s))
    want, _, want_S = _offkernel_search_scalar(A, as_weights(w), supports, threshold, gamma, 10, 3)
    assert S == want_S
    assert report.search_margin == pytest.approx(want, rel=1e-9)
    assert (report.kernel_path, report.kernel_vertices, report.offkernel_starts) == ("vertex", 1, 18)
    assert report.offkernel_evaluations > 18


def test_robust_without_admissible_supports_is_certified():
    """No single index fits the budget, so nothing can break the property;
    the off-kernel search has no lane to run."""
    A = np.random.default_rng(14).standard_normal((3, 5))
    report = check_robust_nsp_kernel(A, np.full(5, 2.0), 1.0, rho=0.5, gamma=1.0, samples=5)
    assert report.status == "certified-on-kernel"
    assert (report.supports_examined, report.kernel_path) == (0, "none")
    assert report.search_margin == -math.inf
    assert (report.offkernel_starts, report.offkernel_evaluations) == (0, 0)


def _l2_ratio_by_subsets(B, S, w):
    """Independent oracle: the largest ||v_S||_2 / ||v_{S^c}||_{w,1} over the
    vertices of {c : ||B_{S^c} c||_{w,1} <= 1}, one SVD per (d-1)-subset of S^c."""
    n, d = B.shape
    comp = [i for i in range(n) if i not in S]
    best = 0.0
    for J in combinations(comp, d - 1):
        v = B @ np.linalg.svd(B[list(J)], full_matrices=True)[2][-1]
        best = max(best, float(np.linalg.norm(v[list(S)]) / (w[comp] @ np.abs(v[comp]))))
    return best


def test_robust_kernel_ratio_exact_where_the_direction_lps_undershoot():
    rng = np.random.default_rng(37)
    n, d = int(rng.integers(8, 11)), int(rng.integers(2, 4))
    A = rng.standard_normal((n - d, n))
    A /= np.linalg.norm(A, axis=0)
    w, s = np.ones(n), 2.5
    B = null_space_basis(A)
    assert _l2_ratio_by_subsets(B, (4, 7), w) == pytest.approx(0.3835, abs=1e-4)

    supports = list(maximal_admissible_supports(n, w, WCARD, s))
    oracle = np.array([_l2_ratio_by_subsets(B, S, w) for S in supports])
    ratios, _, directions = _vertex_ratios(B, w, supports, "l2")
    assert directions == math.comb(n, d - 1)
    assert np.abs(ratios - oracle).max() <= 1e-12 * oracle.max()

    report = check_robust_nsp_kernel(A, w, s, rho=10.0, gamma=1.0, samples=0)
    assert report.status == "undecided-off-kernel"
    assert report.supports_examined == len(supports)
    assert report.max_kernel_ratio == pytest.approx(oracle.max(), rel=1e-12)

    # a threshold just below the ratio on (4, 7) is crossed first where the
    # oracle says, with a witness that replays the ratio
    threshold = oracle[supports.index((4, 7))] * (1.0 - 1e-6)
    first = int(np.argmax(oracle > threshold))
    report = check_robust_nsp_kernel(A, w, s, rho=threshold * math.sqrt(s), gamma=1.0, samples=0)
    assert report.status == "violated"
    assert report.witness_support == supports[first]
    assert report.supports_examined == first + 1
    assert report.max_kernel_ratio == pytest.approx(oracle[first], rel=1e-12)
    v, comp = report.witness_vector, complement(supports[first], n)
    assert np.linalg.norm(A @ v) <= 1e-12
    assert w[list(comp)] @ np.abs(v[list(comp)]) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(v[list(supports[first])]) == pytest.approx(oracle[first], rel=1e-12)


# ---------------------------------------------------------------------------
# disjoint support inner product bound


def test_disjoint_bound_orthonormal_columns():
    report = disjoint_inner_product_bound_check(np.eye(4), np.ones(4), 1, 1)
    assert report.max_coherence == pytest.approx(0.0, abs=1e-12)
    assert report.satisfied


def test_disjoint_bound_scaled_diagonal():
    A = np.diag([1.0, 1.0, 2.0])
    report = disjoint_inner_product_bound_check(A, np.ones(3), 1, 1)
    assert report.max_coherence == pytest.approx(0.0, abs=1e-12)
    assert report.delta == pytest.approx(3.0, abs=1e-12)


def test_disjoint_bound_random_pairs_below_delta():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((4, 8))
    A /= np.linalg.norm(A, axis=0)
    report = disjoint_inner_product_bound_check(A, np.ones(8), 1, 1)
    direct = max(
        abs(A[:, j] @ A[:, k]) for j in range(8) for k in range(8) if j != k
    )
    assert report.max_coherence == pytest.approx(direct, abs=1e-12)
    assert report.max_violation <= 1e-10


def test_disjoint_bound_larger_orders():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((5, 9))
    A /= np.linalg.norm(A, axis=0)
    report = disjoint_inner_product_bound_check(A, np.ones(9), 2, 1)
    assert report.max_violation <= 1e-10


def _disjoint_all_sizes(A, s, t):
    """Every disjoint pair with 1 <= |S| <= s and 1 <= |T| <= t, one SVD each."""
    n = A.shape[1]
    best = 0.0
    for size_s in range(1, s + 1):
        for S in combinations(range(n), size_s):
            rest = [i for i in range(n) if i not in S]
            for size_t in range(1, t + 1):
                for T in combinations(rest, size_t):
                    M = A[:, list(S)].conj().T @ A[:, list(T)]
                    best = max(best, float(np.linalg.svd(M, compute_uv=False)[0]))
    return best


@pytest.mark.parametrize(
    "m, n, s, t, complex_data",
    [(4, 8, 1, 1, False), (5, 9, 2, 1, True), (6, 11, 2, 2, False), (3, 5, 3, 3, True), (2, 4, 2, 3, False)],
)
def test_disjoint_bound_maximal_pairs_match_all_sizes_scan(m, n, s, t, complex_data):
    rng = np.random.default_rng(16 + n)
    A = rng.standard_normal((m, n))
    if complex_data:
        A = A + 1j * rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    report = disjoint_inner_product_bound_check(A, np.ones(n), s, t, raise_on_violation=False)
    best = _disjoint_all_sizes(A, s, t)
    assert abs(report.max_coherence - best) <= 1e-12
    assert report.satisfied == (best - report.delta <= 1e-10)
    S, T = report.attaining_pair
    assert not set(S) & set(T)
    if n >= s + t:
        assert (len(S), len(T)) == (s, t)
        assert report.pairs_examined == math.comb(n, s) * math.comb(n - s, t)
    else:
        assert len(S) + len(T) == n


# ---------------------------------------------------------------------------
# recovery equivalence


def test_equivalence_identity_trivial():
    verdict = exact_recovery_equivalence_test(np.eye(3), np.ones(3), CARD, 1)
    assert verdict.consistent
    assert verdict.gamma == 0.0


def test_equivalence_ones_row_exhibits_nonuniqueness():
    verdict = exact_recovery_equivalence_test(
        np.array([[1.0, 1.0, 1.0]]), np.ones(3), CARD, 1
    )
    assert verdict.mode == "non-uniqueness"
    assert verdict.consistent
    assert verdict.competitor_objective_gap >= -1e-8


def test_equivalence_partial_dft_sweep():
    sm = sample_partial_unitary(dft_matrix(12), 6, seed=0)
    verdict = exact_recovery_equivalence_test(sm, np.ones(12), CARD, 2, seed=0)
    assert verdict.mode == "recovery-sweep"
    assert verdict.supports_tested == 66
    assert verdict.consistent
    assert verdict.max_recovery_error <= 1e-6


def test_rip_scaling_recomputation_identity():
    # the scaled constant is the same support-wise extreme formula applied
    # to the scaled singular values
    rng = np.random.default_rng(21)
    A = rng.standard_normal((4, 7))
    A /= np.linalg.norm(A, axis=0)
    w = np.ones(7)
    extremes = []
    for S in maximal_admissible_supports(7, w, CARD, 2):
        evs = np.linalg.eigvalsh(A[:, list(S)].T @ A[:, list(S)])
        extremes.append((float(evs[0]), float(evs[-1])))
    for c in (0.5, 1.3, 2.0):
        expect = max(max(c * c * hi - 1.0, 1.0 - c * c * lo) for lo, hi in extremes)
        got = rip_constant(c * A, w, CARD, 2).delta
        assert got == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# fast paths against the per-support scans they replace


def _nsp_in_order(A, w, model, s, seed=0):
    """Every maximal support in enumeration order, one kernel ratio each."""
    n = A.shape[1]
    prof = as_weights(w, n)
    B = null_space_basis(A)
    if B.shape[1] == 0:
        return NspResult(0.0, True, None, None, 0, 0, s, model)
    best, best_support, witness, count = 0.0, None, None, 0
    for S in maximal_admissible_supports(n, prof, model, s):
        count += 1
        val, v = _max_kernel_ratio(B, S, complement(S, n), prof.w, "wl1", seed + count)
        if math.isinf(val):
            return NspResult(math.inf, False, S, v, count, B.shape[1], s, model)
        if val > best:
            best, best_support, witness = val, S, v
    return NspResult(
        best, best < 1.0 - CERTIFICATION_MARGIN, best_support, witness, count, B.shape[1], s, model
    )


def _rip_per_support(A, w, model, s):
    """One eigvalsh call per maximal support, first maximizer kept."""
    best, best_support, count = 0.0, None, 0
    for S in maximal_admissible_supports(A.shape[1], w, model, s):
        count += 1
        cols = A[:, list(S)]
        evs = np.linalg.eigvalsh(cols.conj().T @ cols)
        d_here = max(float(evs[-1]) - 1.0, 1.0 - float(evs[0]))
        if best_support is None or d_here > best:
            best, best_support = d_here, S
    return (best if best_support is not None else 0.0), best_support, count


def _bits(x):
    return None if x is None else np.asarray(x).tobytes()


def _flat_row_kernel(n, m, seed):
    base = unitary_with_flat_first_row(n, seed=seed, real=True)
    return sample_partial_unitary(base, m, seed=seed, exclude_first_row=True).matrix


def _gaussian(m, n, seed):
    A = np.random.default_rng(seed).standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def _hidden_in_late_support():
    # a_7 = -0.7 a_5 puts 0.7 e_5 + e_7 in the kernel, inside {5, 7}; the
    # per-index bounds of 5 and 7 then sum to 1 + 2e-15, just past one
    A = _gaussian(4, 8, 34)
    A[:, 7] = -0.7 * A[:, 5]
    return A


def _complex_hidden_in_late_support():
    # a_7 = (0.6 - 0.3i) a_5 puts (0.6 - 0.3i) e_5 - e_7 in the kernel, inside
    # {5, 7}, the 27th of the 28 supports of size two
    rng = np.random.default_rng(49)
    A = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    A[:, 7] = (0.6 - 0.3j) * A[:, 5]
    return A


def _partial_dft(n, m, seed):
    return sample_partial_unitary(dft_matrix(n), m, seed=seed).matrix


_NSP_CASES = {
    "gaussian-card": (_gaussian(6, 10, 31), np.random.default_rng(32).uniform(0.7, 1.0, 10), CARD, 2),
    "gaussian-card-s3": (_gaussian(7, 10, 33), np.ones(10), CARD, 3),
    "gaussian-wcard-mixed-sizes": (
        _gaussian(7, 11, 34), np.random.default_rng(35).uniform(1.0, 1.6, 11), WCARD, 3.5
    ),
    "kernel-dim-one": (_gaussian(8, 9, 36), np.random.default_rng(37).uniform(1.0, 1.15, 9), WCARD, 2.7),
    "flat-row-ties": (_flat_row_kernel(10, 9, 2), np.ones(10), CARD, 2),
    # the first tied maximizer by bound order is not the first by index
    "flat-row-ties-out-of-order": (_flat_row_kernel(9, 8, 6), np.ones(9), CARD, 3),
    "flat-row-wide": (_flat_row_kernel(12, 7, 38), np.ones(12), CARD, 2),
    "hidden-kernel-vector": (
        _hidden_in_late_support(), np.random.default_rng(34).uniform(0.7, 1.0, 8), CARD, 2
    ),
    "trivial-kernel": (_gaussian(6, 6, 39), np.ones(6), CARD, 2),
    # C(20, 9) = 167,960 vertex directions: past the budget, the LP path runs
    "gaussian-above-budget": (
        _gaussian(10, 20, 45), np.random.default_rng(46).uniform(0.7, 1.0, 20), CARD, 1
    ),
    # complex data: the lockstep ratio ascent against the scalar one
    "complex-dft-card": (
        _partial_dft(8, 5, 47), np.random.default_rng(47).uniform(0.7, 1.0, 8), CARD, 2
    ),
    "complex-dft-wcard-mixed-sizes": (
        _partial_dft(10, 6, 48), np.random.default_rng(48).uniform(1.0, 1.6, 10), WCARD, 3.5
    ),
    "complex-hidden-kernel-vector": (_complex_hidden_in_late_support(), np.ones(8), CARD, 2),
}


def _assert_vertex_result_matches_lp_oracle(A, w, got, want, rel=1e-12):
    """The vertex path computes gamma in closed form, so it agrees with the
    LP scan up to rounding; tied supports may differ, but the one reported
    attains gamma and the witness is a kernel vector with off-support mass 1."""
    n = A.shape[1]
    B = null_space_basis(A)
    assert got.kernel_vertices == math.comb(n, B.shape[1] - 1)
    assert (got.lp_calls, got.supports_pruned) == (0, 0)
    S, v = got.attaining_support, got.witness
    comp = complement(S, n)
    assert np.linalg.norm(A @ v) <= 1e-12 * max(1.0, np.linalg.norm(v))
    if math.isinf(want.gamma):
        assert math.isinf(got.gamma) and S == want.attaining_support
        assert np.abs(v[list(comp)]).max(initial=0.0) <= 1e-10 * np.abs(v).max()
        return
    assert got.gamma == pytest.approx(want.gamma, rel=rel)
    on_S, _ = _max_kernel_ratio(B, S, comp, as_weights(w, n).w, "wl1", 0)
    assert on_S == pytest.approx(got.gamma, rel=rel)
    assert w[list(comp)] @ np.abs(v[list(comp)]) == pytest.approx(1.0, rel=1e-12)
    assert w[list(S)] @ np.abs(v[list(S)]) == pytest.approx(got.gamma, rel=rel)


def _assert_ascent_result_matches_in_order_scan(A, w, model, s, got, want):
    """The lockstep ascent runs the scalar ascent's starts, seeds and rules,
    but its batched products round differently; where that flips a step
    comparison, a single support's value moves (by up to 2e-4 on the README
    matrix) while gamma does not. So: the same verdict and count, gamma
    within 1e-9, and a support whose scalar ratio is within 1e-9 of gamma,
    with a witness that replays it."""
    assert (got.satisfied, got.kernel_dim, got.supports_examined) == (
        want.satisfied, want.kernel_dim, want.supports_examined
    )
    assert (got.lp_calls, got.supports_pruned, got.kernel_vertices) == (0, 0, 0)
    S, v = got.attaining_support, got.witness
    if math.isinf(want.gamma):
        assert math.isinf(got.gamma) and S == want.attaining_support
        assert _bits(v) == _bits(want.witness)
        return
    assert got.gamma == pytest.approx(want.gamma, rel=1e-9)
    n = A.shape[1]
    k = list(maximal_admissible_supports(n, w, model, s)).index(S)
    comp = complement(S, n)
    on_S, _ = _max_kernel_ratio(null_space_basis(A), S, comp, as_weights(w, n).w, "wl1", k + 1)
    assert on_S == pytest.approx(got.gamma, rel=1e-9)
    assert np.linalg.norm(A @ v) <= 1e-12 * max(1.0, np.linalg.norm(v))
    assert w[list(comp)] @ np.abs(v[list(comp)]) == pytest.approx(1.0, rel=1e-12)
    assert w[list(S)] @ np.abs(v[list(S)]) == pytest.approx(got.gamma, rel=1e-12)


@pytest.mark.parametrize("case", sorted(_NSP_CASES))
def test_nsp_pruned_scan_matches_in_order_scan_bitwise(case):
    """Bitwise on the LP path (above the vertex budget); on the vertex path
    within 1e-12 with the same verdict and support count; on complex data
    within 1e-9 (see _assert_ascent_result_matches_in_order_scan)."""
    A, w, model, s = _NSP_CASES[case]
    want = _nsp_in_order(A, w, model, s)
    got = nsp_constant(A, w, model, s)
    assert got.supports_examined == want.supports_examined
    assert got.kernel_dim == want.kernel_dim
    assert got.satisfied == want.satisfied
    if got.kernel_vertices:
        _assert_vertex_result_matches_lp_oracle(A, w, got, want)
    elif np.iscomplexobj(A):
        _assert_ascent_result_matches_in_order_scan(A, w, model, s, got, want)
    else:
        assert float(got.gamma).hex() == float(want.gamma).hex()
        assert got.attaining_support == want.attaining_support
        assert _bits(got.witness) == _bits(want.witness)
    if case == "hidden-kernel-vector":
        assert math.isinf(got.gamma) and got.attaining_support == (5, 7)
    if case == "trivial-kernel":
        assert (got.supports_examined, got.lp_calls, got.kernel_vertices) == (0, 0, 0)
    if case == "gaussian-above-budget":
        assert got.kernel_vertices == 0
    if case == "complex-dft-wcard-mixed-sizes":
        assert len({len(S) for S in maximal_admissible_supports(10, w, model, s)}) > 1
    if case == "complex-hidden-kernel-vector":
        assert math.isinf(got.gamma) and got.attaining_support == (5, 7)


def test_nsp_pruning_skips_supports_and_counts_its_programs():
    A, w, model, s = _NSP_CASES["gaussian-above-budget"]
    res = nsp_constant(A, w, model, s)
    n = A.shape[1]
    assert 0 < res.supports_pruned < res.supports_examined
    # n bound programs, then 2^(|S|-1) sign patterns per visited support
    visited = res.supports_examined - res.supports_pruned
    assert res.lp_calls == n + visited * 2 ** (s - 1)
    assert res.kernel_vertices == 0


def test_nsp_complex_scan_reports_no_pruning():
    sm = sample_partial_unitary(dft_matrix(8), 5, seed=0)
    res = nsp_constant(sm, np.ones(8), CARD, 1)
    assert (res.supports_examined, res.supports_pruned, res.lp_calls, res.kernel_vertices) == (
        8, 0, 0, 0
    )
    assert res.ascent_evaluations > 8 * _ASCENT_RESTARTS


@st.composite
def _complex_two_dim_kernels(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 7))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n - 2, n)) + 1j * rng.standard_normal((n - 2, n))
    w = rng.uniform(0.7, 1.4, n)
    numerator = draw(st.sampled_from(["wl1", "l2"]))
    if draw(st.booleans()):
        return A, w, CARD, draw(st.integers(1, n - 2)), numerator
    return A, w, WCARD, draw(st.floats(2.0, 5.0)), numerator


def _grid_ratios(B, w, supports, numerator):
    """Largest ratio per support over the dense grid c = (cos a, sin a e^{i theta})."""
    a, th = np.meshgrid(
        np.linspace(0, np.pi / 2, 150), np.linspace(0, 2 * np.pi, 300, endpoint=False)
    )
    C = np.stack([np.cos(a).ravel(), (np.sin(a) * np.exp(1j * th)).ravel()], axis=1)
    mod = np.abs(C @ B.T)
    inside = np.zeros((len(supports), B.shape[0]))
    for k, S in enumerate(supports):
        inside[k, list(S)] = 1.0
    off = (w * mod) @ (1.0 - inside).T
    on = np.sqrt(np.square(mod) @ inside.T) if numerator == "l2" else (w * mod) @ inside.T
    return np.where(off > 1e-12, on / np.maximum(off, 1e-12), 0.0).max(axis=0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_complex_two_dim_kernels())
def test_lockstep_ascent_dominates_the_grid_on_two_dim_kernels(instance):
    """Both numerators and both models, with supports of mixed sizes in one
    batch: every support's value is at least the dense grid's, and attained.

    The ascent is a local search. On about 2 in 1,000 supports all twelve
    restarts stop at a local maximum below the grid (one 7-column instance:
    0.82064 against 0.82324); there the scalar ascent stops at the same
    value, so the shortfall belongs to the method and not to the batch."""
    A, w, model, s, numerator = instance
    n = A.shape[1]
    B = null_space_basis(A)
    assert B.shape[1] == 2
    supports = [
        S for S in maximal_admissible_supports(n, w, model, s)
        if _hidden_kernel_vector(B, complement(S, n)) is None
    ]
    ratios, coeffs, evaluations = _ratio_ascent(B, supports, w, numerator, seed=1)
    assert ratios.shape == (len(supports),) and evaluations >= len(supports)
    grid = _grid_ratios(B, w, supports, numerator)
    for k in np.flatnonzero(ratios < grid - 1e-9):
        S = supports[k]
        scalar, _ = _ratio_ascent_scalar(B, S, complement(S, n), w, numerator, seed=1 + k)
        assert ratios[k] == pytest.approx(scalar, rel=1e-9)
    for S, val, c in zip(supports, ratios, coeffs):
        v = B @ c
        comp = list(complement(S, n))
        on = np.linalg.norm(v[list(S)]) if numerator == "l2" else w[list(S)] @ np.abs(v[list(S)])
        assert on == pytest.approx(val * (w[comp] @ np.abs(v[comp])), rel=1e-12)


def test_complex_blocks_do_not_change_the_result(monkeypatch):
    """Supports spread over several blocks of three keep their seeds, so
    the support, the count and gamma stay (gamma to rounding)."""
    A, w, model, s = _NSP_CASES["complex-dft-wcard-mixed-sizes"]
    n = A.shape[1]
    whole = nsp_constant(A, w, model, s)
    robust = check_robust_nsp_kernel(A, w, s, rho=10.0, gamma=1.0, samples=0)
    monkeypatch.setattr(wcs.certify, "_VERTEX_BLOCK", 3 * _ASCENT_RESTARTS * n)
    blocked = nsp_constant(A, w, model, s)
    assert blocked.supports_examined == whole.supports_examined > 6
    assert blocked.attaining_support == whole.attaining_support
    assert blocked.gamma == pytest.approx(whole.gamma, rel=1e-12)
    robust_blocked = check_robust_nsp_kernel(A, w, s, rho=10.0, gamma=1.0, samples=0)
    assert robust_blocked.status == robust.status == "undecided-off-kernel"
    assert robust_blocked.supports_examined == robust.supports_examined
    assert robust_blocked.max_kernel_ratio == pytest.approx(robust.max_kernel_ratio, rel=1e-12)


_ROBUST_SCAN_CASES = {
    "ascent": (_partial_dft(8, 5, 50), np.random.default_rng(50).uniform(0.8, 1.2, 8), 2.0),
    # C(17, 7) = 19,448 vertex directions, past the null space constant's budget
    "vertex": (_gaussian(9, 17, 51), np.random.default_rng(51).uniform(1.0, 1.05, 17), 1.2),
}


@pytest.mark.parametrize("path", sorted(_ROBUST_SCAN_CASES))
def test_robust_kernel_ratio_matches_the_per_support_scan(path):
    """The l2 numerator on complex data, supports of mixed sizes, and on
    real data past the null space constant's vertex budget: the largest
    ratio, and the first support crossing a threshold just below it, are
    those of the scalar ascent or the exact oracle run support by support,
    the exact ones to 1e-12 relative."""
    A, w, s = _ROBUST_SCAN_CASES[path]
    rel = 1e-9 if path == "ascent" else 1e-12
    n = A.shape[1]
    B = null_space_basis(A)
    supports = list(maximal_admissible_supports(n, w, WCARD, s))
    if path == "ascent":
        assert len({len(S) for S in supports}) > 1
    oracle = np.array([
        _max_kernel_ratio(B, S, complement(S, n), w, "l2", k + 1)[0] for k, S in enumerate(supports)
    ])
    report = check_robust_nsp_kernel(A, w, s, rho=10.0, gamma=1.0, samples=0)
    assert report.kernel_path == path
    assert report.status == "undecided-off-kernel"
    assert report.supports_examined == len(supports)
    assert report.max_kernel_ratio == pytest.approx(oracle.max(), rel=rel)
    threshold = 0.999 * oracle.max()
    first = int(np.argmax(oracle > threshold))
    report = check_robust_nsp_kernel(A, w, s, rho=threshold * math.sqrt(s), gamma=1.0, samples=0)
    assert report.status == "violated"
    assert (report.witness_support, report.supports_examined) == (supports[first], first + 1)
    assert report.max_kernel_ratio == pytest.approx(oracle[first], rel=rel)
    v, comp = report.witness_vector, complement(supports[first], n)
    assert np.linalg.norm(A @ v) <= 1e-12 * np.linalg.norm(v)
    assert w[list(comp)] @ np.abs(v[list(comp)]) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(v[list(supports[first])]) == pytest.approx(oracle[first], rel=rel)


@pytest.mark.parametrize("per_block", [None, 10])
def test_complex_kernel_vector_hidden_in_a_late_support(monkeypatch, per_block):
    A = _complex_hidden_in_late_support()
    n = A.shape[1]
    w = np.ones(n)
    if per_block:
        monkeypatch.setattr(wcs.certify, "_VERTEX_BLOCK", per_block * _ASCENT_RESTARTS * n)
    k = list(maximal_admissible_supports(n, w, CARD, 2)).index((5, 7))
    res = nsp_constant(A, w, CARD, 2)
    assert math.isinf(res.gamma) and not res.satisfied
    assert (res.attaining_support, res.supports_examined) == ((5, 7), k + 1)
    # the block holding the hidden support skips the ascent
    assert (res.ascent_evaluations == 0) == (per_block is None)
    v = res.witness
    assert np.linalg.norm(A @ v) <= 1e-10 and np.abs(v[[0, 1, 2, 3, 4, 6]]).max() <= 1e-10
    report = check_robust_nsp_kernel(A, w, 2.0, rho=1e6, gamma=1.0, samples=0)
    assert report.status == "violated" and math.isinf(report.max_kernel_ratio)
    assert (report.witness_support, report.supports_examined) == ((5, 7), k + 1)
    assert np.linalg.norm(A @ report.witness_vector) <= 1e-10


@st.composite
def _real_nsp_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(3, 8))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if m > 1 and draw(st.booleans()):  # rank-deficient: one row repeats a mix of the others
        A[-1] = rng.standard_normal(m - 1) @ A[:-1]
    if draw(st.booleans()):  # a scaled duplicate column hides a kernel vector in two indices
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        A[:, j] = draw(st.sampled_from([1.0, -0.5, 2.0])) * A[:, i]
    w = rng.uniform(0.6, 1.4, n)
    if draw(st.booleans()):
        return A, w, CARD, draw(st.integers(1, 3))
    return A, w, WCARD, draw(st.floats(1.0, 4.0))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_real_nsp_instances())
def test_nsp_vertex_path_matches_lp_oracle(instance):
    """Within 1e-9 here, not 1e-12: HiGHS drops constraint entries below 1e-9,
    so where a duplicate column leaves rounding-level entries in the kernel
    basis, the LP oracle itself moves by about 1e-11 relative."""
    A, w, model, s = instance
    want = _nsp_in_order(A, w, model, s)
    got = nsp_constant(A, w, model, s)
    assert (got.satisfied, got.kernel_dim, got.supports_examined) == (
        want.satisfied, want.kernel_dim, want.supports_examined
    )
    if got.kernel_dim and got.supports_examined:
        _assert_vertex_result_matches_lp_oracle(A, w, got, want, rel=1e-9)


_RIP_CASES = {
    "gaussian-card": (_gaussian(5, 9, 40), np.ones(9), CARD, 3),
    "complex-dft-wcard-mixed-sizes": (
        sample_partial_unitary(dft_matrix(12), 7, seed=41).matrix,
        np.random.default_rng(42).uniform(1.0, 1.6, 12),
        WCARD,
        4.5,
    ),
    "flat-row-ties-across-chunks": (_flat_row_kernel(16, 15, 43), np.ones(16), CARD, 4),
    "no-admissible-support": (_gaussian(4, 6, 44), np.full(6, 1.5), WCARD, 1.0),
}


@pytest.mark.parametrize("case", sorted(_RIP_CASES))
def test_rip_batched_matches_per_support_bitwise(case):
    A, w, model, s = _RIP_CASES[case]
    delta, support, count = _rip_per_support(A, w, model, s)
    got = rip_constant(A, w, model, s)
    assert float(got.delta).hex() == float(delta).hex()
    assert got.attaining_support == support
    assert got.supports_examined == count
    if case == "complex-dft-wcard-mixed-sizes":
        sizes = {len(S) for S in maximal_admissible_supports(12, w, model, s)}
        assert len(sizes) > 1
    if case == "flat-row-ties-across-chunks":
        assert count > 1024
    if case == "no-admissible-support":
        assert (count, support) == (0, None)


_README_CERTIFY = {
    "property": "nsp",
    "model": "cardinality",
    "s": 2,
    "weights": {"kind": "uniform"},
    "generator": {"kind": "dft-rows", "n": 12, "m": 6, "seed": 0},
}
_REAL_CERTIFY = {
    "property": "nsp",
    "model": "cardinality",
    "s": 2,
    "weights": {"kind": "uniform"},
    "generator": {"kind": "orthogonal-rows", "n": 14, "m": 9, "seed": 3},
}


@pytest.mark.parametrize("config", [_README_CERTIFY, _REAL_CERTIFY], ids=["readme-dft", "orthogonal-rows"])
def test_certify_nsp_result_bytes_match_in_order_scan(tmp_path, capsys, config):
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(config))
    code = cli.main(["certify", "--config", str(path)])
    report = json.loads(capsys.readouterr().out)
    A = cli._load_matrix(config)
    w = cli._load_weights(config, A.shape[1])
    oracle = _nsp_in_order(A, w, CARD, 2.0)
    expected = nsp_constant(A, w, CARD, 2.0)
    if np.iscomplexobj(A):
        _assert_ascent_result_matches_in_order_scan(A, w, CARD, 2.0, expected, oracle)
    else:
        assert (expected.satisfied, expected.kernel_dim, expected.supports_examined) == (
            oracle.satisfied, oracle.kernel_dim, oracle.supports_examined
        )
        _assert_vertex_result_matches_lp_oracle(A, w, expected, oracle)
    want = CertificationReport.from_nsp(expected, w)
    assert json.dumps(report["result"], sort_keys=True) == json.dumps(
        json.loads(json.dumps(cli._jsonable(want))), sort_keys=True
    )
    assert code == (2 if want.satisfied is False else 0)
    telemetry = report["telemetry"]
    assert set(telemetry) == {
        "ascent_evaluations", "kernel_vertices", "lp_calls", "supports_pruned", "wall_time_s"
    }
    assert {k: telemetry[k] for k in set(telemetry) - {"wall_time_s"}} == {
        "ascent_evaluations": expected.ascent_evaluations,
        "kernel_vertices": expected.kernel_vertices,
        "lp_calls": expected.lp_calls,
        "supports_pruned": expected.supports_pruned,
    }
    assert (telemetry["ascent_evaluations"] > 0) == bool(np.iscomplexobj(A))


_README_ROBUST = {
    "property": "robust-nsp",
    "model": "weighted-cardinality",
    "s": 1.5,
    "rho": 1,
    "gamma": 4,
    "weights": {"kind": "random", "low": 1.0, "high": 1.05, "seed": 3},
    "generator": {"kind": "orthogonal-rows", "n": 12, "m": 10, "seed": 0},
}


def test_certify_robust_nsp_result_bytes_match_the_scalar_search(tmp_path, capsys, monkeypatch):
    """The lockstep search leaves the result bytes of the start-by-start
    search, and its work counts go to telemetry only."""
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(_README_ROBUST))
    assert cli.main(["certify", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    telemetry = report["telemetry"]
    assert set(telemetry) == {*cli.ROBUST_TELEMETRY, "wall_time_s"}
    assert telemetry["kernel_path"] == "vertex"
    assert telemetry["offkernel_starts"] == 8 + 100
    assert telemetry["offkernel_evaluations"] > 108

    def scalar(*args):
        return (*_offkernel_search_scalar(*args), 0)

    monkeypatch.setattr(wcs.certify, "_offkernel_search", scalar)
    A = cli._load_matrix(_README_ROBUST)
    w = cli._load_weights(_README_ROBUST, A.shape[1])
    want = CertificationReport.from_robust(check_robust_nsp_kernel(A, w, 1.5, 1.0, 4.0), w)
    assert want.status == "certified-on-kernel"
    assert json.dumps(report["result"], sort_keys=True) == json.dumps(
        json.loads(json.dumps(cli._jsonable(want))), sort_keys=True
    )
