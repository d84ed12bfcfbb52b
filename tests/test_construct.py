"""Partial unitary sampling, the counterexample bundle, and scaling attacks."""

import math

import numpy as np
import pytest

from wcs.bounds import robust_nsp_constants_from_rip
from wcs.certify import nsp_constant, rip_constant
from wcs.construct import (
    ConstructionError,
    build_counterexample,
    dft_matrix,
    sample_partial_unitary,
    shrink_to_break_robust_nsp,
    unitary_with_flat_first_row,
    verify_nsp_of_counterexample,
)
from wcs.core import BudgetError, SparseModel

CARD = SparseModel.CARDINALITY
WCARD = SparseModel.WEIGHTED_CARDINALITY


# ---------------------------------------------------------------------------
# partial unitary sampling


def test_dft_matrix_is_unitary_with_flat_first_row():
    U = dft_matrix(6)
    assert np.abs(U @ U.conj().T - np.eye(6)).max() <= 1e-12
    assert np.abs(U[0] - 1.0 / math.sqrt(6)).max() <= 1e-12


def test_flat_first_row_unitary_real_and_complex():
    for real in (True, False):
        U = unitary_with_flat_first_row(7, seed=1, real=real)
        assert np.abs(U @ U.conj().T - np.eye(7)).max() <= 1e-10
        assert np.abs(U[0] - U[0, 0]).max() <= 1e-10  # constant first row


def test_excluding_first_dft_row_puts_ones_in_kernel():
    sm = sample_partial_unitary(dft_matrix(4), 2, seed=0, exclude_first_row=True)
    assert np.linalg.norm(sm.matrix @ np.ones(4)) <= 1e-10
    assert 0 not in sm.provenance.rows


def test_full_sampling_returns_the_base():
    U = dft_matrix(5)
    sm = sample_partial_unitary(U, 5, seed=3)
    assert np.abs(sm.matrix - U).max() <= 1e-12
    assert rip_constant(sm, np.ones(5), CARD, 3).delta == pytest.approx(0.0, abs=1e-10)


def test_sampling_is_deterministic_per_seed():
    U = dft_matrix(9)
    a = sample_partial_unitary(U, 4, seed=42)
    b = sample_partial_unitary(U, 4, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.provenance.rows == b.provenance.rows


def test_sampling_entry_normalization():
    sm = sample_partial_unitary(dft_matrix(8), 3, seed=1)
    t = sm.provenance.rows[0]
    expect = np.exp(2j * np.pi * t * np.arange(8) / 8) / math.sqrt(3)
    assert np.abs(sm.matrix[0] - expect).max() <= 1e-12


def test_sampling_errors():
    U = dft_matrix(4)
    with pytest.raises(ConstructionError, match="cannot select"):
        sample_partial_unitary(U, 5, seed=0)
    with pytest.raises(ConstructionError, match="after exclusion"):
        sample_partial_unitary(U, 4, seed=0, exclude_first_row=True)
    with pytest.raises(ConstructionError, match="not unitary"):
        sample_partial_unitary(np.ones((3, 3)), 2, seed=0)


def test_sampling_with_replacement_allows_duplicates():
    U = dft_matrix(5)
    seen_dup = False
    for seed in range(40):
        sm = sample_partial_unitary(U, 4, seed=seed, with_replacement=True)
        if len(set(sm.provenance.rows)) < 4:
            seen_dup = True
            break
    assert seen_dup


def test_full_dft_column_gram_is_identity():
    U = dft_matrix(7)
    assert np.abs(U.conj().T @ U - np.eye(7)).max() <= 1e-12


# ---------------------------------------------------------------------------
# counterexample bundle


def _bundle_invariants(b):
    n = b.weights.size
    m = b.phi.matrix.shape[0]
    dg = b.diagnostics
    assert dg["orthonormality_error"] <= 1e-10
    assert dg["d_kernel_residual"] <= 1e-9
    assert dg["phi1_dot_d"] <= 1e-10
    assert dg["phi1_norm_error"] <= 1e-10
    assert dg["rho_residual_relative"] <= 1e-8
    assert dg["xhat_closed_form_error"] <= 1e-8
    assert dg["alpha_in_bracket"]
    # kernel dimension accounting
    assert b.null_basis.shape == (n, n - m)
    assert b.lifted_basis.shape[1] == n - m - 1
    assert np.abs(b.phi.matrix @ b.null_basis).max() <= 1e-9
    # closed form of the planted difference
    assert np.abs(b.xhat[: b.k] + b.alpha).max() <= 1e-9
    assert np.abs(b.xhat[b.k :]).max() == 0.0
    assert b.phi_normalizer == pytest.approx(
        math.sqrt(n + (b.alpha**2 - 1) * b.k), rel=1e-12
    )


def test_counterexample_weighted_model_desk_instance():
    rng = np.random.default_rng(0)
    w = rng.uniform(1.0, 1.1, 64)
    b = build_counterexample(w, 4.0, 20, 64, WCARD, seed=1)
    assert b.k >= 1 and b.k <= 4
    _bundle_invariants(b)
    assert b.premises["N_ge_24_wmax2_s"] == (64 >= 24 * w.max() ** 2 * 4.0)
    assert b.premises["s_gt_23040_wmax6"] is False


def test_counterexample_cardinality_model_desk_instance():
    rng = np.random.default_rng(1)
    w = rng.uniform(0.8, 1.0, 64)
    b = build_counterexample(w, 4, 20, 64, CARD, seed=2)
    assert b.k == 4
    _bundle_invariants(b)


def test_counterexample_norm_comparison_when_premise_holds():
    # N >= 24 * wmax^2 * s makes the planted vector's competitor lighter
    rng = np.random.default_rng(2)
    w = rng.uniform(1.0, 1.02, 100)
    b = build_counterexample(w, 4.0, 20, 100, WCARD, seed=3)
    assert b.premises["N_ge_24_wmax2_s"]
    assert b.diagnostics["xhat_le_x0"]
    w2 = rng.uniform(0.8, 1.0, 100)
    b2 = build_counterexample(w2, 4, 20, 100, CARD, seed=4)
    assert b2.premises["N_ge_24_s"]
    assert b2.diagnostics["xhat_le_x0"]


def test_counterexample_within_cap_certifies_nsp():
    rng = np.random.default_rng(3)
    base = unitary_with_flat_first_row(14, seed=7, real=True)
    w = rng.uniform(1.0, 1.05, 16)
    b = build_counterexample(w, 3.0, 15, 16, WCARD, seed=5, inner_base=base)
    assert b.inner_certified
    assert b.inner_gamma <= 1.0 / 3.0 + 1e-9
    res = verify_nsp_of_counterexample(b, mode="exact")
    assert res.verdict
    assert res.gamma < 1.0


def test_counterexample_sampled_mode_agrees_with_exact():
    rng = np.random.default_rng(4)
    base = unitary_with_flat_first_row(14, seed=8, real=True)
    w = rng.uniform(0.8, 1.0, 16)
    b = build_counterexample(w, 2, 15, 16, CARD, seed=6, inner_base=base)
    exact = verify_nsp_of_counterexample(b, mode="exact")
    sampled = verify_nsp_of_counterexample(b, mode="sampled", samples=30, support_samples=200)
    assert exact.verdict == sampled.verdict
    assert sampled.min_margin > 0
    inter = sampled.intermediate
    assert inter["strictly_below"] == 1.0
    assert inter["prefix_mass_measured"] == pytest.approx(
        inter["prefix_mass_closed_form"], rel=1e-12
    )


def test_counterexample_closed_form_prefix_sums():
    rng = np.random.default_rng(5)
    w = rng.uniform(1.0, 1.1, 32)
    b = build_counterexample(w, 3.0, 12, 32, WCARD, seed=7, certify_inner="skip")
    inter = verify_nsp_of_counterexample(b, mode="sampled", samples=5).intermediate
    n, k = 32, b.k
    assert inter["prefix_mass_closed_form"] == pytest.approx(
        (n - 4 * k) / 2 * (1 - 2.0**-k)
    )
    assert inter["half_tail_sum"] == pytest.approx((n - k) / 2)


def test_counterexample_rejects_degenerate_dimensions():
    with pytest.raises(ConstructionError, match="N > 4k"):
        build_counterexample(np.ones(12), 3, 8, 12, CARD, seed=0)
    with pytest.raises(ConstructionError, match="m > k"):
        build_counterexample(np.ones(20), 4, 4, 20, CARD, seed=0)
    with pytest.raises(ConstructionError, match="m < N"):
        build_counterexample(np.ones(20), 2, 20, 20, CARD, seed=0)
    with pytest.raises(ConstructionError, match="weights >= 1"):
        build_counterexample(np.full(20, 0.9), 2.0, 10, 20, WCARD, seed=0)
    with pytest.raises(ConstructionError, match="weights <= 1"):
        build_counterexample(np.full(20, 1.1), 2, 10, 20, CARD, seed=0)


def test_counterexample_invariants_across_seeds():
    rng = np.random.default_rng(6)
    for seed in range(4):
        w = rng.uniform(1.0, 1.2, 40)
        b = build_counterexample(w, 4.0, 14, 40, WCARD, seed=seed, certify_inner="skip")
        _bundle_invariants(b)
        w2 = rng.uniform(0.8, 1.0, 40)
        b2 = build_counterexample(w2, 3, 14, 40, CARD, seed=seed, certify_inner="skip")
        _bundle_invariants(b2)


# ---------------------------------------------------------------------------
# shrink attack on the robust property


def _robust_ready_instance():
    n = 17
    base = unitary_with_flat_first_row(n, seed=11, real=True)
    A = sample_partial_unitary(base, n - 1, seed=12, exclude_first_row=True).matrix
    w = np.ones(n)
    s = 2.2
    delta = rip_constant(A, w, WCARD, 3 * s).delta
    consts = robust_nsp_constants_from_rip(delta)
    return A, w, s, consts


def test_shrink_basis_vector_witness():
    A, w, s, consts = _robust_ready_instance()
    x = np.zeros(17)
    x[0] = 1.0
    res = shrink_to_break_robust_nsp(A, w, s, consts.rho, consts.gamma, x)
    assert res.violated
    assert 0 in res.support
    assert res.factor < res.factor_critical
    # replay directly from the returned matrix
    comp = [i for i in range(17) if i not in res.support]
    lhs = np.linalg.norm(x[list(res.support)])
    rhs = consts.rho / math.sqrt(s) * float(np.abs(x[comp]).sum()) + consts.gamma * float(
        np.linalg.norm(res.matrix.matrix @ x)
    )
    assert lhs > rhs


def test_shrink_further_scaling_still_violates():
    A, w, s, consts = _robust_ready_instance()
    x = np.zeros(17)
    x[0] = 1.0
    res = shrink_to_break_robust_nsp(A, w, s, consts.rho, consts.gamma, x)
    half = 0.5 * res.matrix.matrix
    comp = [i for i in range(17) if i not in res.support]
    rhs = consts.rho / math.sqrt(s) * float(np.abs(x[comp]).sum()) + consts.gamma * float(
        np.linalg.norm(half @ x)
    )
    assert np.linalg.norm(x[list(res.support)]) > rhs


def test_shrink_preserves_kernel_hence_nsp_constant():
    A, w, s, consts = _robust_ready_instance()
    x = np.zeros(17)
    x[0] = 1.0
    res = shrink_to_break_robust_nsp(A, w, s, consts.rho, consts.gamma, x)
    g1 = nsp_constant(A, w, WCARD, s).gamma
    g2 = nsp_constant(res.matrix.matrix, w, WCARD, s).gamma
    assert g2 == pytest.approx(g1, abs=1e-10)


def test_shrink_rejects_kernel_witness():
    A, w, s, consts = _robust_ready_instance()
    kernel_vec = np.ones(17)  # the flat excluded row spans the kernel
    with pytest.raises(ConstructionError, match="kernel|support"):
        shrink_to_break_robust_nsp(A, w, s, consts.rho, consts.gamma, kernel_vec)


@pytest.mark.parametrize("s", [0.0, -1.0])
def test_shrink_rejects_a_nonpositive_budget(s):
    # the supports are enumerated before rho / sqrt(s) is formed
    A, w, _, consts = _robust_ready_instance()
    x = np.zeros(17)
    x[0] = 1.0
    with pytest.raises(BudgetError):
        shrink_to_break_robust_nsp(A, w, s, consts.rho, consts.gamma, x)


def test_verify_mode_auto_dispatch():
    rng = np.random.default_rng(7)
    w = rng.uniform(1.0, 1.1, 40)
    b = build_counterexample(w, 4.0, 14, 40, WCARD, seed=3, certify_inner="skip")
    assert verify_nsp_of_counterexample(b, samples=5, support_samples=50).mode == "sampled"
    base = unitary_with_flat_first_row(14, seed=9, real=True)
    w2 = rng.uniform(1.0, 1.05, 16)
    b2 = build_counterexample(w2, 3.0, 15, 16, WCARD, seed=4, inner_base=base)
    assert verify_nsp_of_counterexample(b2).mode == "exact"


def test_counterexample_recovery_program_prefers_competitor():
    # solving the bundle's own noisy program returns an objective no worse
    # than the planted competitor, so the original vector is not recovered
    from wcs.core import weighted_l1_norm
    from wcs.solver import solve_weighted_bpdn

    rng = np.random.default_rng(8)
    w = rng.uniform(1.0, 1.02, 100)
    b = build_counterexample(w, 4.0, 20, 100, WCARD, seed=6)
    assert b.diagnostics["xhat_le_x0"]
    out = solve_weighted_bpdn(b.phi.matrix, b.y, w, epsilon=b.phi_normalizer)
    assert out.residual <= b.phi_normalizer + 1e-6
    xhat_obj = weighted_l1_norm(b.xhat, w)
    x0_obj = weighted_l1_norm(b.x0, w)
    assert out.objective <= xhat_obj * (1 + 1e-6)
    assert out.objective < x0_obj  # the planted vector loses
    assert np.linalg.norm(out.x - b.x0) > 1.0  # recovery gap is macroscopic
