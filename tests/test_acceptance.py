"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is deferred to calibration.
"""

import itertools
import math

import numpy as np
import pytest

from wcs.bounds import (
    largest_singular_value,
    operator_norm_bound,
    recovery_constants_floor_weights,
    robust_nsp_constants_from_rip,
)
from wcs.certify import (
    exact_recovery_equivalence_test,
    nsp_constant,
    rip_constant,
)
from wcs.construct import (
    build_counterexample,
    sample_partial_unitary,
    shrink_to_break_robust_nsp,
    unitary_with_flat_first_row,
)
from wcs.core import (
    SparseModel,
    best_weighted_s_term,
    build_partition,
    enumerate_admissible_supports,
)
from wcs.solver import solve_weighted_bp, solve_weighted_bpdn

CARD = SparseModel.CARDINALITY
WCARD = SparseModel.WEIGHTED_CARDINALITY


def _passline(text):
    print(f"\nPASS: {text}")


def _flat_partial(n, m, seed, exclude_first=False):
    base = unitary_with_flat_first_row(n, seed=seed, real=True)
    return sample_partial_unitary(base, m, seed=seed + 1000, exclude_first_row=exclude_first).matrix


# ---------------------------------------------------------------------------
# 1. exact recovery equivalence


def test_acceptance_recovery_equivalence_sweep():
    """Certifier verdict vs exhaustive recovery on 50 matrices, both models."""
    rng = np.random.default_rng(2024)
    satisfied = violated = 0
    total = 0
    for trial in range(50):
        r = np.random.default_rng([11, trial])
        kind = trial % 5
        if kind in (0, 1):  # small Gaussian, order one: usually satisfied
            m, n = [(4, 8), (5, 9), (6, 8), (6, 10)][int(r.integers(0, 4))]
            A = r.standard_normal((m, n))
            A /= np.linalg.norm(A, axis=0)
            s: float = 1
            model = CARD
            w = r.uniform(0.7, 1.0, n)
        elif kind == 2:  # mid-size, order two: mixed verdicts
            m, n = [(6, 10), (7, 12)][int(r.integers(0, 2))]
            A = r.standard_normal((m, n))
            A /= np.linalg.norm(A, axis=0)
            s = 2
            model = CARD
            w = r.uniform(0.7, 1.0, n)
        elif kind == 3:  # wide, orders two and three: usually violated
            m, n = 8, 14
            A = r.standard_normal((m, n))
            A /= np.linalg.norm(A, axis=0)
            s = int(r.integers(2, 4))
            model = CARD
            w = r.uniform(0.7, 1.0, n)
        else:  # weighted-cardinality model over both matrix families
            m, n = [(5, 9), (6, 10), (8, 12)][int(r.integers(0, 3))]
            A = r.standard_normal((m, n))
            A /= np.linalg.norm(A, axis=0)
            model = WCARD
            w = r.uniform(1.0, 1.15, n)
            s = float(r.choice([2.7, 3.0]))
        verdict = exact_recovery_equivalence_test(A, w, model, s, trials=1, seed=trial)
        total += 1
        assert verdict.consistent, (
            f"trial {trial}: verdict disagreed (gamma={verdict.gamma}, mode={verdict.mode})"
        )
        if verdict.nsp_satisfied:
            satisfied += 1
            assert verdict.max_recovery_error <= 1e-6
        else:
            violated += 1
            assert verdict.mode == "non-uniqueness"
            assert verdict.competitor_objective_gap >= -1e-8
    assert total >= 50
    assert satisfied >= 10 and violated >= 10
    _passline(
        f"recovery equivalence: {total} matrices, 100% agreement "
        f"({satisfied} satisfied, {violated} violated)"
    )


# ---------------------------------------------------------------------------
# 2. restricted isometry constant vs brute force


def test_acceptance_rip_oracle():
    """Measured constant matches per-support eigendecomposition to 1e-10."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(m + 1, 15))
        A = rng.standard_normal((m, n))
        if trial % 3 == 0:
            A = A + 1j * rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        model = CARD if trial % 2 == 0 else WCARD
        if model is CARD:
            w = rng.uniform(0.7, 1.0, n)
            s: float = int(rng.integers(1, 4))
        else:
            w = rng.uniform(1.0, 1.3, n)
            s = float(rng.uniform(2.0, 5.0))
        # independent oracle: all admissible supports, eigenvalues of the Gram
        oracle = 0.0
        seen = False
        for S in enumerate_admissible_supports(n, w, model, s):
            seen = True
            evs = np.linalg.eigvalsh(A[:, list(S)].conj().T @ A[:, list(S)])
            oracle = max(oracle, float(evs[-1]) - 1.0, 1.0 - float(evs[0]))
        assert seen
        got = rip_constant(A, w, model, s).delta
        assert abs(got - oracle) <= 1e-10, f"trial {trial}: {got} vs {oracle}"
    _passline("restricted isometry oracle: 20 instances matched to 1e-10")


# ---------------------------------------------------------------------------
# 3. floor-weighted chain: isometry premise implies null space bound and
#    planted recovery inside the closed-form budget


def test_acceptance_floor_weight_chain():
    trials = 0
    premise_true = 0
    for trial in range(100):
        r = np.random.default_rng([13, trial])
        floor = float(r.choice([0.8, 0.9, 1.0]))
        if trial % 2 == 0:  # near-square with a flat excluded row
            n = int(r.choice([10, 12, 14]))
            A = _flat_partial(n, n - 1, seed=trial, exclude_first=True)
        else:  # column-normalized Gaussian; the premise rarely holds here
            n = int(r.choice([10, 12, 14]))
            A = r.standard_normal((n - int(r.integers(2, 5)), n))
            A /= np.linalg.norm(A, axis=0)
        w = r.uniform(floor, 1.0, n)
        s = int(r.choice([1, 2]))
        delta = rip_constant(A, w, CARD, 2 * s).delta
        trials += 1
        if delta >= floor / (floor + 2.0):
            continue  # vacuous trial; the implication has nothing to prove
        premise_true += 1
        gamma = nsp_constant(A, w, CARD, s).gamma
        bound = delta / (floor - (floor + 1.0) * delta)
        assert gamma <= bound + 1e-8, f"trial {trial}: gamma {gamma} above {bound}"

        consts = recovery_constants_floor_weights(delta, floor)
        support = r.choice(n, size=s, replace=False)
        x = np.zeros(n)
        x[support] = r.standard_normal(s)
        rho = float(r.choice([1e-3, 1e-2, 1e-1]))
        e = r.standard_normal(A.shape[0])
        e *= rho / np.linalg.norm(e)
        out = solve_weighted_bpdn(A, A @ x + e, w, epsilon=rho)
        sigma = best_weighted_s_term(x, w, CARD, s).sigma
        err2 = float(np.linalg.norm(out.x - x))
        err1 = float(np.sum(w * np.abs(out.x - x)))
        assert err2 <= consts.l2_sigma * sigma / math.sqrt(s) + consts.l2_noise * rho + 1e-10
        assert err1 <= consts.l1_sigma * sigma + consts.l1_noise * math.sqrt(s) * rho + 1e-10
    assert trials >= 100
    assert premise_true >= 30
    _passline(
        f"floor-weight chain: {trials} trials, {premise_true} with the premise true, "
        "0 violations of the null-space or recovery bounds"
    )


# ---------------------------------------------------------------------------
# 4. weighted-cardinality chain at the one-third threshold


def test_acceptance_one_third_chain():
    trials = 0
    premise_true = 0
    for trial in range(50):
        r = np.random.default_rng([17, trial])
        s = 2.2
        if trial % 2 == 0:
            n = int(r.choice([17, 18, 19]))
            A = _flat_partial(n, n - 1, seed=200 + trial, exclude_first=True)
        else:
            n = int(r.choice([12, 14]))
            A = _flat_partial(n, n - 2, seed=300 + trial)
        w = r.uniform(1.0, 1.02, n)
        delta = rip_constant(A, w, WCARD, 3 * s).delta
        trials += 1
        if delta >= 1.0 / 3.0:
            continue
        premise_true += 1
        gamma = nsp_constant(A, w, WCARD, s).gamma
        bound = 2.0 * delta / (1.0 - delta)
        assert gamma <= bound + 1e-8, f"trial {trial}: gamma {gamma} above {bound}"
    assert trials >= 50
    assert premise_true >= 20
    _passline(
        f"one-third chain: {trials} trials, {premise_true} with the premise true, 0 violations"
    )


# ---------------------------------------------------------------------------
# 5. operator norm bound and the partition count estimate


def test_acceptance_operator_norm_and_partition_bound():
    checked = 0
    for trial in range(20):
        r = np.random.default_rng([19, trial])
        n = int(r.integers(8, 15))
        kind = trial % 3
        if kind == 0:
            A = r.standard_normal((int(r.integers(4, n)), n))
            A /= np.linalg.norm(A, axis=0)
        elif kind == 1:
            A = _flat_partial(n, n - int(r.integers(1, 3)), seed=trial)
        else:
            A = 1.7 * _flat_partial(n, n - 1, seed=trial)
        if trial % 2 == 0:
            model, w, s = CARD, np.ones(n), int(r.integers(2, 4))
        else:
            wval = float(r.uniform(0.8, 1.5))
            model, w = WCARD, np.full(n, wval)
            s = int(r.integers(2, 5)) * wval**2  # keeps the count estimate valid
        delta = rip_constant(A, w, model, s).delta
        part = build_partition(w, model, s)
        measured = largest_singular_value(A)
        bound = math.sqrt(part.n_blocks * (1.0 + delta))
        assert measured <= bound + 1e-9, f"trial {trial}: {measured} above {bound}"
        if part.nv_bound is not None:
            assert part.n_blocks <= part.nv_bound + 1e-12
        checked += 1
    assert checked == 20
    _passline("operator norm bound and partition count estimate: 20 matrices, 0 violations")


def _bound_from_measured(delta, n_nu):
    return operator_norm_bound(min(delta, 1 - 1e-12), n_nu)


# ---------------------------------------------------------------------------
# 6. counterexample construction identities


def test_acceptance_counterexample_identities():
    built = 0
    for seed in range(10):
        for model in (WCARD, CARD):
            r = np.random.default_rng([23, seed, 0 if model is WCARD else 1])
            w = r.uniform(1.0, 1.1, 64) if model is WCARD else r.uniform(0.8, 1.0, 64)
            b = build_counterexample(w, 4.0 if model is WCARD else 4, 20, 64, model, seed=seed)
            dg = b.diagnostics
            assert dg["orthonormality_error"] <= 1e-10
            assert dg["d_kernel_residual"] <= 1e-9
            assert dg["phi1_dot_d"] <= 1e-10
            assert dg["rho_residual_relative"] <= 1e-8
            assert np.abs(b.phi.matrix @ b.null_basis).max() <= 1e-9
            built += 1
    # instances large enough for the competitor norm comparison to apply
    rng = np.random.default_rng(29)
    b = build_counterexample(rng.uniform(1.0, 1.02, 100), 4.0, 20, 100, WCARD, seed=1)
    assert b.premises["N_ge_24_wmax2_s"] and b.diagnostics["xhat_le_x0"]
    b = build_counterexample(rng.uniform(0.8, 1.0, 100), 4, 20, 100, CARD, seed=2)
    assert b.premises["N_ge_24_s"] and b.diagnostics["xhat_le_x0"]
    # within the enumeration cap the exact certifier confirms the property
    confirmed = 0
    for model, wlo, whi, s in ((WCARD, 1.0, 1.05, 3.0), (CARD, 0.8, 1.0, 2)):
        r = np.random.default_rng([31, 0 if model is WCARD else 1])
        base = unitary_with_flat_first_row(14, seed=7, real=True)
        b = build_counterexample(r.uniform(wlo, whi, 16), s, 15, 16, model, seed=3, inner_base=base)
        assert b.inner_certified
        res = nsp_constant(b.phi, b.weights, b.model, b.s)
        assert res.satisfied and res.gamma < 1.0
        confirmed += 1
    _passline(
        f"counterexample identities: {built} desk builds across 10 seeds and both models, "
        f"norm comparison on 2 large builds, exact certification on {confirmed} capped builds"
    )


# ---------------------------------------------------------------------------
# 7. scaling attacks: isometry breaks, kernel properties survive


def test_acceptance_scaling_attacks():
    rng = np.random.default_rng(37)
    cases = 0
    for trial in range(6):
        n = int(rng.integers(8, 13))
        if trial % 2 == 0:
            A = rng.standard_normal((n - 3, n))
            A /= np.linalg.norm(A, axis=0)
        else:
            A = _flat_partial(n, n - 1, seed=trial)
        w = rng.uniform(0.8, 1.0, n)
        s = 2
        delta = rip_constant(A, w, CARD, s).delta
        if delta >= 1.0:
            continue
        c = 0.9 * math.sqrt((1.0 - delta) / (1.0 + delta))
        scaled_delta = rip_constant(c * A, w, CARD, s).delta
        assert scaled_delta > delta, f"trial {trial}: scaling did not break the isometry"
        g1 = nsp_constant(A, w, CARD, s).gamma
        g2 = nsp_constant(c * A, w, CARD, s).gamma
        assert abs(g1 - g2) <= 1e-10
        cases += 1
    assert cases >= 5

    # robust property broken by shrinking while the kernel stays fixed
    n = 17
    A = _flat_partial(n, n - 1, seed=99, exclude_first=True)
    w = np.ones(n)
    s = 2.2
    delta3 = rip_constant(A, w, WCARD, 3 * s).delta
    assert delta3 < 1.0 / 3.0
    consts = robust_nsp_constants_from_rip(delta3)
    x = np.zeros(n)
    x[0] = 1.0
    res = shrink_to_break_robust_nsp(A, w, s, consts.rho, consts.gamma, x)
    assert res.violated
    comp = [i for i in range(n) if i not in res.support]
    lhs = np.linalg.norm(x[list(res.support)])
    rhs = consts.rho / math.sqrt(s) * float(np.abs(x[comp]).sum()) + consts.gamma * float(
        np.linalg.norm(res.matrix.matrix @ x)
    )
    assert lhs > rhs
    _passline(
        f"scaling attacks: {cases} isometry breaks with kernel constants equal to 1e-10, "
        "robust-property violation replayed exactly"
    )


# ---------------------------------------------------------------------------
# 8. best weighted approximation vs exhaustive enumeration


def test_acceptance_knapsack_oracle():
    mismatches = 0
    for trial in range(100):
        r = np.random.default_rng([41, trial])
        n = int(r.integers(6, 15))
        x = r.standard_normal(n)
        w = r.uniform(0.5, 2.0, n)
        s = float(r.uniform((w**2).min(), 0.8 * (w**2).sum()))
        res = best_weighted_s_term(x, w, WCARD, s)
        values = w * np.abs(x)
        costs = w**2
        best_val, best_sup = 0.0, ()
        for size in range(n + 1):
            for S in itertools.combinations(range(n), size):
                if sum(costs[list(S)]) <= s:
                    v = float(sum(values[list(S)]))
                    if v > best_val:
                        best_val, best_sup = v, S
        sigma_oracle = float(values.sum() - sum(values[list(best_sup)]))
        if res.support != best_sup or abs(res.sigma - sigma_oracle) > 1e-10:
            mismatches += 1
    assert mismatches == 0
    _passline("weighted approximation knapsack: 100 instances, 0 mismatches vs enumeration")
