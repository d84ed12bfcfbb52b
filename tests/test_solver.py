"""Solver behavior: proximal step, equality and noisy programs, oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linprog

import wcs.solver

from wcs.certify import nsp_constant
from wcs.construct import sample_partial_unitary, unitary_with_flat_first_row
from wcs.core import SparseModel
from wcs.solver import (
    ConvergenceError,
    InfeasibleProblemError,
    complex_soft_threshold,
    solve_weighted_bp,
    solve_weighted_bpdn,
)

CARD = SparseModel.CARDINALITY


# ---------------------------------------------------------------------------
# complex soft threshold


def test_soft_threshold_zero_fixed_point():
    out = complex_soft_threshold(np.zeros(3, dtype=complex), np.ones(3))
    assert np.all(out == 0)


def test_soft_threshold_shrinks_modulus_keeps_phase():
    out = complex_soft_threshold(np.array([3.0, -4.0j]), np.array([1.0, 1.0]))
    assert out == pytest.approx(np.array([2.0, -3.0j]))


def test_soft_threshold_annihilates_below_threshold():
    out = complex_soft_threshold(np.array([0.5 + 0.5j, -0.1]), np.array([2.0, 0.1]))
    assert np.all(out == 0)


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValueError):
        complex_soft_threshold(np.ones(2), np.array([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# equality-constrained recovery


def test_bp_identity_returns_measurements():
    y = np.array([1.0, -2.0, 0.5])
    out = solve_weighted_bp(np.eye(3), y, np.array([1.0, 3.0, 0.2]))
    assert out.x == pytest.approx(y, abs=1e-8)
    assert out.converged


def test_bp_avoids_heavy_coordinate():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    y = np.array([1.0, 1.0])
    out = solve_weighted_bp(A, y, np.array([1.0, 1.0, 10.0]))
    assert out.x == pytest.approx(np.array([1.0, 1.0, 0.0]), abs=1e-6)
    assert out.objective == pytest.approx(2.0, abs=1e-6)


def test_bp_prefers_cheap_coordinate_when_weights_flip():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    y = np.array([1.0, 1.0])
    out = solve_weighted_bp(A, y, np.array([5.0, 5.0, 1.0]))
    assert out.x == pytest.approx(np.array([0.0, 0.0, 1.0]), abs=1e-6)
    assert out.objective == pytest.approx(1.0, abs=1e-6)


def _lp_bp_oracle(A, y, w):
    """Exact weighted basis pursuit on real data via a simplex-style solver."""
    n = A.shape[1]
    res = linprog(
        np.concatenate([w, w]),
        A_eq=np.hstack([A, -A]),
        b_eq=y,
        bounds=[(0, None)] * (2 * n),
        method="highs",
    )
    assert res.success, res.message
    return res.fun, res.x[:n] - res.x[n:]


def test_bp_matches_lp_oracle_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m, n = 5, 10
        A = rng.standard_normal((m, n))
        x = np.zeros(n)
        x[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
        y = A @ x
        w = rng.uniform(0.5, 2.0, n)
        obj_lp, _ = _lp_bp_oracle(A, y, w)
        out = solve_weighted_bp(A, y, w)
        assert abs(out.objective - obj_lp) <= 1e-8 * (1.0 + obj_lp)


def test_bp_uniform_weights_equal_unweighted():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m, n = 4, 9
        A = rng.standard_normal((m, n))
        y = A @ np.where(np.arange(n) < 2, rng.standard_normal(n), 0.0)
        obj_lp, x_lp = _lp_bp_oracle(A, y, np.ones(n))
        out = solve_weighted_bp(A, y, np.ones(n))
        assert abs(out.objective - obj_lp) <= 1e-8 * (1.0 + obj_lp)


def test_bp_scale_covariance():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 8))
    x = np.zeros(8)
    x[[1, 5]] = [1.0, -2.0]
    y = A @ x
    w = rng.uniform(0.5, 1.5, 8)
    base = solve_weighted_bp(A, y, w)
    for c in (0.25, 3.0):
        scaled = solve_weighted_bp(c * A, c * y, w)
        assert scaled.x == pytest.approx(base.x, abs=1e-6)


def test_bp_infeasible_raises():
    # rank-deficient wide system: y outside the range of A
    A = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleProblemError):
        solve_weighted_bp(A, np.array([1.0, 2.0]), np.ones(3))


def test_bp_rejects_tall_systems():
    with pytest.raises(ValueError, match="m <= N"):
        solve_weighted_bp(np.ones((3, 2)), np.ones(3), np.ones(2))


def test_bp_recovers_when_nsp_holds():
    base = unitary_with_flat_first_row(12, seed=3, real=True)
    sm = sample_partial_unitary(base, 10, seed=5)
    w = np.ones(12)
    res = nsp_constant(sm, w, CARD, 2)
    assert res.satisfied
    rng = np.random.default_rng(8)
    for support in [(0, 5), (2, 7), (1, 11)]:
        x = np.zeros(12)
        x[list(support)] = rng.standard_normal(2)
        out = solve_weighted_bp(sm.matrix, sm.matrix @ x, w)
        assert np.linalg.norm(out.x - x) / np.linalg.norm(x) <= 1e-6


def test_bp_complex_recovery():
    rng = np.random.default_rng(9)
    from wcs.construct import dft_matrix

    sm = sample_partial_unitary(dft_matrix(12), 8, seed=1)
    x = np.zeros(12, dtype=complex)
    x[[3, 7]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    out = solve_weighted_bp(sm.matrix, sm.matrix @ x, np.ones(12))
    assert np.linalg.norm(out.x - x) / np.linalg.norm(x) <= 1e-6


# ---------------------------------------------------------------------------
# noisy recovery


def test_bpdn_zero_solution_when_origin_feasible():
    y = np.array([0.3, -0.4])
    out = solve_weighted_bpdn(np.eye(2), y, np.ones(2), epsilon=1.0)
    assert out.zero_feasible
    assert np.all(out.x == 0)
    assert out.objective == 0.0


def _projected_subgradient_oracle(y, w, eps, iters=400_000):
    """min ||z||_{w,1} s.t. ||z - y|| <= eps for the identity operator."""
    z = y.copy()
    best = float(np.sum(w * np.abs(z)))
    best_z = z.copy()
    for k in range(1, iters + 1):
        g = w * np.sign(z)
        z = z - (0.5 / np.sqrt(k)) * g
        r = z - y
        nr = np.linalg.norm(r)
        if nr > eps:
            z = y + r * (eps / nr)
        obj = float(np.sum(w * np.abs(z)))
        if obj < best:
            best, best_z = obj, z.copy()
    return best, best_z


def test_bpdn_identity_matches_subgradient_oracle():
    rng = np.random.default_rng(12)
    y = rng.uniform(1.0, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    w = np.ones(5)
    eps = 0.5 * float(np.abs(y).min())
    obj_oracle, _ = _projected_subgradient_oracle(y, w, eps)
    out = solve_weighted_bpdn(np.eye(5), y, w, epsilon=eps)
    assert out.residual <= eps + 1e-9
    assert abs(out.objective - obj_oracle) <= 1e-4 * (1.0 + obj_oracle)


def test_bpdn_residual_within_budget():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((6, 12))
    x = np.zeros(12)
    x[[2, 9]] = [1.5, -1.0]
    e = rng.standard_normal(6)
    e *= 0.05 / np.linalg.norm(e)
    y = A @ x + e
    out = solve_weighted_bpdn(A, y, np.ones(12), epsilon=0.05)
    assert out.residual <= 0.05 + 1e-9
    assert out.feasibility_gap <= 1e-9


def test_bpdn_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        solve_weighted_bpdn(np.eye(2), np.ones(2), np.ones(2), epsilon=-0.1)


def test_nonconvergence_raises_with_outcome_attached():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 9))
    y = A @ np.where(np.arange(9) < 2, 1.0, 0.0)
    with pytest.raises(ConvergenceError) as err:
        solve_weighted_bp(A, y, np.ones(9), max_iter=3)
    assert err.value.outcome.iterations == 3
    assert "residual" in str(err.value)
    assert not err.value.outcome.converged


def test_bpdn_complex_instance():
    from wcs.construct import dft_matrix, sample_partial_unitary

    rng = np.random.default_rng(16)
    sm = sample_partial_unitary(dft_matrix(12), 9, seed=2)
    x = np.zeros(12, dtype=complex)
    x[[1, 6]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    e = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    e *= 0.01 / np.linalg.norm(e)
    y = sm.matrix @ x + e
    out = solve_weighted_bpdn(sm.matrix, y, np.ones(12), epsilon=0.01)
    assert out.residual <= 0.01 + 1e-9 * (1.0 + np.linalg.norm(y))
    assert np.linalg.norm(out.x - x) <= 0.2  # noise-limited accuracy


def test_solver_solves_and_validates_its_inputs():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    out = solve_weighted_bp(A, np.array([1.0, 1.0]), np.array([1.0, 1.0, 10.0]))
    assert out.x == pytest.approx(np.array([1.0, 1.0, 0.0]), abs=1e-6)
    noisy = solve_weighted_bpdn(np.eye(2), np.array([3.0, 4.0]), np.ones(2), epsilon=10.0)
    assert noisy.zero_feasible
    with pytest.raises(ValueError, match="length"):
        solve_weighted_bpdn(A, np.ones(3), np.ones(3), epsilon=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_weighted_bpdn(A, np.ones(2), np.ones(3), epsilon=-1.0)


# ---------------------------------------------------------------------------
# constraint projection: Newton root find against a bisection oracle


def _radius(b2, s2, lam):
    return float(np.sqrt(np.sum(b2 / (1.0 + lam * s2) ** 2)))


def _bisection_multiplier(b2, s2, eps):
    """Bisect ||r(lam)|| = eps until the floating-point interval cannot shrink."""
    lo, hi = 0.0, 1.0
    while _radius(b2, s2, hi) > eps:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _radius(b2, s2, mid) > eps:
            lo = mid
        else:
            hi = mid


def _random_unitary(rng, k, complex_data):
    Z = rng.standard_normal((k, k))
    if complex_data:
        Z = Z + 1j * rng.standard_normal((k, k))
    Q, _ = np.linalg.qr(Z)
    return Q


@st.composite
def projection_cases(draw):
    """A matrix with a chosen spectrum, a noise radius and a point to project."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_data = draw(st.booleans())
    m = draw(st.integers(2, 6))
    n = draw(st.integers(m, 10))
    rank = draw(st.integers(1, m))  # rank < m makes A rank-deficient
    spread = draw(st.sampled_from([0.0, 2.0, 6.0]))  # s_min = 10^-spread
    sv = np.sort(10.0 ** -rng.uniform(0.0, spread, rank))[::-1]
    sv[0], sv[-1] = 1.0, 10.0**-spread if rank > 1 else 1.0
    U = _random_unitary(rng, m, complex_data)
    V = _random_unitary(rng, n, complex_data)
    A = (U[:, :rank] * sv) @ V[:, :rank].conj().T
    # y may leave the range of A; the radius must then cover that part too
    x0 = V[:, :rank] @ rng.standard_normal(rank)
    perp = U[:, rank:] @ rng.standard_normal(m - rank) if rank < m else np.zeros(m)
    perp *= draw(st.sampled_from([0.0, 0.5])) / max(np.linalg.norm(perp), 1e-300)
    eps_eff = 10.0 ** draw(st.floats(-6.0, 0.0))
    eps = float(np.sqrt(eps_eff**2 + np.linalg.norm(perp) ** 2))
    # ||b|| = eps_eff / ratio: a ratio near zero puts eps_eff near zero
    ratio = 10.0 ** draw(st.floats(-12.0, np.log10(0.99)))
    g = rng.standard_normal(rank) + (1j * rng.standard_normal(rank) if complex_data else 0)
    g *= (eps_eff / ratio) / np.linalg.norm(sv * g)
    null = V[:, rank:] @ rng.standard_normal(n - rank)
    x = x0 + V[:, :rank] @ g + null
    inside = x0 + V[:, :rank] @ (0.9 * ratio * g) + null  # ||b|| = 0.9 eps_eff
    warm = draw(st.sampled_from([None, 1e-3, 0.5, 0.999, 1.001, 2.0, 1e3]))
    return A, A @ x0 + perp, eps, x, inside, warm


@given(projection_cases())
@settings(max_examples=200, deadline=None)
def test_projection_multiplier_matches_bisection(case):
    A, y, eps, x, inside, warm = case
    proj = wcs.solver._ConstraintProjector(A, y, eps)
    b = proj.sv * (proj.Vh @ x) - proj.y_range_coef
    b2 = np.abs(b) ** 2
    lam_ref = _bisection_multiplier(b2, proj.s2, proj.eps_eff)
    # the root pins lam only to about ulp / e relative, e = -(lam / rho) drho/dlam
    t = lam_ref * proj.s2
    r2 = b2 / (1.0 + t) ** 2
    assume(np.sum(r2 * t / (1.0 + t)) >= 1e-3 * np.sum(r2))
    proj.lam = None if warm is None else warm * lam_ref  # warm start below or above
    px = proj(x)
    assert abs(proj.lam - lam_ref) <= 1e-12 * lam_ref
    # feasible, up to the rounding of forming A P(x) - y
    scale = np.linalg.norm(A, 2) * (np.linalg.norm(px) + np.linalg.norm(x)) + np.linalg.norm(y)
    assert np.linalg.norm(A @ px - y) <= eps * (1.0 + 1e-9) + 1e-14 * scale
    assert np.array_equal(proj(inside), inside)


class _BrentqProjector(wcs.solver._ConstraintProjector):
    """The multiplier as the solver found it before Newton: bracket doubling and brentq."""

    def _multiplier(self, b2, b2sum):
        s2, eps = self.s2, self.eps_eff
        lam_hi = max((np.sqrt(b2sum) / eps - 1.0) / float(s2.min()), 1.0)
        for _ in range(200):
            if _radius(b2, s2, lam_hi) < eps:
                break
            lam_hi *= 2.0
        return brentq(lambda l: _radius(b2, s2, l) - eps, 0.0, lam_hi, rtol=1e-14, maxiter=200)


def _checked_shrink(z, tau):
    """The soft-threshold as the solver loop computed it before, checks included."""
    tau = np.broadcast_to(np.asarray(tau, dtype=float), z.shape)
    if np.any(tau < 0):
        raise ValueError("thresholds must be nonnegative")
    mag = np.abs(z)
    keep = mag > tau
    scale = np.zeros(z.shape)
    np.divide(tau, mag, out=scale, where=keep)
    return np.where(keep, (1.0 - scale) * z, 0.0 * z)


def _seeded_problem(seed, complex_data, eps):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 12))
    x = np.zeros(12)
    x[rng.choice(12, 2, replace=False)] = rng.standard_normal(2)
    if complex_data:
        A = A + 1j * rng.standard_normal((6, 12))
        x = x * np.exp(2j * np.pi * rng.uniform(size=12))
    A /= np.linalg.norm(A, axis=0)
    e = rng.standard_normal(6)
    y = A @ x + (eps * e / np.linalg.norm(e) if eps else 0.0)
    return A, y, rng.uniform(0.8, 1.0, 12)


@pytest.mark.parametrize(
    "seed, complex_data, eps",
    [
        (20, False, 0.0),
        (21, True, 0.0),
        (22, False, 1e-2),
        (23, True, 1e-2),
        (24, False, 1e-1),
        (25, True, 1e-1),
    ],
)
def test_newton_projection_keeps_the_iterates(monkeypatch, seed, complex_data, eps):
    A, y, w = _seeded_problem(seed, complex_data, eps)
    new = solve_weighted_bpdn(A, y, w, eps)
    monkeypatch.setattr(wcs.solver, "_ConstraintProjector", _BrentqProjector)
    monkeypatch.setattr(wcs.solver, "_shrink", _checked_shrink)
    old = solve_weighted_bpdn(A, y, w, eps)
    assert new.iterations == old.iterations
    assert abs(new.objective - old.objective) <= 1e-10 * old.objective


def test_projection_telemetry():
    A, y, w = _seeded_problem(22, False, 1e-2)
    noisy = solve_weighted_bpdn(A, y, w, 1e-2).diagnostics
    assert noisy["projection_evals"] > 0
    assert noisy["rootfind_fallbacks"] == 0
    exact = solve_weighted_bp(A, A @ np.eye(12)[3], w).diagnostics
    assert exact["projection_evals"] == 0
    assert exact["rootfind_fallbacks"] == 0


def test_rootfind_fallback_matches_newton(monkeypatch):
    A, y, w = _seeded_problem(23, True, 1e-2)
    newton = solve_weighted_bpdn(A, y, w, 1e-2)
    monkeypatch.setattr(wcs.solver._ConstraintProjector, "NEWTON_STEPS", 0)
    fallback = solve_weighted_bpdn(A, y, w, 1e-2)
    assert fallback.diagnostics["rootfind_fallbacks"] > 0
    assert fallback.iterations == newton.iterations
    assert abs(fallback.objective - newton.objective) <= 1e-10 * newton.objective


# ---------------------------------------------------------------------------
# support polish: certified outcomes against independent oracles


def _dual_gap(A, y, w, eps, x):
    """KKT residuals of x recomputed from x alone, and the relative duality gap.

    The dual point is the least-norm u with (A^H u)_S = w_S phase(x_S) for
    eps = 0, and the multiple -t r of the residual fitted to it otherwise;
    scaled into the dual feasible set it gives the weak-duality lower bound
    Re<u, y> - eps ||u|| on the optimal objective.
    """
    S = np.flatnonzero(x)
    c = w[S] * x[S] / np.abs(x[S])
    r = A @ x - y
    if eps == 0:
        u = np.linalg.lstsq(A[:, S].conj().T, c, rcond=None)[0]
    else:
        g = A[:, S].conj().T @ r
        u = -(np.vdot(-g, c).real / np.vdot(g, g).real) * r
    dual = A.conj().T @ u
    stationarity = np.linalg.norm(dual[S] - c) / np.linalg.norm(c)
    u = u / max(1.0, float(np.max(np.abs(dual) / w)))
    objective = float(np.sum(w * np.abs(x)))
    lower = float(np.vdot(u, y).real) - eps * float(np.linalg.norm(u))
    return float(np.linalg.norm(r)), stationarity, (objective - lower) / objective


def _identity_bpdn_oracle(y, w, eps):
    """min ||z||_{w,1} s.t. ||z - y|| <= eps: z = shrink(y, lam w), ||z - y|| = eps."""
    lo, hi = 0.0, float(np.max(np.abs(y) / w))
    while True:
        lam = 0.5 * (lo + hi)
        if not lo < lam < hi:
            break
        if np.sum(np.minimum(np.abs(y), lam * w) ** 2) > eps**2:
            hi = lam
        else:
            lo = lam
    z = complex_soft_threshold(y, lam * w)
    return float(np.sum(w * np.abs(z)))


@st.composite
def polish_cases(draw):
    """A planted sparse problem: real or complex, BP or BPDN, Gaussian or unitary A."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_data = draw(st.booleans())
    noisy = draw(st.booleans())
    unitary = noisy and draw(st.booleans())  # BPDN with a closed-form oracle
    m = draw(st.integers(3, 7))
    n = m if unitary else draw(st.integers(m + 1, 12))
    if unitary:
        A = _random_unitary(rng, n, complex_data)
    else:
        A = rng.standard_normal((m, n)) + (1j * rng.standard_normal((m, n)) if complex_data else 0)
        A /= np.linalg.norm(A, axis=0)
    s = draw(st.integers(1, max(1, m // 2)))
    x = np.zeros(n, dtype=A.dtype)
    x[rng.choice(n, s, replace=False)] = rng.standard_normal(s) + (
        1j * rng.standard_normal(s) if complex_data else 0
    )
    y = A @ x
    eps = 0.0
    if noisy:
        eps = 10.0 ** draw(st.floats(-4.0, -1.0)) * float(np.linalg.norm(y))
        e = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_data else 0)
        y = y + 0.5 * eps * e / np.linalg.norm(e)
    w = rng.uniform(0.5, 1.5, n)
    return A, y, w, eps, unitary, x


@given(polish_cases())
@settings(max_examples=150, deadline=None)
def test_certified_outcomes_pass_kkt_and_match_oracles(case):
    A, y, w, eps, unitary, _ = case
    try:
        out = solve_weighted_bpdn(A, y, w, eps, max_iter=20_000)
    except ConvergenceError as err:
        out = err.outcome
    assume(out.diagnostics.get("certified"))
    residual, stationarity, gap = _dual_gap(A, y, w, eps, out.x)
    assert residual <= eps + 1e-9 * (1.0 + np.linalg.norm(y))
    # the polish matches phases to 1e-5; their error enters the gap squared
    assert stationarity <= 2e-5
    assert gap <= 1e-8
    if eps == 0 and not np.iscomplexobj(A):
        oracle, _ = _lp_bp_oracle(A, y, w)
    elif unitary:
        oracle = _identity_bpdn_oracle(A.conj().T @ y, w, eps)
    else:
        return
    assert abs(out.objective - oracle) <= 1e-8 * oracle


def test_polish_certifies_most_planted_problems():
    # the property test above skips uncertified solves; most must certify
    certified = 0
    for k in range(40):
        eps = [0.0, 1e-3, 1e-2, 1e-1][k % 4]
        A, y, w = _seeded_problem(100 + k, k % 2 == 1, eps)
        certified += solve_weighted_bpdn(A, y, w, eps).diagnostics["certified"]
    assert certified >= 30


def _flat_row_bpdn():
    """A 11x12 partial orthogonal matrix whose excluded row is flat, eps = 1e-4."""
    rng = np.random.default_rng(21)
    base = unitary_with_flat_first_row(12, seed=21, real=True)
    A = sample_partial_unitary(base, 11, seed=22).matrix
    x = np.zeros(12)
    x[rng.choice(12, 2, replace=False)] = rng.standard_normal(2)
    e = rng.standard_normal(11)
    y = A @ x + 1e-4 * e / np.linalg.norm(e)
    return A, y, rng.uniform(0.8, 1.0, 12), 1e-4


def test_flat_row_bpdn_certifies_within_fifty_evaluations():
    """The Anderson safeguard rejects about every other evaluation here. Polishing
    only accepted iterates, every 20th iteration, certified it after 13,477
    evaluations (6,728 rejected); polishing every new sign pattern of every
    evaluated point certifies it within 50."""
    A, y, w, eps = _flat_row_bpdn()
    out = solve_weighted_bpdn(A, y, w, eps, max_iter=20_000)
    assert out.diagnostics["certified"]
    assert out.iterations <= 50


def test_real_polish_tries_each_sign_pattern_once(monkeypatch):
    """On real data the polish depends only on the support and the signs."""
    tried = []
    polish = wcs.solver._polish

    def record(A, y, w, eps, z, res_tol):
        tried.append(tuple(np.sign(z).astype(int)))
        return polish(A, y, w, eps, z, res_tol)

    monkeypatch.setattr(wcs.solver, "_polish", record)
    # the planted problems below include BP solves the polish cannot certify,
    # which run until the stopping rule meets a pattern already tried
    cases = [_flat_row_bpdn()]
    for k in range(20):
        eps = [0.0, 1e-2][k % 2]
        cases.append((*_seeded_problem(100 + 2 * k, False, eps), eps))
    for A, y, w, eps in cases:
        tried.clear()
        out = solve_weighted_bpdn(A, y, w, eps, max_iter=20_000)
        assert len(set(tried)) == len(tried) == out.diagnostics["polish_attempts"] >= 1


def test_complex_repolish_cadence_counts_rejected_evaluations():
    # 600 evaluations with 91 rejected extrapolations; complex data is polished
    # on the cadence and at the stopping rule only, not at every new support
    A, y, w = _seeded_problem(116, True, 1e-3)
    out = solve_weighted_bpdn(A, y, w, 1e-3)
    assert out.diagnostics["anderson_rejects"] > 0
    assert out.iterations // 20 <= out.diagnostics["polish_attempts"] <= out.iterations // 20 + 2


@given(
    polish_cases(),
    st.sampled_from(["planted", "extra", "missing"]),
    st.floats(-12.0, 0.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_polish_from_perturbed_supports_is_sound(case, support, phase_noise, seed):
    """Polish from the planted support, one index more or one less, with phases
    off by up to 10^phase_noise (real data: signs flipped near 1): a returned
    point is always optimal."""
    A, y, w, eps, _, planted = case
    rng = np.random.default_rng(seed)
    n = A.shape[1]
    S = list(np.flatnonzero(planted))
    if support == "extra":
        S.append(int(rng.choice(np.setdiff1d(np.arange(n), S))))
    elif support == "missing" and len(S) > 1:
        S.pop()
    z = np.zeros(n, dtype=A.dtype)
    z[S] = np.where(planted[S] != 0, planted[S], 1.0)
    turn = 10.0**phase_noise * rng.uniform(-1.0, 1.0, len(S))
    z[S] = z[S] * (np.exp(1j * turn) if np.iscomplexobj(A) else np.where(turn > 0.5, -1.0, 1.0))
    x = wcs.solver._polish(A, y, w, eps, z, 1e-9 * (1.0 + np.linalg.norm(y)))
    if x is not None:
        residual, _, gap = _dual_gap(A, y, w, eps, x)
        assert residual <= eps + 1e-9 * (1.0 + np.linalg.norm(y))
        assert gap <= 1e-8


def _planted_bp():
    """Real BP whose planted solution 1.5 e_0 - e_1 the polish certifies."""
    A, _, w = _seeded_problem(46, False, 0.0)
    x = np.zeros(12)
    x[[0, 1]] = [1.5, -1.0]
    return A, A @ x, w


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_polish_declines_wrong_or_rank_deficient_supports(eps):
    A, y, w = _planted_bp()
    polish = lambda A_, z: wcs.solver._polish(A_, y, w, eps, z, 1e-9 * (1.0 + np.linalg.norm(y)))
    right = np.zeros(12)
    right[[0, 1]] = [1.0, -1.0]
    assert polish(A, right) is not None  # the planted support certifies
    flipped = right * np.where(np.arange(12) == 1, -1.0, 1.0)
    assert polish(A, flipped) is None  # a wrong sign
    shifted = np.zeros(12)
    shifted[[0, 2]] = [1.0, -1.0]
    assert polish(A, shifted) is None  # a wrong support
    missing = np.zeros(12)
    missing[0] = 1.0
    assert polish(A, missing) is None  # a support that misses an index
    assert polish(A, np.ones(12)) is None  # |S| > m
    both = right.copy()
    both[2] = 1.0
    dup = A.copy()
    dup[:, 2] = dup[:, 0]  # A_S with two equal columns
    assert polish(dup, both) is None
    dependent = A.copy()
    dependent[:, 2] = A[:, 0] - 0.5 * A[:, 1]  # A_S of rank two
    dependent[:, 2] /= np.linalg.norm(dependent[:, 2])
    assert polish(dependent, both) is None
