"""Core operations: weighted norms, support enumeration, approximation, partition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcs.certify import nsp_constant, rip_constant
from wcs.core import (
    BudgetError,
    EnumerationCapError,
    PartitionBoundError,
    SparseModel,
    WeightProfile,
    _maximal_supports_depth_first,
    _single_support_size,
    as_matrix,
    best_weighted_s_term,
    build_partition,
    complement,
    enumerate_admissible_supports,
    enumeration_cap,
    maximal_admissible_supports,
    sparse_measure,
    standing_assumption_holds,
    weighted_l1_norm,
)
from wcs.solver import solve_weighted_bp

CARD = SparseModel.CARDINALITY
WCARD = SparseModel.WEIGHTED_CARDINALITY


# ---------------------------------------------------------------------------
# matrix ingestion


_ENTRY_POINTS = {
    "as_matrix": as_matrix,
    "rip_constant": lambda A: rip_constant(A, np.ones(3), CARD, 1),
    "nsp_constant": lambda A: nsp_constant(A, np.ones(3), CARD, 1),
    "solve_weighted_bp": lambda A: solve_weighted_bp(A, np.ones(2), np.ones(3)),
}


_BAD_MATRICES = {
    "nan": np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 1.0]]),
    "inf": np.array([[1.0, 0.0, 0.0], [0.0, -np.inf, 1.0]]),
    "complex-nan": np.array([[1.0, complex(0.0, np.nan), 0.0], [0.0, 1.0, 1j]]),
    "one-dimensional": np.array([1.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(_BAD_MATRICES))
def test_matrix_entry_points_reject_non_finite_and_non_2d(entry, bad):
    message = "must be 2-d" if bad == "one-dimensional" else "non-finite"
    with pytest.raises(ValueError, match=message):
        _ENTRY_POINTS[entry](_BAD_MATRICES[bad])


# ---------------------------------------------------------------------------
# weighted l1 norm


def test_norm_zero_vector():
    assert weighted_l1_norm(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


def test_norm_unweighted():
    assert weighted_l1_norm(np.array([1.0, -2.0, 3.0]), np.ones(3)) == 6.0


def test_norm_complex_moduli():
    x = np.array([3j, 4.0])
    w = np.array([2.0, 0.5])
    assert weighted_l1_norm(x, w) == pytest.approx(8.0, abs=1e-14)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError, match="match the weights"):
        weighted_l1_norm(np.ones(3), np.ones(4))


finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def vector_and_weights(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    x = np.array(
        [complex(draw(finite_floats), draw(finite_floats)) for _ in range(n)]
    )
    w = np.array([draw(st.floats(0.1, 10.0)) for _ in range(n)])
    return x, w


@given(vector_and_weights(), st.floats(-100, 100), st.floats(-100, 100))
@settings(max_examples=60, deadline=None)
def test_norm_homogeneity(xw, cre, cim):
    x, w = xw
    c = complex(cre, cim)
    lhs = weighted_l1_norm(c * x, w)
    rhs = abs(c) * weighted_l1_norm(x, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


@given(vector_and_weights())
@settings(max_examples=60, deadline=None)
def test_norm_triangle_and_decomposition(xw):
    x, w = xw
    rng = np.random.default_rng(0)
    y = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    assert weighted_l1_norm(x + y, w) <= (
        weighted_l1_norm(x, w) + weighted_l1_norm(y, w) + 1e-9
    )
    S = tuple(i for i in range(x.size) if i % 2 == 0)
    xs = np.where(np.isin(np.arange(x.size), S), x, 0)
    xc = x - xs
    assert weighted_l1_norm(x, w) == pytest.approx(
        weighted_l1_norm(xs, w) + weighted_l1_norm(xc, w), rel=1e-12, abs=1e-9
    )


# ---------------------------------------------------------------------------
# sparse measure and weight profile


def test_weight_profile_caches_extremes():
    p = WeightProfile(np.array([2.0, 0.5, 1.0]))
    assert p.w_max == 2.0 and p.w_min == 0.5


@pytest.mark.parametrize("bad", [np.array([1.0, 0.0]), np.array([1.0, -2.0]), np.array([np.inf, 1.0])])
def test_weight_profile_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        WeightProfile(bad)


def test_sparse_measure_examples():
    w = np.array([2.0, 1.0, 1.0])
    assert sparse_measure((), w, WCARD) == 0.0
    assert sparse_measure((0, 2), w, WCARD) == pytest.approx(5.0)
    assert sparse_measure((0, 2), w, CARD) == 2.0


@given(st.integers(1, 7), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sparse_measure_additive_on_disjoint(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 3.0, n)
    idx = list(range(n))
    rng.shuffle(idx)
    cut = rng.integers(0, n + 1)
    s1, s2 = tuple(sorted(idx[:cut])), tuple(sorted(idx[cut:]))
    for model in (CARD, WCARD):
        assert sparse_measure(s1 + s2, w, model) == pytest.approx(
            sparse_measure(s1, w, model) + sparse_measure(s2, w, model), rel=1e-12
        )


def test_standing_assumption():
    assert standing_assumption_holds(np.ones(4), CARD, 2)
    assert not standing_assumption_holds(np.ones(4), CARD, 1)
    assert standing_assumption_holds(np.array([1.0, 1.5]), WCARD, 4.5)


# ---------------------------------------------------------------------------
# support enumeration


def test_enumerate_cardinality_singletons():
    got = list(enumerate_admissible_supports(3, np.ones(3), CARD, 1))
    assert got == [(0,), (1,), (2,)]


def test_enumerate_weighted_excludes_heavy_index():
    got = list(enumerate_admissible_supports(3, np.array([2.0, 1.0, 1.0]), WCARD, 2))
    assert got == [(1,), (1, 2), (2,)]  # lexicographic


def test_enumerate_full_power_set():
    got = list(enumerate_admissible_supports(3, np.ones(3), CARD, 3))
    assert len(got) == 7
    assert got == sorted(got)  # lexicographic order of tuples


def test_enumerate_cap_refusal_names_cap():
    with pytest.raises(EnumerationCapError, match="cap of 24"):
        list(enumerate_admissible_supports(25, np.ones(25), CARD, 1))


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("WCS_ENUM_CAP", "30")
    assert enumeration_cap() == 30
    got = list(enumerate_admissible_supports(26, np.ones(26), CARD, 1))
    assert len(got) == 26
    monkeypatch.setenv("WCS_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapError, match="cap of 10"):
        list(enumerate_admissible_supports(12, np.ones(12), CARD, 1))


def test_maximal_supports_match_bruteforce():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(3, 9))
        w = rng.uniform(0.5, 2.0, n)
        model = CARD if trial % 2 == 0 else WCARD
        s = float(rng.integers(1, n)) if model is CARD else float(rng.uniform(1.0, 6.0))
        if model is WCARD and (w**2).min() > s:
            continue
        all_sup = list(enumerate_admissible_supports(n, w, model, s))
        admissible = set(all_sup)

        def is_maximal(S):
            return all(
                tuple(sorted(S + (i,))) not in admissible
                for i in range(n)
                if i not in S
            )

        expect = sorted(S for S in all_sup if is_maximal(S))
        got = sorted(maximal_admissible_supports(n, w, model, s))
        assert got == expect


def test_cardinality_supports_match_the_depth_first_search():
    """The cardinality model's combinations are the depth-first search's
    supports, in the same order."""
    for n in range(1, 13):
        for s in range(1, n + 2):
            want = list(_maximal_supports_depth_first(np.ones(n), float(s)))
            assert list(maximal_admissible_supports(n, np.ones(n), CARD, s)) == want


def test_single_size_weighted_supports_match_the_depth_first_search():
    """Near-uniform weights give supports of one size: combinations yields
    the depth-first search's tuples in its order, and budgets on exact float
    boundaries, where rounding could blur the size, fall back to the search."""
    rng = np.random.default_rng(17)
    for n in range(1, 11):
        for noise in (0.0, 1e-12, 0.02):
            w = 1.0 + noise * rng.random(n)
            costs = w * w
            budgets = [0.5, 1.05 * n + 1.0]  # k = 0 and k = n
            for k in range(1, n + 1):
                # the search's own left-to-right sum of the first k costs
                first = sum(costs[:k].tolist())
                budgets += [k + 0.5, float(k), first, np.nextafter(first, 0.0),
                            np.nextafter(first, np.inf)]
                assert _single_support_size(costs, k + 0.5) == k
            for b in budgets:
                want = list(_maximal_supports_depth_first(costs, b))
                assert list(maximal_admissible_supports(n, w, WCARD, b)) == want
    assert _single_support_size(np.ones(5), 0.5) == 0
    assert _single_support_size(np.ones(5), 6.0) == 5
    assert list(maximal_admissible_supports(5, np.ones(5), WCARD, 6.0)) == [(0, 1, 2, 3, 4)]
    assert _single_support_size(np.ones(5), 2.0) is None
    assert _single_support_size(np.array([1.0, 1.0, 1.5]), 2.2) is None


def test_complement():
    assert complement((0, 2), 4) == (1, 3)


# ---------------------------------------------------------------------------
# best weighted s-term approximation


def test_best_term_cardinality_top_two():
    res = best_weighted_s_term(np.array([3.0, 2.0, 1.0]), np.ones(3), CARD, 2)
    assert res.support == (0, 1)
    assert res.sigma == pytest.approx(1.0)
    assert res.exact


def test_best_term_weighted_knapsack_example():
    res = best_weighted_s_term(
        np.array([3.0, 2.0, 1.0]), np.array([2.0, 1.0, 1.0]), WCARD, 2
    )
    assert res.support == (1, 2)
    assert res.sigma == pytest.approx(6.0)


def test_best_term_sparse_vector_has_zero_tail():
    x = np.array([0.0, 5.0, 0.0, -1.0])
    res = best_weighted_s_term(x, np.ones(4), CARD, 2)
    assert res.sigma == pytest.approx(0.0)


def test_best_term_ties_prefer_lower_index():
    res = best_weighted_s_term(np.array([1.0, 1.0, 1.0]), np.ones(3), CARD, 1)
    assert res.support == (0,)


def test_best_term_knapsack_matches_exhaustive():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(4, 11))
        x = rng.standard_normal(n)
        w = rng.uniform(0.5, 2.0, n)
        s = float(rng.uniform(w.min() ** 2, (w**2).sum()))
        res = best_weighted_s_term(x, w, WCARD, s)
        values = w * np.abs(x)
        costs = w**2
        best_val, best_sup = 0.0, ()
        for r in range(n + 1):
            for S in itertools.combinations(range(n), r):
                if sum(costs[list(S)]) <= s:
                    v = float(sum(values[list(S)]))
                    if v > best_val:
                        best_val, best_sup = v, S
        assert res.support == best_sup
        expect_sigma = float(values.sum() - sum(values[list(best_sup)]))
        assert res.sigma == pytest.approx(expect_sigma, abs=1e-10)


def test_best_term_cap_and_greedy_fallback():
    n = 26
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    w = rng.uniform(1.0, 2.0, n)
    with pytest.raises(EnumerationCapError):
        best_weighted_s_term(x, w, WCARD, 5.0)
    res = best_weighted_s_term(x, w, WCARD, 5.0, allow_greedy_fallback=True)
    assert not res.exact
    assert sparse_measure(res.support, w, WCARD) <= 5.0


# ---------------------------------------------------------------------------
# greedy partition


def test_partition_uniform_weights():
    p = build_partition(np.ones(4), WCARD, 2.0)
    assert p.blocks == ((0, 1), (2, 3))
    assert p.n_blocks == 2
    assert p.nv_bound == pytest.approx(3.0)
    assert p.bound_ok


def test_partition_single_block_when_budget_covers_all():
    p = build_partition(np.ones(5), CARD, 5)
    assert p.blocks == ((0, 1, 2, 3, 4),)
    assert p.nv_bound is None


def test_partition_greedy_trace():
    p = build_partition(np.array([1.0, 2.0, 1.0]), WCARD, 4.0)
    assert p.blocks == ((0,), (1,), (2,))


def test_partition_rejects_oversized_index():
    with pytest.raises(BudgetError, match="alone"):
        build_partition(np.array([1.0, 3.0]), WCARD, 4.0)


def test_partition_bound_violation_raises_then_downgrades():
    w = np.full(10, 2.0)
    with pytest.raises(PartitionBoundError):
        build_partition(w, WCARD, 11.0)
    p = build_partition(w, WCARD, 11.0, strict_nv_bound=False)
    assert p.n_blocks == 5
    assert p.bound_ok is False


def test_partition_bound_on_randomized_weights():
    # regime where the count estimate provably holds: uniform weights with a
    # budget that is an integer multiple of the squared weight
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 25))
        wval = float(rng.uniform(0.5, 2.0))
        q = int(rng.integers(2, 6))
        p = build_partition(np.full(n, wval), WCARD, q * wval**2)
        assert p.bound_ok
    # and an empirically safe random regime, fixed seeds
    for trial in range(50):
        r = np.random.default_rng([7, trial])
        n = int(r.integers(6, 25))
        w = r.uniform(1.0, 2.0, n)
        p = build_partition(w, WCARD, 8.0)
        assert p.bound_ok
        assert p.n_blocks <= p.nv_bound + 1e-12


def test_partition_blocks_are_maximal():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        w = rng.uniform(0.5, 1.5, n)
        s = float(rng.uniform(2.25, 8.0))
        p = build_partition(w, WCARD, s, strict_nv_bound=False)
        flat = [i for b in p.blocks for i in b]
        assert flat == list(range(n))
        for j, b in enumerate(p.blocks):
            assert sparse_measure(b, w, WCARD) <= s
            if j + 1 < len(p.blocks):
                nxt = p.blocks[j + 1][0]
                assert sparse_measure(b + (nxt,), w, WCARD) > s


def test_best_term_knapsack_matches_exhaustive_larger_dims():
    rng = np.random.default_rng(23)
    for n in (15, 16):
        x = rng.standard_normal(n)
        w = rng.uniform(0.5, 2.0, n)
        s = float(rng.uniform(2.0, 0.6 * (w**2).sum()))
        res = best_weighted_s_term(x, w, WCARD, s)
        values = w * np.abs(x)
        costs = w**2
        best_val, best_sup = 0.0, ()
        for r in range(n + 1):
            for S in itertools.combinations(range(n), r):
                if sum(costs[list(S)]) <= s:
                    v = float(sum(values[list(S)]))
                    if v > best_val:
                        best_val, best_sup = v, S
        assert res.support == best_sup
