"""Weights, sparse set functions, supports, and weighted s-term approximation.

Index sets are 0-based sorted tuples of ints. All operations are pure
functions over immutable inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_ENUM_CAP",
    "ENUM_CAP_ENV",
    "BudgetError",
    "EnumerationCapError",
    "Partition",
    "PartitionBoundError",
    "SparseModel",
    "TermApproximation",
    "WeightProfile",
    "as_matrix",
    "as_weights",
    "best_weighted_s_term",
    "build_partition",
    "complement",
    "enumerate_admissible_supports",
    "enumeration_cap",
    "maximal_admissible_supports",
    "sparse_measure",
    "standing_assumption_holds",
    "weighted_l1_norm",
]

DEFAULT_ENUM_CAP = 24
ENUM_CAP_ENV = "WCS_ENUM_CAP"


class EnumerationCapError(ValueError):
    """Raised when an exact operation would enumerate beyond the index cap."""


class BudgetError(ValueError):
    """Raised when a sparsity budget is inconsistent with the weights."""


class PartitionBoundError(RuntimeError):
    """Raised when the greedy partition count exceeds the N*w_max^2/s + 1 bound."""


def enumeration_cap() -> int:
    """Active enumeration cap: WCS_ENUM_CAP when set, else 24."""
    env = os.environ.get(ENUM_CAP_ENV)
    return int(env) if env else DEFAULT_ENUM_CAP


def _check_cap(n: int, what: str) -> None:
    limit = enumeration_cap()
    if n > limit:
        raise EnumerationCapError(
            f"{what} requires enumerating {n} indices, above the cap of {limit} "
            f"(override with {ENUM_CAP_ENV})"
        )


class SparseModel(Enum):
    """Which set function measures the size of a support.

    CARDINALITY counts indices; WEIGHTED_CARDINALITY sums squared weights.
    """

    CARDINALITY = "cardinality"
    WEIGHTED_CARDINALITY = "weighted-cardinality"


@dataclass(frozen=True)
class WeightProfile:
    """Per-index positive weights with cached extremes."""

    w: np.ndarray
    w_max: float = field(init=False)
    w_min: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a nonempty 1-d vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be strictly positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_max", float(w.max()))
        object.__setattr__(self, "w_min", float(w.min()))

    def __len__(self) -> int:
        return int(self.w.size)

    @property
    def squared(self) -> np.ndarray:
        return self.w * self.w


def as_weights(w, n: int | None = None) -> WeightProfile:
    """Coerce an array or WeightProfile; optionally check the dimension."""
    prof = w if isinstance(w, WeightProfile) else WeightProfile(np.asarray(w))
    if n is not None and len(prof) != n:
        raise ValueError(f"weight vector has length {len(prof)}, expected {n}")
    return prof


def as_matrix(A) -> np.ndarray:
    """Coerce an array or SenseMatrix to a 2-d array with finite entries."""
    M = np.asarray(getattr(A, "matrix", A))
    if M.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def complement(support: Sequence[int], n: int) -> tuple[int, ...]:
    """Sorted complement of a support inside range(n)."""
    inside = set(support)
    return tuple(i for i in range(n) if i not in inside)


def _validate_support(support: Sequence[int], n: int) -> tuple[int, ...]:
    s = tuple(int(i) for i in support)
    if any(i < 0 or i >= n for i in s):
        raise ValueError(f"support {s} has indices outside range(0, {n})")
    if len(set(s)) != len(s):
        raise ValueError(f"support {s} has repeated indices")
    return tuple(sorted(s))


def weighted_l1_norm(x, w) -> float:
    """Weighted l1 norm sum_j w_j * |x_j| (complex modulus)."""
    x = np.asarray(x)
    prof = as_weights(w)
    if x.ndim != 1 or x.size != len(prof):
        raise ValueError(
            f"vector has shape {x.shape}, expected ({len(prof)},) to match the weights"
        )
    return float(np.sum(prof.w * np.abs(x)))


def sparse_measure(support: Sequence[int], w, model: SparseModel) -> float:
    """Size of a support under the sparse set function of the given model."""
    prof = as_weights(w)
    sup = _validate_support(support, len(prof))
    if model is SparseModel.CARDINALITY:
        return float(len(sup))
    return float(np.sum(prof.squared[list(sup)])) if sup else 0.0


def standing_assumption_holds(w, model: SparseModel, s: float) -> bool:
    """True when s >= 2 * max_i nu({i}), the usual working assumption."""
    prof = as_weights(w)
    single = 1.0 if model is SparseModel.CARDINALITY else prof.w_max**2
    return s >= 2.0 * single


def _budget_and_costs(w: WeightProfile, model: SparseModel, s: float) -> tuple[float, np.ndarray]:
    if model is SparseModel.CARDINALITY:
        if s != int(s):
            raise BudgetError(f"cardinality budget must be an integer, got {s}")
        if s < 1:
            raise BudgetError(f"budget must be at least 1, got {s}")
        return float(int(s)), np.ones(len(w))
    if s <= 0:
        raise BudgetError(f"budget must be positive, got {s}")
    return float(s), w.squared


def enumerate_admissible_supports(
    n: int, w, model: SparseModel, s: float
) -> Iterator[tuple[int, ...]]:
    """Yield every nonempty support with measure <= s, in lexicographic order.

    Depth-first with budget pruning; refuses dimensions above the
    enumeration cap.
    """
    prof = as_weights(w, n)
    _check_cap(n, "support enumeration")
    budget, costs = _budget_and_costs(prof, model, s)

    prefix: list[int] = []

    def rec(start: int, used: float) -> Iterator[tuple[int, ...]]:
        for i in range(start, n):
            c = costs[i]
            if used + c <= budget:
                prefix.append(i)
                yield tuple(prefix)
                yield from rec(i + 1, used + c)
                prefix.pop()

    yield from rec(0, 0.0)


def maximal_admissible_supports(
    n: int, w, model: SparseModel, s: float
) -> Iterator[tuple[int, ...]]:
    """Yield the admissible supports that cannot be extended by any index.

    Quantities that are monotone under support inclusion (restricted
    isometry extremes, null space ratios) attain their extrema on these.
    Under the cardinality model they are the subsets of size min(s, N) in
    lexicographic order. The weighted model yields the subsets of one size k
    the same way when the costs w_i^2 decide it: the k largest sum to at
    most the budget and the k + 1 smallest to more, each with a margin of
    (N + 1) eps budget, so the left-to-right float sums of the search could
    not decide otherwise. Any other weighted case searches depth-first in
    the same order.
    """
    prof = as_weights(w, n)
    _check_cap(n, "support enumeration")
    budget, costs = _budget_and_costs(prof, model, s)
    if model is SparseModel.CARDINALITY:
        k = min(int(budget), n)
    else:
        k = _single_support_size(costs, budget)
    if k is None:
        yield from _maximal_supports_depth_first(costs, budget)
    elif k:
        yield from combinations(range(n), k)


def _single_support_size(costs: np.ndarray, budget: float) -> int | None:
    """The size k of every maximal support when rounding cannot blur it, else None."""
    n = len(costs)
    ascending = np.sort(costs)
    slack = (n + 1) * np.finfo(float).eps * budget
    largest = np.cumsum(ascending[::-1])
    k = int(np.searchsorted(largest, budget - slack, side="right"))
    if k < n and np.sum(ascending[: k + 1]) <= budget + slack:
        return None
    return k


def _maximal_supports_depth_first(costs: np.ndarray, budget: float) -> Iterator[tuple[int, ...]]:
    """Maximal supports under per-index costs, depth-first in lexicographic order."""
    n = len(costs)
    costs = costs.tolist()
    # float addition is monotone, so some index from start on fits exactly
    # when the cheapest one does
    cheapest = [math.inf] * (n + 1)
    for i in range(n - 1, -1, -1):
        cheapest[i] = min(costs[i], cheapest[i + 1])
    prefix: list[int] = []

    def rec(start: int, used: float, min_skipped: float) -> Iterator[tuple[int, ...]]:
        # min_skipped: cheapest cost among indices excluded by choice so far
        if used + cheapest[start] > budget:
            if prefix and used + min_skipped > budget:
                yield tuple(prefix)
            return
        for i in range(start, n):
            c = costs[i]
            if used + c <= budget:
                prefix.append(i)
                yield from rec(i + 1, used + c, min_skipped)
                prefix.pop()
                min_skipped = min(min_skipped, c)

    yield from rec(0, 0.0, math.inf)


@dataclass(frozen=True)
class TermApproximation:
    """Best weighted s-term approximation: kept support and tail norm."""

    support: tuple[int, ...]
    sigma: float
    exact: bool


def _knapsack_best_support(
    values: np.ndarray, costs: np.ndarray, budget: float
) -> tuple[tuple[int, ...], float]:
    """Exact 0/1 knapsack by depth-first branch and bound in index order.

    First optimum found wins, which makes ties resolve to the
    lexicographically smallest support.
    """
    n = len(values)
    density_order = sorted(range(n), key=lambda j: (-values[j] / costs[j], j))

    def frac_bound(start: int, rem: float) -> float:
        b = 0.0
        for j in density_order:
            if j < start:
                continue
            if costs[j] <= rem:
                rem -= costs[j]
                b += values[j]
            else:
                b += values[j] * (rem / costs[j])
                break
        return b

    best_val = 0.0
    best_set: tuple[int, ...] = ()
    chosen: list[int] = []

    def rec(i: int, val: float, rem: float) -> None:
        nonlocal best_val, best_set
        if val > best_val:
            best_val = val
            best_set = tuple(chosen)
        if i == n or val + frac_bound(i, rem) <= best_val:
            return
        if costs[i] <= rem:
            chosen.append(i)
            rec(i + 1, val + values[i], rem - costs[i])
            chosen.pop()
        rec(i + 1, val, rem)

    rec(0, 0.0, budget)
    return best_set, best_val


def best_weighted_s_term(
    x,
    w,
    model: SparseModel,
    s: float,
    allow_greedy_fallback: bool = False,
) -> TermApproximation:
    """Support maximizing kept weighted l1 mass under the budget, plus the tail.

    Cardinality: keep the s largest values of w_i * |x_i| (ties to the lower
    index). Weighted cardinality: exact knapsack via branch and bound up to
    the enumeration cap; above it a greedy pass runs only when
    allow_greedy_fallback is set and the result is tagged approximate.
    """
    x = np.asarray(x)
    prof = as_weights(w, x.size)
    n = x.size
    budget, costs = _budget_and_costs(prof, model, s)
    values = prof.w * np.abs(x)

    exact = True
    if model is SparseModel.CARDINALITY:
        k = min(int(budget), n)
        order = np.lexsort((np.arange(n), -values))
        support = tuple(sorted(int(i) for i in order[:k]))
    else:
        if n > enumeration_cap():
            if not allow_greedy_fallback:
                _check_cap(n, "exact weighted s-term selection")
            exact = False
            density = np.abs(x) / prof.w  # value/cost = w|x| / w^2
            support_list: list[int] = []
            rem = budget
            for i in sorted(range(n), key=lambda j: (-density[j], j)):
                if costs[i] <= rem:
                    support_list.append(i)
                    rem -= costs[i]
            support = tuple(sorted(support_list))
        else:
            support, _ = _knapsack_best_support(values, costs, budget)

    keep = np.zeros(n, dtype=bool)
    keep[list(support)] = True
    sigma = float(np.sum(values[~keep]))
    return TermApproximation(support=support, sigma=sigma, exact=exact)


@dataclass(frozen=True)
class Partition:
    """Greedy contiguous partition of range(n) into budget-s blocks."""

    blocks: tuple[tuple[int, ...], ...]
    model: SparseModel
    budget: float
    nv_bound: float | None
    bound_ok: bool | None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_partition(
    w,
    model: SparseModel,
    s: float,
    n: int | None = None,
    strict_nv_bound: bool = True,
) -> Partition:
    """Pack indices left to right into maximal blocks of measure <= s.

    For the weighted model the count estimate n * w_max^2 / s + 1 is
    recorded and checked; the estimate is not valid for every weight/budget
    combination, so strict_nv_bound=False downgrades a violation from an
    exception to bound_ok=False.
    """
    prof = as_weights(w, n)
    n = len(prof)
    budget, costs = _budget_and_costs(prof, model, s)

    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    used = 0.0
    for i in range(n):
        c = costs[i]
        if c > budget:
            raise BudgetError(f"index {i} alone has measure {c}, above the budget {budget}")
        if current and used + c > budget:
            blocks.append(tuple(current))
            current = [i]
            used = c
        else:
            current.append(i)
            used += c
    if current:
        blocks.append(tuple(current))

    nv_bound = None
    bound_ok = None
    if model is SparseModel.WEIGHTED_CARDINALITY:
        nv_bound = n * prof.w_max**2 / budget + 1.0
        bound_ok = len(blocks) <= nv_bound + 1e-12
        if strict_nv_bound and not bound_ok:
            raise PartitionBoundError(
                f"greedy partition produced {len(blocks)} blocks, above the "
                f"estimate {nv_bound:.6g}; pass strict_nv_bound=False to keep going"
            )
    return Partition(
        blocks=tuple(blocks), model=model, budget=budget, nv_bound=nv_bound, bound_ok=bound_ok
    )
