"""Built-in experiment sweeps: recovery-vs-certification agreement, error
bound validation, and scaling invariance demonstrations.

Each experiment is a pure function from a config dict to (rows, summary).
Trials run one after another in index order. Per-trial randomness is
derived from (seed, trial index), so a sweep resumed from a start index
reproduces the rows of the full run.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

import numpy as np

from .bounds import (
    largest_singular_value,
    recovery_constants_floor_weights,
    rip_nsp_error_budget,
    robust_nsp_constants_from_rip,
)
from .certify import exact_recovery_equivalence_test, nsp_constant, rip_constant
from .construct import (
    sample_partial_unitary,
    shrink_to_break_robust_nsp,
    unitary_with_flat_first_row,
)
from .core import SparseModel, best_weighted_s_term, build_partition
from .solver import ConvergenceError, solve_weighted_bp, solve_weighted_bpdn

__all__ = ["EXPERIMENTS", "run_equivalence_sweep", "run_error_bound_sweep", "run_scaling_demo"]


def _run_trials(
    n_trials: int,
    start_index: int,
    budget_seconds: float | None,
    trial_fn: Callable[[int], dict[str, Any]],
) -> tuple[list[dict[str, Any]], int | None]:
    """Run trial_fn over indices in order, budget-aware.

    Returns (rows in trial order, resume index or None). The budget is
    checked before each trial so a partial run still yields a deterministic
    prefix of the full sweep.
    """
    t0 = time.monotonic()
    rows: list[dict[str, Any]] = []
    for index in range(start_index, n_trials):
        if budget_seconds is not None and time.monotonic() - t0 > budget_seconds:
            return rows, index
        rows.append(trial_fn(index))
    return rows, None


# ---------------------------------------------------------------------------
# (a) recovery-vs-certification equivalence sweep


def _equivalence_instance(rng: np.random.Generator) -> tuple[np.ndarray, Any, SparseModel, float, str]:
    kind = rng.integers(0, 3)
    if kind == 0:  # Gaussian, both verdicts occur
        m, n = [(4, 8), (5, 9), (6, 8), (6, 10)][rng.integers(0, 4)]
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        label = "gaussian"
    elif kind == 1:  # near-square partial orthogonal, mostly satisfied
        n = int(rng.choice([10, 12]))
        m = n - int(rng.integers(1, 3))
        base = unitary_with_flat_first_row(n, seed=int(rng.integers(0, 2**31)), real=True)
        A = sample_partial_unitary(base, m, seed=int(rng.integers(0, 2**31))).matrix
        label = "partial-orthogonal"
    else:  # wide Gaussian, mostly violated
        m, n = [(7, 12), (8, 14)][rng.integers(0, 2)]
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        label = "gaussian-wide"
    if rng.integers(0, 2) == 0:
        model = SparseModel.CARDINALITY
        w = rng.uniform(0.7, 1.0, A.shape[1])
        s: float = int(rng.integers(1, 3))
    else:
        model = SparseModel.WEIGHTED_CARDINALITY
        w = rng.uniform(1.0, 1.15, A.shape[1])
        s = float(rng.choice([2.7, 4.0]))
    return A, w, model, s, label


def run_equivalence_sweep(config: dict[str, Any]):
    trials = int(config.get("trials", 30))
    seed = int(config.get("seed", 0))
    start = int(config.get("start_index", 0))
    budget = config.get("budget_seconds")

    def one(trial: int) -> dict[str, Any]:
        rng = np.random.default_rng([seed, trial])
        A, w, model, s, label = _equivalence_instance(rng)
        verdict = exact_recovery_equivalence_test(A, w, model, s, trials=1, seed=seed + trial)
        return {
            "trial": trial,
            "instance": label,
            "m": A.shape[0],
            "N": A.shape[1],
            "model": model.value,
            "s": s,
            "gamma": verdict.gamma,
            "nsp_satisfied": verdict.nsp_satisfied,
            "mode": verdict.mode,
            "supports_tested": verdict.supports_tested,
            "max_recovery_error": verdict.max_recovery_error,
            "competitor_objective_gap": verdict.competitor_objective_gap,
            "consistent": verdict.consistent,
        }

    rows, resume = _run_trials(trials, start, budget, one)
    agree = sum(r["consistent"] for r in rows)
    summary: dict[str, Any] = {
        "experiment": "equivalence",
        "trials_run": len(rows),
        "agreement": agree,
        "agreement_rate": agree / len(rows) if rows else None,
        "violations": len(rows) - agree,
    }
    if resume is not None:
        summary["resume_token"] = {"start_index": resume}
    return rows, summary


# ---------------------------------------------------------------------------
# (b) error bound validation sweep


def run_error_bound_sweep(config: dict[str, Any]):
    trials = int(config.get("trials", 20))
    seed = int(config.get("seed", 0))
    start = int(config.get("start_index", 0))
    budget = config.get("budget_seconds")
    noise_levels = [float(x) for x in config.get("noise_levels", [1e-4, 1e-2, 1e-1])]
    floors = [float(x) for x in config.get("weight_floors", [0.8, 0.9, 1.0])]

    def one(trial: int) -> dict[str, Any]:
        rng = np.random.default_rng([seed, trial])
        n = int(rng.choice([10, 12, 14]))
        tall = rng.integers(0, 2) == 0
        if tall:  # near-square partial orthogonal: the isometry premise can hold
            base = unitary_with_flat_first_row(n, seed=int(rng.integers(0, 2**31)), real=True)
            A = sample_partial_unitary(
                base, n - 1, seed=int(rng.integers(0, 2**31)), exclude_first_row=True
            ).matrix
            label = "partial-orthogonal"
        else:
            A = rng.standard_normal((n - 4, n))
            A /= np.linalg.norm(A, axis=0)
            label = "gaussian"
        floor = float(floors[rng.integers(0, len(floors))])
        w = rng.uniform(floor, 1.0, n)
        s = int(rng.integers(1, 3))
        delta = rip_constant(A, w, SparseModel.CARDINALITY, 2 * s).delta
        premise = delta < floor / (floor + 2.0)

        row: dict[str, Any] = {
            "trial": trial,
            "instance": label,
            "m": A.shape[0],
            "N": n,
            "s": s,
            "weight_floor": floor,
            "delta_2s": delta,
            "premise_holds": premise,
        }
        unchecked = dict(
            rho=None, error_l2=None, error_wl1=None, bound_l2=None, bound_wl1=None,
            budget_l2=None,
        )
        if not premise:
            row.update(
                unchecked, passed=True, vacuous=True, status="vacuous", certified=None,
                solver_gap=None,
            )
            return row

        consts = recovery_constants_floor_weights(delta, floor)
        support = rng.choice(n, size=s, replace=False)
        x = np.zeros(n)
        x[support] = rng.standard_normal(s)
        rho = float(noise_levels[trial % len(noise_levels)])
        e = rng.standard_normal(A.shape[0])
        e *= rho / np.linalg.norm(e)
        y = A @ x + e
        try:
            out = (
                solve_weighted_bpdn(A, y, w, epsilon=rho)
                if rho > 0
                else solve_weighted_bp(A, y, w)
            )
        except ConvergenceError as err:
            # one trial that hits the iteration cap must not abort the sweep
            row.update(
                unchecked,
                rho=rho,
                passed=None,
                vacuous=False,
                status="not-converged",
                certified=False,
                solver_gap=err.outcome.diagnostics["gap"],
            )
            return row
        certified = bool(out.diagnostics.get("certified"))
        sigma = best_weighted_s_term(x, w, SparseModel.CARDINALITY, s).sigma
        err_l2 = float(np.linalg.norm(out.x - x))
        err_wl1 = float(np.sum(w * np.abs(out.x - x)))
        bound_l2 = consts.l2_sigma * sigma / math.sqrt(s) + consts.l2_noise * rho
        bound_wl1 = consts.l1_sigma * sigma + consts.l1_noise * math.sqrt(s) * rho
        part = build_partition(w, SparseModel.CARDINALITY, s)
        budget_b = rip_nsp_error_budget(
            sigma, s, delta, part.n_blocks, largest_singular_value(A), rho, consts
        )
        row.update(
            rho=rho,
            error_l2=err_l2,
            error_wl1=err_wl1,
            bound_l2=bound_l2,
            bound_wl1=bound_wl1,
            budget_l2=budget_b.l2_bound,
            passed=bool(err_l2 <= bound_l2 + 1e-12 and err_wl1 <= bound_wl1 + 1e-12),
            vacuous=False,
            status="converged",
            certified=certified,
            # a certified point is optimal; the gap of the last iterate says nothing about it
            solver_gap=None if certified else out.diagnostics.get("gap"),
        )
        return row

    rows, resume = _run_trials(trials, start, budget, one)
    checked = [r for r in rows if not r["vacuous"]]
    summary: dict[str, Any] = {
        "experiment": "error-bounds",
        "trials_run": len(rows),
        "premise_true": len(checked),
        "violations": sum(r["passed"] is False for r in rows),
        "not_converged": sum(r["status"] == "not-converged" for r in rows),
    }
    if resume is not None:
        summary["resume_token"] = {"start_index": resume}
    return rows, summary


# ---------------------------------------------------------------------------
# (c) scaling invariance demo


def run_scaling_demo(config: dict[str, Any]):
    seed = int(config.get("seed", 0))
    factors = [float(c) for c in config.get("factors", [0.5, 2.0])]
    rows: list[dict[str, Any]] = []

    instances: list[tuple[str, np.ndarray, Any, SparseModel, float]] = []
    instances.append(("identity", np.eye(4), np.ones(4), SparseModel.CARDINALITY, 1))
    base = unitary_with_flat_first_row(10, seed=seed + 1, real=True)
    Apu = sample_partial_unitary(base, 8, seed=seed + 2).matrix
    rng = np.random.default_rng(seed)
    instances.append(
        ("partial-orthogonal", Apu, rng.uniform(0.8, 1.0, 10), SparseModel.CARDINALITY, 2)
    )

    trial = 0
    for label, A, w, model, s in instances:
        delta = rip_constant(A, w, model, s).delta
        gamma = nsp_constant(A, w, model, s).gamma
        for c in factors:
            scaled_delta = rip_constant(c * A, w, model, s).delta
            scaled_gamma = nsp_constant(c * A, w, model, s).gamma
            attack = c * c < (1.0 - delta) / (1.0 + delta) if delta < 1 else False
            rows.append(
                {
                    "trial": trial,
                    "kind": "rip-scaling",
                    "instance": label,
                    "factor": c,
                    "delta_base": delta,
                    "delta_scaled": scaled_delta,
                    "attack_predicted": attack,
                    "attack_confirmed": bool(scaled_delta > delta) if attack else None,
                    "gamma_base": gamma,
                    "gamma_scaled": scaled_gamma,
                    "gamma_drift": abs(scaled_gamma - gamma),
                    "passed": bool(
                        abs(scaled_gamma - gamma) <= 1e-10
                        and (not attack or scaled_delta > delta)
                    ),
                }
            )
            trial += 1

    # robust property broken by pure shrinking: near-square instance where
    # the triple-order constant is small enough to supply valid constants
    n = int(config.get("robust_dim", 17))
    s_w = float(config.get("robust_budget", 2.2))
    base = unitary_with_flat_first_row(n, seed=seed + 3, real=True)
    Psi = sample_partial_unitary(base, n - 1, seed=seed + 4, exclude_first_row=True).matrix
    w = np.ones(n)
    d3 = rip_constant(Psi, w, SparseModel.WEIGHTED_CARDINALITY, 3 * s_w).delta
    if d3 < 1.0 / 3.0:
        consts = robust_nsp_constants_from_rip(d3)
        x = np.zeros(n)
        x[0] = 1.0
        shrink = shrink_to_break_robust_nsp(Psi, w, s_w, consts.rho, consts.gamma, x)
        rows.append(
            {
                "trial": trial,
                "kind": "robust-shrink",
                "instance": "partial-orthogonal",
                "factor": shrink.factor,
                "delta_base": d3,
                "delta_scaled": None,
                "attack_predicted": True,
                "attack_confirmed": shrink.violated,
                "gamma_base": None,
                "gamma_scaled": None,
                "gamma_drift": None,
                "passed": bool(shrink.violated),
            }
        )
    summary = {
        "experiment": "scaling",
        "trials_run": len(rows),
        "violations": sum(not r["passed"] for r in rows),
    }
    return rows, summary


EXPERIMENTS: dict[str, Callable[..., tuple[list[dict[str, Any]], dict[str, Any]]]] = {
    "equivalence": run_equivalence_sweep,
    "error-bounds": run_error_bound_sweep,
    "scaling": run_scaling_demo,
}
