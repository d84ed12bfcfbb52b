"""Command line interface: certify, recover, construct, experiment.

Every command reads a JSON config with a fixed key schema (unknown keys are
rejected), emits a schema-versioned JSON report on stdout, and isolates
timing in a separate telemetry object so everything else is byte
reproducible for a given config and seed. Exit codes: 0 success/satisfied,
2 property violated or checks failed, 1 errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from .certify import (
    CertificationReport,
    check_robust_nsp_kernel,
    nsp_constant,
    rip_constant,
)
from .construct import (
    ConstructionError,
    SenseMatrix,
    build_counterexample,
    dft_matrix,
    sample_partial_unitary,
    unitary_with_flat_first_row,
)
from .core import BudgetError, EnumerationCapError, SparseModel
from .experiments import EXPERIMENTS
from .matrixio import MatrixFormatError, read_matrix, read_vector, write_matrix, write_vector
from .solver import (
    ConvergenceError,
    InfeasibleProblemError,
    solve_weighted_bp,
    solve_weighted_bpdn,
)

REPORT_SCHEMA = "wcs-report/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATED = 2

# robust-nsp work counts that `certify` reports in its telemetry, never in its result
ROBUST_TELEMETRY = ("kernel_path", "kernel_vertices", "offkernel_starts", "offkernel_evaluations")
# solver diagnostics that `recover` reports in its telemetry, never in its result
RECOVER_TELEMETRY = (
    "certified",
    "polish_attempts",
    "anderson_rejects",
    "projection_evals",
    "rootfind_fallbacks",
    "gap",
)


class ConfigError(ValueError):
    """Config file fails schema validation."""


# ---------------------------------------------------------------------------
# config schema handling

_SCHEMAS: dict[str, dict[str, set[str]]] = {
    "certify": {
        "required": {"property", "model", "s", "weights"},
        "optional": {"matrix", "generator", "rho", "gamma", "samples", "threshold", "seed"},
    },
    "recover": {
        "required": {"weights", "epsilon"},
        "optional": {"matrix", "generator", "y", "y_file", "rel_tol", "max_iter", "seed"},
    },
    "construct": {
        "required": {"kind"},
        "optional": {
            "n", "m", "s", "seed", "exclude_first_row", "with_replacement",
            "model", "weights", "certify_inner", "base",
        },
    },
    "experiment": {
        "required": {"name"},
        "optional": {
            "trials", "seed", "noise_levels", "weight_floors", "factors",
            "budget_seconds", "start_index", "robust_dim", "robust_budget",
        },
    },
}


# experiment keys that hold one number, with its type, and those that hold a list
_EXPERIMENT_NUMBERS = {
    "trials": int,
    "seed": int,
    "start_index": int,
    "budget_seconds": float,
    "robust_dim": int,
    "robust_budget": float,
}
_EXPERIMENT_LISTS = ("noise_levels", "weight_floors", "factors")


def _load_config(path: str, command: str) -> dict[str, Any]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    schema = _SCHEMAS[command]
    unknown = set(cfg) - schema["required"] - schema["optional"]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    missing = schema["required"] - set(cfg)
    if missing:
        raise ConfigError(f"missing required config keys for {command}: {sorted(missing)}")
    return cfg


def _parse_model(name: str) -> SparseModel:
    try:
        return SparseModel(name)
    except ValueError:
        raise ConfigError(
            f"unknown model {name!r}; expected 'cardinality' or 'weighted-cardinality'"
        ) from None


def _require(obj: dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{where} needs the key {key!r}")
    return obj[key]


def _number(value: Any, key: str, convert=float):
    """A config value converted to a number; a value of another JSON type is a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key!r} must be a number, not {json.dumps(value)}") from None


def _sample_rows(spec: dict[str, Any], kind: str, where: str) -> SenseMatrix:
    """Rows sampled from the unitary base that a generator or construct spec names.

    dft-rows and partial-dft sample the DFT matrix, orthogonal-rows a seeded
    real orthogonal matrix with a flat first row, partial-unitary the matrix
    in the file named by 'base'.
    """
    seed = _number(spec.get("seed", 0), "seed", int)
    if kind == "partial-unitary":
        if "base" not in spec:
            raise ConfigError("'partial-unitary' needs 'base', a unitary matrix file")
        base, _ = read_matrix(spec["base"])
    else:
        n = _number(_require(spec, "n", where), "n", int)
        base = (
            dft_matrix(n)
            if kind in ("dft-rows", "partial-dft")
            else unitary_with_flat_first_row(n, seed=seed, real=True)
        )
    return sample_partial_unitary(
        base,
        _number(_require(spec, "m", where), "m", int),
        seed=seed,
        exclude_first_row=bool(spec.get("exclude_first_row", False)),
        with_replacement=bool(spec.get("with_replacement", False)),
    )


def _load_matrix(cfg: dict[str, Any]) -> np.ndarray:
    if ("matrix" in cfg) == ("generator" in cfg):
        raise ConfigError("exactly one of 'matrix' (a file path) or 'generator' is required")
    if "matrix" in cfg:
        M, _ = read_matrix(cfg["matrix"])
        return M
    gen = cfg["generator"]
    if not isinstance(gen, dict) or "kind" not in gen:
        raise ConfigError("'generator' must be an object with a 'kind' key")
    kind = gen["kind"]
    if kind == "identity":
        return np.eye(_number(_require(gen, "n", "identity generator"), "n", int))
    if kind in ("dft-rows", "orthogonal-rows"):
        return _sample_rows(gen, kind, f"{kind} generator").matrix
    if kind == "gaussian":
        rng = np.random.default_rng(_number(gen.get("seed", 0), "seed", int))
        m, n = (_number(_require(gen, k, "gaussian generator"), k, int) for k in "mn")
        A = rng.standard_normal((m, n))
        if gen.get("normalize_columns", True):
            A /= np.linalg.norm(A, axis=0)
        return A
    raise ConfigError(f"unknown generator kind {kind!r}")


def _load_weights(cfg: dict[str, Any], n: int) -> np.ndarray:
    spec = cfg["weights"]
    if isinstance(spec, list):
        spec = {"kind": "explicit", "values": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'weights' must be a list or an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "uniform":
        return np.full(n, _number(spec.get("value", 1.0), "value"))
    if kind == "explicit":
        w = np.asarray(_require(spec, "values", "explicit weights"), dtype=float)
        if w.size != n:
            raise ConfigError(f"weights have length {w.size}, matrix has {n} columns")
        return w
    if kind == "random":
        rng = np.random.default_rng(_number(spec.get("seed", 0), "seed", int))
        low = _number(_require(spec, "low", "random weights"), "low")
        high = _number(_require(spec, "high", "random weights"), "high")
        return rng.uniform(low, high, n)
    raise ConfigError(f"unknown weights kind {kind!r}")


def _parse_measurements(cfg: dict[str, Any], m: int) -> np.ndarray:
    if ("y" in cfg) == ("y_file" in cfg):
        raise ConfigError("exactly one of 'y' or 'y_file' is required")
    if "y_file" in cfg:
        y, _ = read_vector(cfg["y_file"])
    else:
        raw = cfg["y"]
        if not isinstance(raw, list):
            raise ConfigError("'y' must be a list of numbers and [re, im] pairs")
        entries = []
        complex_seen = False
        for item in raw:
            if isinstance(item, (list, tuple)):
                if len(item) != 2:
                    raise ConfigError("complex measurement entries must be [re, im] pairs")
                entries.append(complex(_number(item[0], "y"), _number(item[1], "y")))
                complex_seen = True
            else:
                entries.append(_number(item, "y"))
        y = np.asarray(entries, dtype=complex if complex_seen else float)
    if y.size != m:
        raise ConfigError(f"measurement vector has length {y.size}, matrix has {m} rows")
    return y


# ---------------------------------------------------------------------------
# JSON emission


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"real": obj.real.tolist(), "imag": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, complex):
        return {"real": obj.real, "imag": obj.imag}
    if isinstance(obj, SparseModel):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def _emit(
    command: str,
    result: Any,
    started: float,
    out_dir: Path | None,
    telemetry: dict[str, Any] | None = None,
) -> None:
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "result": _jsonable(result),
        "telemetry": {**(telemetry or {}), "wall_time_s": round(time.monotonic() - started, 6)},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        (out_dir / "report.json").write_text(text + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_certify(cfg: dict[str, Any], out_dir: Path | None, started: float) -> int:
    A = _load_matrix(cfg)
    w = _load_weights(cfg, A.shape[1])
    model = _parse_model(cfg["model"])
    s = _number(cfg["s"], "s")
    prop = cfg["property"]
    telemetry = None
    if prop == "rip":
        result = rip_constant(A, w, model, s)
        threshold = cfg.get("threshold")
        report = CertificationReport.from_rip(
            result, w, None if threshold is None else _number(threshold, "threshold")
        )
    elif prop == "nsp":
        result = nsp_constant(A, w, model, s, seed=_number(cfg.get("seed", 0), "seed", int))
        report = CertificationReport.from_nsp(result, w)
        telemetry = {
            "supports_pruned": result.supports_pruned,
            "lp_calls": result.lp_calls,
            "kernel_vertices": result.kernel_vertices,
            "ascent_evaluations": result.ascent_evaluations,
        }
    elif prop == "robust-nsp":
        if model is not SparseModel.WEIGHTED_CARDINALITY:
            raise ConfigError("robust-nsp certification uses the weighted-cardinality model")
        if "rho" not in cfg or "gamma" not in cfg:
            raise ConfigError("robust-nsp certification needs 'rho' and 'gamma'")
        result = check_robust_nsp_kernel(
            A, w, s, _number(cfg["rho"], "rho"), _number(cfg["gamma"], "gamma"),
            samples=_number(cfg.get("samples", 100), "samples", int),
            seed=_number(cfg.get("seed", 0), "seed", int),
        )
        report = CertificationReport.from_robust(result, w)
        telemetry = {k: getattr(result, k) for k in ROBUST_TELEMETRY}
    else:
        raise ConfigError(f"unknown property {prop!r}; expected rip, nsp, or robust-nsp")
    _emit("certify", report, started, out_dir, telemetry)
    return EXIT_VIOLATED if report.satisfied is False else EXIT_OK


def cmd_recover(cfg: dict[str, Any], out_dir: Path | None, started: float) -> int:
    A = _load_matrix(cfg)
    w = _load_weights(cfg, A.shape[1])
    y = _parse_measurements(cfg, A.shape[0])
    epsilon = _number(cfg["epsilon"], "epsilon")
    kwargs: dict[str, Any] = {}
    if "rel_tol" in cfg:
        kwargs["rel_tol"] = _number(cfg["rel_tol"], "rel_tol")
    if "max_iter" in cfg:
        kwargs["max_iter"] = _number(cfg["max_iter"], "max_iter", int)
    if epsilon == 0:
        outcome = solve_weighted_bp(A, y, w, **kwargs)
    else:
        outcome = solve_weighted_bpdn(A, y, w, epsilon, **kwargs)
    if out_dir is not None:
        write_vector(out_dir / "solution.wcsvec", outcome.x)
    payload = _jsonable(outcome)
    payload.pop("x", None)
    diagnostics = payload.pop("diagnostics")
    telemetry = {k: diagnostics[k] for k in RECOVER_TELEMETRY if k in diagnostics}
    _emit("recover", payload, started, out_dir, telemetry)
    return EXIT_OK


def cmd_construct(cfg: dict[str, Any], out_dir: Path | None, started: float) -> int:
    out = out_dir if out_dir is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]
    if kind in ("partial-dft", "orthogonal-rows", "partial-unitary"):
        sm = _sample_rows(cfg, kind, kind)
        write_matrix(
            out / "matrix.wcsmat",
            sm.matrix,
            provenance=[
                f"source {kind}",
                f"rows {list(sm.provenance.rows)}",
                f"seed {cfg.get('seed', 0)}",
            ],
        )
        _emit("construct", {"kind": kind, "provenance": sm.provenance}, started, out_dir)
        return EXIT_OK
    if kind != "counterexample":
        raise ConfigError(f"unknown construct kind {kind!r}")

    n, m = (_number(_require(cfg, k, "counterexample"), k, int) for k in "nm")
    s = _number(_require(cfg, "s", "counterexample"), "s")
    model = _parse_model(cfg.get("model", "weighted-cardinality"))
    w = _load_weights(cfg, n)
    bundle = build_counterexample(
        w, s, m, n, model, seed=_number(cfg.get("seed", 0), "seed", int),
        certify_inner=cfg.get("certify_inner", "auto"),
    )
    write_matrix(out / "phi.wcsmat", bundle.phi.matrix, provenance=[f"seed {cfg.get('seed', 0)}"])
    write_matrix(out / "inner.wcsmat", bundle.inner.matrix)
    for name, vec in [
        ("d", bundle.d), ("phi1", bundle.phi1), ("x0", bundle.x0),
        ("xhat", bundle.xhat), ("z", bundle.z), ("y", bundle.y), ("weights", bundle.weights),
    ]:
        write_vector(out / f"{name}.wcsvec", vec)
    checks = {
        "orthonormality": bundle.diagnostics["orthonormality_error"] <= 1e-10,
        "d_in_kernel": bundle.diagnostics["d_kernel_residual"] <= 1e-9,
        "phi1_orthogonal_to_d": bundle.diagnostics["phi1_dot_d"] <= 1e-10,
        "rho_residual": bundle.diagnostics["rho_residual_relative"] <= 1e-8,
        "alpha_in_bracket": bundle.diagnostics["alpha_in_bracket"],
    }
    manifest = {
        "kind": "counterexample",
        "model": model.value,
        "dimensions": {"N": n, "m": m, "s": s, "k": bundle.k},
        "alpha": bundle.alpha,
        "phi_normalizer": bundle.phi_normalizer,
        "inner_gamma": bundle.inner_gamma,
        "inner_certified": bundle.inner_certified,
        "diagnostics": bundle.diagnostics,
        "premises": bundle.premises,
        "invariant_checks": checks,
    }
    (out / "manifest.json").write_text(
        json.dumps(_jsonable(manifest), indent=2, sort_keys=True) + "\n"
    )
    _emit("construct", manifest, started, out_dir)
    return EXIT_OK if all(checks.values()) else EXIT_VIOLATED


def cmd_experiment(cfg: dict[str, Any], out_dir: Path | None, started: float) -> int:
    name = cfg["name"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}")
    for key, convert in _EXPERIMENT_NUMBERS.items():
        value = cfg.pop(key, None)
        if value is not None:  # null keeps the default
            cfg[key] = _number(value, key, convert)
    for key in _EXPERIMENT_LISTS:
        if key in cfg:
            if not isinstance(cfg[key], list):
                raise ConfigError(f"{key!r} must be a list of numbers")
            cfg[key] = [_number(v, key) for v in cfg[key]]
    rows, summary = EXPERIMENTS[name](cfg)
    out = out_dir if out_dir is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    if rows:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    _emit("experiment", {"summary": summary, "csv": csv_path.name}, started, out_dir)
    return EXIT_VIOLATED if summary.get("violations", 0) else EXIT_OK


_COMMANDS = {
    "certify": cmd_certify,
    "recover": cmd_recover,
    "construct": cmd_construct,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wcs",
        description="Weighted l1 recovery, certification, and counterexample tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="directory for output files")
        # sweeps run in one thread; --workers is still accepted and ignored
        p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        cfg = _load_config(args.config, args.command)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = None
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, started)
    except (
        ConfigError,
        MatrixFormatError,
        ConstructionError,
        BudgetError,
        EnumerationCapError,
        InfeasibleProblemError,
        ConvergenceError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
