"""End-to-end command line behavior: exit codes, determinism, file outputs."""

import json

import numpy as np
import pytest

from wcs.cli import main
from wcs.matrixio import read_matrix, read_vector, write_matrix


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# certify


def test_certify_identity_rip_exit_zero(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "rip",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "generator": {"kind": "identity", "n": 4},
        },
    )
    code, out, _ = _run(capsys, ["certify", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "wcs-report/1"
    assert report["result"]["constants"]["delta"] == pytest.approx(0.0, abs=1e-12)


def test_certify_ones_row_nsp_exit_two_with_witness(tmp_path, capsys):
    write_matrix(tmp_path / "ones.wcsmat", np.array([[1.0, 1.0, 1.0]]))
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "nsp",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "matrix": str(tmp_path / "ones.wcsmat"),
        },
    )
    code, out, _ = _run(capsys, ["certify", "--config", cfg])
    assert code == 2
    report = json.loads(out)
    assert report["result"]["constants"]["gamma"] == pytest.approx(1.0, abs=1e-9)
    assert report["result"]["witness_support"] is not None


def test_certify_malformed_matrix_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.wcsmat"
    bad.write_text("NOTAMAGIC 1 real 1 1\n1\n")
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "rip",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "matrix": str(bad),
        },
    )
    code, _, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert "line 1" in err


def test_certify_rip_non_finite_matrix_exit_one(tmp_path, capsys):
    bad = tmp_path / "nan.wcsmat"
    bad.write_text("WCSMAT 1 real 2 2\n1 nan\n0 1\n")
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "rip",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "matrix": str(bad),
        },
    )
    code, out, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize(
    "weights, key",
    [({"kind": "random", "high": 1.0}, "low"), ({"kind": "explicit"}, "values")],
)
def test_certify_weights_missing_key_exit_one(tmp_path, capsys, weights, key):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "rip",
            "model": "cardinality",
            "s": 1,
            "weights": weights,
            "generator": {"kind": "identity", "n": 3},
        },
    )
    code, _, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert err.startswith("error:") and repr(key) in err


def test_certify_null_order_exit_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "nsp",
            "model": "cardinality",
            "s": None,
            "weights": {"kind": "uniform"},
            "generator": {"kind": "identity", "n": 3},
        },
    )
    code, out, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert out == ""
    assert err == "error: 's' must be a number, not null\n"


def test_certify_unknown_key_rejected(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "rip",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "generator": {"kind": "identity", "n": 3},
            "frobnicate": True,
        },
    )
    code, _, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert "frobnicate" in err


def test_certify_cap_override_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WCS_ENUM_CAP", "4")
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "nsp",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "generator": {"kind": "gaussian", "m": 3, "n": 6, "seed": 0},
        },
    )
    code, _, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert "cap of 4" in err


def test_orthogonal_rows_generator_honours_with_replacement(tmp_path, capsys):
    # six of six rows: distinct rows give an orthogonal matrix (delta 0), a
    # repeated row makes it singular (delta >= 1)
    gen = {"kind": "orthogonal-rows", "n": 6, "m": 6, "seed": 0}
    deltas = []
    for extra in ({}, {"with_replacement": True}):
        cfg = _write_config(
            tmp_path,
            "c.json",
            {
                "property": "rip",
                "model": "cardinality",
                "s": 6,
                "weights": {"kind": "uniform"},
                "generator": dict(gen, **extra),
            },
        )
        _, out, _ = _run(capsys, ["certify", "--config", cfg])
        deltas.append(json.loads(out)["result"]["constants"]["delta"])
    assert deltas[0] == pytest.approx(0.0, abs=1e-12)
    assert deltas[1] >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# recover


def test_recover_zero_solution_flag(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "r.json",
        {
            "generator": {"kind": "identity", "n": 2},
            "weights": {"kind": "uniform"},
            "y": [0.3, -0.4],
            "epsilon": 2.0,
        },
    )
    code, out, _ = _run(capsys, ["recover", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["zero_feasible"] is True
    x, _ = read_vector(tmp_path / "o" / "solution.wcsvec")
    assert np.all(x == 0)


@pytest.mark.parametrize("y", [5, [1.0, None, 0.0], [[1.0, {}], 0.0, 0.0]])
def test_recover_measurements_of_wrong_type_exit_one(tmp_path, capsys, y):
    cfg = _write_config(
        tmp_path,
        "r.json",
        {
            "generator": {"kind": "identity", "n": 3},
            "weights": {"kind": "uniform"},
            "epsilon": 0.0,
            "y": y,
        },
    )
    code, out, err = _run(capsys, ["recover", "--config", cfg])
    assert code == 1
    assert out == ""
    assert err.startswith("error: 'y' must be")


def test_recover_infeasible_exit_one(tmp_path, capsys):
    write_matrix(tmp_path / "a.wcsmat", np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    cfg = _write_config(
        tmp_path,
        "r.json",
        {
            "matrix": str(tmp_path / "a.wcsmat"),
            "weights": {"kind": "uniform"},
            "y": [1.0, 2.0],
            "epsilon": 0,
        },
    )
    code, _, err = _run(capsys, ["recover", "--config", cfg])
    assert code == 1
    assert "radius" in err


def test_recover_planted_instance(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "r.json",
        {
            "generator": {"kind": "orthogonal-rows", "n": 10, "m": 8, "seed": 3},
            "weights": {"kind": "uniform"},
            "y": list(np.zeros(8)),
            "epsilon": 0,
        },
    )
    code, out, _ = _run(capsys, ["recover", "--config", cfg])
    assert code == 0
    assert json.loads(out)["result"]["objective"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# construct


def test_construct_partial_dft_deterministic(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "g.json",
        {"kind": "partial-dft", "n": 8, "m": 3, "seed": 7, "exclude_first_row": True},
    )
    code, _, _ = _run(capsys, ["construct", "--config", cfg, "--out", str(tmp_path / "a")])
    assert code == 0
    code, _, _ = _run(capsys, ["construct", "--config", cfg, "--out", str(tmp_path / "b")])
    assert code == 0
    text_a = (tmp_path / "a" / "matrix.wcsmat").read_text()
    text_b = (tmp_path / "b" / "matrix.wcsmat").read_text()
    assert text_a == text_b
    M, _ = read_matrix(tmp_path / "a" / "matrix.wcsmat")
    assert np.linalg.norm(M @ np.ones(8)) <= 1e-10


def test_construct_counterexample_manifest(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "x.json",
        {
            "kind": "counterexample",
            "n": 64,
            "m": 20,
            "s": 4,
            "model": "weighted-cardinality",
            "weights": {"kind": "random", "low": 1.0, "high": 1.1, "seed": 5},
            "seed": 5,
        },
    )
    out_dir = tmp_path / "ce"
    code, _, _ = _run(capsys, ["construct", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert all(manifest["invariant_checks"].values())
    phi, _ = read_matrix(out_dir / "phi.wcsmat")
    d, _ = read_vector(out_dir / "d.wcsvec")
    assert np.linalg.norm(phi @ d) <= 1e-9
    for name in ("phi1", "x0", "xhat", "z", "y", "weights"):
        assert (out_dir / f"{name}.wcsvec").exists()


def test_construct_degenerate_dimensions_exit_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "x.json",
        {
            "kind": "counterexample",
            "n": 12,
            "m": 8,
            "s": 3,
            "model": "cardinality",
            "weights": {"kind": "uniform"},
        },
    )
    code, _, err = _run(capsys, ["construct", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "N > 4k" in err


# ---------------------------------------------------------------------------
# experiment


def test_experiment_equivalence_deterministic_and_consistent(tmp_path, capsys):
    cfg = _write_config(tmp_path, "e.json", {"name": "equivalence", "trials": 6, "seed": 1})
    code, out_a, _ = _run(
        capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "a"), "--workers", "1"]
    )
    assert code == 0
    code, out_b, _ = _run(
        capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "b"), "--workers", "2"]
    )
    assert code == 0
    csv_a = (tmp_path / "a" / "equivalence.csv").read_text()
    csv_b = (tmp_path / "b" / "equivalence.csv").read_text()
    assert csv_a == csv_b  # --workers is accepted and changes nothing
    report = json.loads(out_a)
    assert report["result"]["summary"]["agreement_rate"] == 1.0


def test_experiment_scaling_demo(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.json", {"name": "scaling", "seed": 0})
    code, out, _ = _run(capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    assert json.loads(out)["result"]["summary"]["violations"] == 0


def test_experiment_budget_produces_resume_token(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "e.json",
        {"name": "equivalence", "trials": 50, "seed": 2, "budget_seconds": 0.0},
    )
    code, out, _ = _run(capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    report = json.loads(out)
    assert "resume_token" in report["result"]["summary"]
    assert report["result"]["summary"]["resume_token"]["start_index"] >= 0


def test_experiment_unknown_name(tmp_path, capsys):
    cfg = _write_config(tmp_path, "e.json", {"name": "nope"})
    code, _, err = _run(capsys, ["experiment", "--config", cfg])
    assert code == 1
    assert "nope" in err


_GAUSSIAN_NSP = {
    "property": "nsp",
    "model": "cardinality",
    "s": 1,
    "weights": {"kind": "uniform"},
}


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("experiment", {"name": "equivalence", "trials": [1]}, "trials"),
        ("experiment", {"name": "scaling", "seed": [1]}, "seed"),
        (
            "experiment",
            {"name": "equivalence", "trials": 1, "budget_seconds": "x"},
            "budget_seconds",
        ),
        (
            "construct",
            {"kind": "counterexample", "n": [64], "m": 20, "s": 4, "weights": {"kind": "uniform"}},
            "n",
        ),
        ("certify", {**_GAUSSIAN_NSP, "generator": {"kind": "gaussian", "m": [4], "n": 8}}, "m"),
    ],
    ids=["experiment-trials", "experiment-seed", "experiment-budget", "construct-n", "generator-m"],
)
def test_config_value_of_wrong_type_exit_one(tmp_path, capsys, command, payload, key):
    cfg = _write_config(tmp_path, "c.json", payload)
    code, out, err = _run(capsys, [command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key!r} must be a number") and err.count("\n") == 1


def test_recover_reports_solver_diagnostics_only_in_telemetry(tmp_path, capsys):
    from wcs.cli import (
        RECOVER_TELEMETRY,
        _jsonable,
        _load_matrix,
        _load_weights,
        _parse_measurements,
    )
    from wcs.solver import solve_weighted_bpdn

    config = {
        "generator": {"kind": "dft-rows", "n": 8, "m": 5, "seed": 0},
        "weights": {"kind": "uniform"},
        "y": [[-0.316, 0.578], [-0.894, 0.447], [0.316, -1.211], [0.447, 0.0], [0.316, 1.211]],
        "epsilon": 0.01,
    }
    cfg = _write_config(tmp_path, "r.json", config)
    code, out, _ = _run(capsys, ["recover", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    A = _load_matrix(config)
    outcome = solve_weighted_bpdn(
        A, _parse_measurements(config, A.shape[0]), _load_weights(config, A.shape[1]), 0.01
    )
    # the result bytes are those of the outcome without x and its diagnostics
    bare = {k: v for k, v in _jsonable(outcome).items() if k not in ("x", "diagnostics")}
    assert json.dumps(report["result"], sort_keys=True) == json.dumps(bare, sort_keys=True)
    telemetry = report["telemetry"]
    assert set(telemetry) == {*RECOVER_TELEMETRY, "wall_time_s"}
    assert telemetry["certified"] is True
    assert {k: telemetry[k] for k in RECOVER_TELEMETRY} == _jsonable(
        {k: outcome.diagnostics[k] for k in RECOVER_TELEMETRY}
    )


def test_recover_from_vector_file(tmp_path, capsys):
    from wcs.matrixio import write_vector

    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 8))
    A /= np.linalg.norm(A, axis=0)
    x = np.zeros(8)
    x[2] = 1.5
    write_matrix(tmp_path / "a.wcsmat", A)
    write_vector(tmp_path / "y.wcsvec", A @ x)
    cfg = _write_config(
        tmp_path,
        "r.json",
        {
            "matrix": str(tmp_path / "a.wcsmat"),
            "weights": {"kind": "uniform"},
            "y_file": str(tmp_path / "y.wcsvec"),
            "epsilon": 0,
        },
    )
    code, out, _ = _run(capsys, ["recover", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    sol, _ = read_vector(tmp_path / "o" / "solution.wcsvec")
    assert np.linalg.norm(sol - x) <= 1e-6


def test_certify_robust_nsp_roundtrip(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "robust-nsp",
            "model": "weighted-cardinality",
            "s": 2.2,
            "rho": 0.9,
            "gamma": 2.0,
            "samples": 10,
            "weights": {"kind": "uniform"},
            "generator": {"kind": "orthogonal-rows", "n": 12, "m": 11,
                          "seed": 2, "exclude_first_row": True},
        },
    )
    code, out, _ = _run(capsys, ["certify", "--config", cfg])
    report = json.loads(out)
    assert report["result"]["property"] == "robust-nsp"
    assert report["result"]["status"] in (
        "certified-on-kernel", "violated", "undecided-off-kernel"
    )
    assert code in (0, 2)


@pytest.mark.parametrize("s", [0, -1])
def test_certify_robust_nsp_nonpositive_budget_exit_one(tmp_path, capsys, s):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "robust-nsp",
            "model": "weighted-cardinality",
            "s": s,
            "rho": 0.9,
            "gamma": 2.0,
            "weights": {"kind": "uniform"},
            "generator": {"kind": "gaussian", "m": 4, "n": 8},
        },
    )
    code, out, err = _run(capsys, ["certify", "--config", cfg])
    assert code == 1
    assert out == ""
    assert err == f"error: budget must be positive, got {float(s)}\n"


def test_experiment_error_bounds_sweep(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "e.json",
        {"name": "error-bounds", "trials": 8, "seed": 3, "noise_levels": [1e-3, 1e-2]},
    )
    code, out, _ = _run(capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads(out)["result"]["summary"]
    assert summary["violations"] == 0
    assert summary["premise_true"] >= 1
    header = (tmp_path / "o" / "error-bounds.csv").read_text().splitlines()[0]
    assert "bound_l2" in header and "premise_holds" in header


def test_experiment_error_bounds_records_nonconverged_trials(tmp_path, capsys, monkeypatch):
    import wcs.experiments
    import wcs.solver

    capped = wcs.experiments.solve_weighted_bpdn
    # a polish that never certifies and a cap of 10 iterations leave every solve
    # to the fixed-point stopping rule, which it cannot meet in time
    monkeypatch.setattr(wcs.solver, "_polish", lambda *args: None)
    monkeypatch.setattr(
        wcs.experiments,
        "solve_weighted_bpdn",
        lambda *args, **kwargs: capped(*args, max_iter=10, **kwargs),
    )
    cfg = _write_config(
        tmp_path,
        "e.json",
        {"name": "error-bounds", "trials": 8, "seed": 3, "noise_levels": [1e-3, 1e-2]},
    )
    code, out, _ = _run(capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads(out)["result"]["summary"]
    assert summary["not_converged"] == summary["premise_true"] >= 1
    assert summary["violations"] == 0
    rows = (tmp_path / "o" / "error-bounds.csv").read_text().splitlines()
    header = rows[0].split(",")
    stalled = [dict(zip(header, r.split(","))) for r in rows[1:] if "not-converged" in r]
    assert len(stalled) == summary["not_converged"]
    assert all(float(r["solver_gap"]) > 0 and r["passed"] == "" for r in stalled)


def test_experiment_error_bounds_default_sweep_converges(tmp_path, capsys):
    cfg = _write_config(tmp_path, "e.json", {"name": "error-bounds", "seed": 0})
    code, out, _ = _run(capsys, ["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    summary = json.loads(out)["result"]["summary"]
    assert summary["premise_true"] >= 1
    assert summary["not_converged"] == 0
    assert summary["violations"] == 0


def test_certify_infinite_constant_serializes(tmp_path, capsys):
    # a zero column hides a kernel vector inside a single support
    write_matrix(tmp_path / "a.wcsmat", np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "nsp",
            "model": "cardinality",
            "s": 1,
            "weights": {"kind": "uniform"},
            "matrix": str(tmp_path / "a.wcsmat"),
        },
    )
    code, out, _ = _run(capsys, ["certify", "--config", cfg])
    assert code == 2
    report = json.loads(out)
    assert report["result"]["constants"]["gamma"] == "inf"
    assert report["result"]["witness_support"] == [2]


def test_certify_reports_deterministic_modulo_telemetry(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "property": "nsp",
            "model": "cardinality",
            "s": 2,
            "weights": {"kind": "random", "low": 0.7, "high": 1.0, "seed": 9},
            "generator": {"kind": "gaussian", "m": 5, "n": 9, "seed": 9},
        },
    )
    _, out_a, _ = _run(capsys, ["certify", "--config", cfg])
    _, out_b, _ = _run(capsys, ["certify", "--config", cfg])
    a, b = json.loads(out_a), json.loads(out_b)
    a.pop("telemetry")
    b.pop("telemetry")
    assert a == b
