"""The three workloads: seeded job streams, the calls into wcs, output checks.

A workload is a sequence of rounds, and every round holds the same jobs;
the seed orders them. Instance costs within a class spread by up to ten
times, so rounds that drew different instances per seed would not be
comparable. Certify and recover jobs are numbered instances of their class,
generated from the class name and number; their reference values live in
``perfbench/reference``. Replay jobs are command-line calls on configs, and
the seed also picks the counterexample and scaling seeds.

Every name the jobs call is imported into this module, so the tracer can
wrap the benchmark's own call sites the same way as the program's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.optimize import linprog as oracle_linprog

from wcs.certify import (
    check_robust_nsp_kernel,
    disjoint_inner_product_bound_check,
    nsp_constant,
    rip_constant,
)
from wcs.cli import main as cli_main
from wcs.core import SparseModel
from wcs.solver import (
    DEFAULT_FEAS_TOL,
    ConvergenceError,
    solve_weighted_bp,
    solve_weighted_bpdn,
)

CARD = SparseModel.CARDINALITY
WCARD = SparseModel.WEIGHTED_CARDINALITY

EXACT_RTOL = 1e-9  # exact constants: real NSP, RIP, disjoint coherence
LOWER_RTOL = 1e-9  # slack for lower-bound constants: complex NSP, robust ratio
OBJECTIVE_RTOL = 1e-6  # solver objective against the reference and the LP oracle

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Job:
    cls: str  # job class name
    index: int  # pool member (certify, recover) or round position (replay)
    inputs: dict[str, Any]


@dataclass
class Outcome:
    job: Job
    latency: float
    output: Any = None
    error: BaseException | None = None


def _stream_rng(*key) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(str(k).encode()) for k in key])


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# matrices (generated here, independent of wcs.construct)


def _orthogonal_flat_first_row(n: int, rng) -> np.ndarray:
    G = rng.standard_normal((n, n))
    G[:, 0] = 1.0
    Q, R = np.linalg.qr(G)
    return (Q * np.sign(np.diag(R))).T


def _dft(n: int) -> np.ndarray:
    t = np.arange(n)
    return np.exp(2j * np.pi * np.outer(t, t) / n) / math.sqrt(n)


def _rows(U: np.ndarray, m: int, rng, skip_first: bool = False) -> np.ndarray:
    n = U.shape[0]
    rows = np.sort(rng.choice(np.arange(1 if skip_first else 0, n), size=m, replace=False))
    return U[rows] * math.sqrt(n / m)


def make_matrix(family: str, n: int, m: int, rng) -> np.ndarray:
    if family == "po":  # partial orthogonal, random kernel
        return _rows(_orthogonal_flat_first_row(n, rng), m, rng)
    if family == "po-flat":  # partial orthogonal with the ones vector in the kernel
        return _rows(_orthogonal_flat_first_row(n, rng), m, rng, skip_first=True)
    if family == "gauss":
        A = rng.standard_normal((m, n))
        return A / np.linalg.norm(A, axis=0)
    if family == "dft":
        return _rows(_dft(n), m, rng)
    raise ValueError(f"unknown matrix family {family!r}")


def _rel_diff(a: float, b: float) -> float:
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# certify: exact certifiers called directly


@dataclass(frozen=True)
class CertifyClass:
    name: str
    per_round: int
    kind: str  # nsp | rip | robust | disjoint
    family: str
    n: int
    m: int
    model: SparseModel
    s: float
    weights: tuple[float, float]
    t: int = 0  # second order of the disjoint check

    @property
    def exact(self) -> bool:
        """False for the lower-bound constants: complex NSP and robust ratio."""
        return self.kind in ("rip", "disjoint") or (self.kind == "nsp" and self.family != "dft")


# Three layers do this workload's work: the linear programs of the real null
# space constant (and the robust kernel ratio), the complex ratio ascent, and
# support enumeration with eigvalsh for the isometry constant. A round takes
# 8 to 10 s on a 2-core x86-64 machine, roughly a third in each of those layers.
CERTIFY = (
    CertifyClass("nsp-po17-card", 1, "nsp", "po", 17, 15, CARD, 2, (0.7, 1.0)),
    CertifyClass("nsp-po19-wcard", 1, "nsp", "po", 19, 17, WCARD, 2.7, (1.0, 1.15)),
    CertifyClass("nsp-gauss14-card", 1, "nsp", "gauss", 14, 11, CARD, 2, (0.7, 1.0)),
    CertifyClass("nsp-gauss12-wcard", 1, "nsp", "gauss", 12, 9, WCARD, 2.7, (1.0, 1.15)),
    CertifyClass("nsp-po10-card", 2, "nsp", "po", 10, 8, CARD, 1, (0.7, 1.0)),
    CertifyClass("nsp-gauss16-card", 2, "nsp", "gauss", 16, 13, CARD, 1, (0.7, 1.0)),
    CertifyClass("nsp-gauss11-wcard", 2, "nsp", "gauss", 11, 8, WCARD, 1.5, (1.0, 1.15)),
    CertifyClass("robust-po12", 2, "robust", "po", 12, 10, WCARD, 1.5, (1.0, 1.05)),
    CertifyClass("nsp-dft8-card", 1, "nsp", "dft", 8, 4, CARD, 1, (0.7, 1.0)),
    CertifyClass("nsp-dft10-card", 1, "nsp", "dft", 10, 7, CARD, 1, (0.7, 1.0)),
    CertifyClass("nsp-dft10-wcard", 1, "nsp", "dft", 10, 7, WCARD, 1.5, (1.0, 1.1)),
    CertifyClass("rip3-po17", 2, "rip", "po-flat", 17, 16, WCARD, 6.6, (1.0, 1.02)),
    CertifyClass("rip3-po18", 2, "rip", "po-flat", 18, 17, WCARD, 6.6, (1.0, 1.02)),
    CertifyClass("rip3-po19", 2, "rip", "po-flat", 19, 18, WCARD, 6.6, (1.0, 1.02)),
    CertifyClass("rip-gauss14-card", 1, "rip", "gauss", 14, 11, CARD, 4, (0.7, 1.0)),
    CertifyClass("rip-gauss17-card", 1, "rip", "gauss", 17, 14, CARD, 4, (0.7, 1.0)),
    CertifyClass("disjoint-po12", 2, "disjoint", "po", 12, 10, CARD, 2, (1.0, 1.0), t=2),
    CertifyClass("disjoint-gauss10", 2, "disjoint", "gauss", 10, 7, CARD, 2, (1.0, 1.0), t=1),
)

ROBUST_RHO, ROBUST_GAMMA, ROBUST_SAMPLES = 1.0, 4.0, 10


def certify_inputs(c: CertifyClass, index: int) -> dict[str, Any]:
    rng = _stream_rng("certify", c.name, index)
    A = make_matrix(c.family, c.n, c.m, rng)
    lo, hi = c.weights
    return {"A": A, "w": rng.uniform(lo, hi, c.n)}


def certify_run(c: CertifyClass, inputs: dict[str, Any]) -> dict[str, Any]:
    A, w = inputs["A"], inputs["w"]
    if c.kind == "nsp":
        r = nsp_constant(A, w, c.model, c.s)
        value, work, extra = r.gamma, r.supports_examined, (r.attaining_support, r.witness)
    elif c.kind == "rip":
        r = rip_constant(A, w, c.model, c.s)
        value, work, extra = r.delta, r.supports_examined, (r.attaining_support,)
    elif c.kind == "robust":
        r = check_robust_nsp_kernel(
            A, w, c.s, ROBUST_RHO, ROBUST_GAMMA, samples=ROBUST_SAMPLES, seed=0
        )
        value, work, extra = r.max_kernel_ratio, r.supports_examined, (r.status, r.witness_vector)
    else:
        r = disjoint_inner_product_bound_check(A, w, int(c.s), c.t, raise_on_violation=False)
        value, work, extra = r.max_coherence, r.pairs_examined, (r.delta, r.attaining_pair)
    return {"value": float(value), "work": work, "digest": _digest(value, work, *extra)}


def certify_check(c: CertifyClass, inputs, out: dict[str, Any], ref: float) -> str | None:
    value = out["value"]
    if c.exact:
        if _rel_diff(value, ref) > EXACT_RTOL:
            return f"{c.name}: constant {value!r} differs from the reference {ref!r}"
    elif value < ref - LOWER_RTOL * abs(ref):
        return f"{c.name}: lower bound {value!r} fell below the reference {ref!r}"
    return None


# ---------------------------------------------------------------------------
# recover: planted sparse problems for the solver


@dataclass(frozen=True)
class RecoverClass:
    name: str
    per_round: int
    family: str  # chain (floor-weight chain, both matrix kinds) | chain-po | dft
    epsilon: float


# Solver only. A round takes 15 to 19 s on a 2-core x86-64 machine. The one
# eps = 1e-4 job hits the 100k-iteration cap (ConvergenceError) and takes
# about half the round; it uses the partial orthogonal shape, whose iterations
# cost half those of the Gaussian. The counts put the median latency among
# many eps = 1e-1 solves and the tail among the eps = 1e-2 ones, so that both
# percentiles fall where jobs of similar cost are dense.
RECOVER = (
    RecoverClass("bp-real", 4, "chain", 0.0),
    RecoverClass("bp-dft", 2, "dft", 0.0),
    RecoverClass("bpdn-real-1e-1", 16, "chain", 1e-1),
    RecoverClass("bpdn-dft-1e-1", 8, "dft", 1e-1),
    RecoverClass("bpdn-real-1e-2", 4, "chain", 1e-2),
    RecoverClass("bpdn-dft-1e-2", 8, "dft", 1e-2),
    RecoverClass("bpdn-dft-1e-3", 1, "dft", 1e-3),
    RecoverClass("bpdn-real-1e-4", 1, "chain-po", 1e-4),
)


def recover_inputs(c: RecoverClass, index: int) -> dict[str, Any]:
    rng = _stream_rng("recover", c.name, index)
    n = int(rng.choice([10, 12, 14]))
    s = int(rng.integers(1, 3))
    if c.family == "dft":
        A = make_matrix("dft", n, n // 2, rng)
        w = rng.uniform(0.8, 1.0, n)
        vals = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        noise = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    else:
        if c.family == "chain-po" or index % 2 == 0:
            A = make_matrix("po-flat", n, n - 1, rng)
        else:
            A = make_matrix("gauss", n, n - int(rng.integers(2, 5)), rng)
        w = rng.uniform(float(rng.choice([0.8, 0.9, 1.0])), 1.0, n)
        vals = rng.standard_normal(s)
        noise = rng.standard_normal(A.shape[0])
    x = np.zeros(n, dtype=vals.dtype)
    x[rng.choice(n, size=s, replace=False)] = vals
    y = A @ x
    if c.epsilon > 0:
        y = y + noise * (c.epsilon / np.linalg.norm(noise))
    return {"A": A, "w": w, "y": y, "epsilon": c.epsilon}


def recover_solve(inputs: dict[str, Any], **kwargs):
    A, w, y, eps = inputs["A"], inputs["w"], inputs["y"], inputs["epsilon"]
    if eps == 0:
        return solve_weighted_bp(A, y, w, **kwargs)
    return solve_weighted_bpdn(A, y, w, eps, **kwargs)


def recover_run(c: RecoverClass, inputs: dict[str, Any]) -> dict[str, Any]:
    out = recover_solve(inputs)
    return {
        "x": out.x,
        "objective": out.objective,
        "iterations": out.iterations,
        "digest": _digest(out.x, out.objective, out.residual, out.iterations),
    }


def bp_oracle(inputs: dict[str, Any]) -> float:
    """min sum w|z| subject to Az = y as a linear program in z = u - v."""
    A, w, y = inputs["A"], inputs["w"], inputs["y"]
    res = oracle_linprog(
        np.concatenate([w, w]),
        A_eq=np.hstack([A, -A]),
        b_eq=y,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def recover_check(c: RecoverClass, inputs, out: dict[str, Any], ref: float) -> str | None:
    A, w, y, eps = inputs["A"], inputs["w"], inputs["y"], inputs["epsilon"]
    x = out["x"]
    residual = float(np.linalg.norm(A @ x - y))
    if residual > eps + DEFAULT_FEAS_TOL * (1.0 + float(np.linalg.norm(y))):
        return f"{c.name}: residual {residual:.3e} exceeds the radius {eps:g}"
    objective = float(np.sum(w * np.abs(x)))
    if _rel_diff(objective, ref) > OBJECTIVE_RTOL:
        return f"{c.name}: objective {objective!r} differs from the reference {ref!r}"
    if eps == 0 and not np.iscomplexobj(A):
        oracle = bp_oracle(inputs)
        if _rel_diff(objective, oracle) > OBJECTIVE_RTOL:
            return f"{c.name}: objective {objective!r} differs from the LP oracle {oracle!r}"
    return None


# ---------------------------------------------------------------------------
# replay: the command line, in process


REPLAY_CONSTRUCT = (  # (N, m, s, model, weight range): the README shape and N = 100
    (64, 20, 4, "weighted-cardinality", 1.0, 1.1),
    (64, 20, 4, "cardinality", 0.8, 1.0),
    (100, 20, 4, "weighted-cardinality", 1.0, 1.02),
    (100, 20, 4, "cardinality", 0.8, 1.0),
)
CONSTRUCT_SEEDS = 2  # builds per shape and round
SCALING_RUNS = 2
# The equivalence sweep is the README's (seed 1), taken as consecutive
# two-trial chunks, one wave of the two-thread pool each. Its trials cost
# from 0.1 to 3 s, so every round replays the same chunks. A round takes
# about 13 s on a 2-core x86-64 machine.
SWEEP_SEED = 1
EQUIVALENCE_CHUNKS = 12
EQUIVALENCE_CHUNK_TRIALS = 2
REPLAY_WORKERS = 2


def replay_round(seed: int, rnd: int, work: Path) -> list[Job]:
    """The same commands every round; the seed picks the construct and
    scaling seeds, the seed and round the order."""
    rng = _stream_rng("replay", seed)
    specs: list[tuple[str, str, dict[str, Any]]] = []
    for _ in range(CONSTRUCT_SEEDS):
        for n, m, s, model, lo, hi in REPLAY_CONSTRUCT:
            cseed = int(rng.integers(0, 2**31))
            cfg = {
                "kind": "counterexample", "n": n, "m": m, "s": s, "model": model,
                "weights": {"kind": "random", "low": lo, "high": hi, "seed": cseed},
                "seed": cseed,
            }
            specs.append(("construct", "construct", cfg))
    for _ in range(SCALING_RUNS):
        specs.append(("scaling", "experiment", {"name": "scaling", "seed": int(rng.integers(0, 2**31))}))
    for j in range(EQUIVALENCE_CHUNKS):
        first = j * EQUIVALENCE_CHUNK_TRIALS
        cfg = {
            "name": "equivalence", "seed": SWEEP_SEED,
            "start_index": first, "trials": first + EQUIVALENCE_CHUNK_TRIALS,
        }
        specs.append(("equivalence", "experiment", cfg))
    jobs = []
    for pos, (cls, command, cfg) in enumerate(specs):
        job_dir = work / f"r{rnd}-{pos}-{cls}"
        job_dir.mkdir(parents=True, exist_ok=True)
        config = job_dir / "config.json"
        config.write_text(json.dumps(cfg))
        argv = [command, "--config", str(config), "--out", str(job_dir / "out")]
        if command == "experiment":
            argv += ["--workers", str(REPLAY_WORKERS)]
        jobs.append(Job(cls, pos, {"argv": argv, "out": job_dir / "out", "config": cfg}))
    return _shuffled(jobs, "replay", "order", seed, rnd)


def replay_run(job: Job) -> dict[str, Any]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(job.inputs["argv"]))
    report = json.loads(buf.getvalue()) if buf.getvalue().strip() else {}
    result = report.get("result")
    files = {}
    if job.cls != "construct" and isinstance(result, dict):
        csv_path = job.inputs["out"] / result.get("csv", "")
        if csv_path.is_file():
            files[csv_path.name] = csv_path.read_text()
    return {
        "exit_code": code,
        "result": result,
        "files": files,
        "digest": _digest(code, json.dumps(result, sort_keys=True), sorted(files.items())),
    }


def replay_check(job: Job, out: dict[str, Any]) -> str | None:
    if out["exit_code"] != 0:
        return f"{job.cls}: exit code {out['exit_code']}"
    result = out["result"]
    if job.cls == "construct":
        bad = [k for k, ok in result["invariant_checks"].items() if ok is not True]
        return f"construct: invariant checks failed: {bad}" if bad else None
    summary = result["summary"]
    if summary.get("violations", 0) != 0:
        return f"{job.cls}: {summary['violations']} sweep violations"
    if job.cls == "equivalence":
        rows = list(csv.DictReader(io.StringIO(out["files"].get("equivalence.csv", ""))))
        if len(rows) != EQUIVALENCE_CHUNK_TRIALS:
            return f"equivalence: {len(rows)} rows, expected {EQUIVALENCE_CHUNK_TRIALS}"
        bad = [r["trial"] for r in rows if r["consistent"] != "True"]
        if bad:
            return f"equivalence: trials {bad} are not consistent"
    return None


# ---------------------------------------------------------------------------
# workload objects


EXPECTED_ERRORS = (ConvergenceError,)  # failures the program reports itself


def load_references(workload: str, directory: Path = REFERENCE_DIR) -> dict[str, list[float]]:
    path = directory / f"{workload}.json"
    if not path.is_file():
        return {}
    raw = json.loads(path.read_text())
    return {k: [float(v) for v in vals] for k, vals in raw["values"].items()}


def _shuffled(jobs: list[Job], *key) -> list[Job]:
    return [jobs[k] for k in _stream_rng(*key).permutation(len(jobs))]


class PooledWorkload:
    """Rounds of numbered class instances that have reference values."""

    def __init__(self, name, classes, make_inputs, run, check):
        self.name = name
        self.classes = {c.name: c for c in classes}
        self.make_inputs = make_inputs
        self._run = run
        self._check = check

    def round(self, seed: int, rnd: int, work: Path) -> list[Job]:
        jobs = [
            Job(c.name, i, self.make_inputs(c, i))
            for c in self.classes.values()
            for i in range(c.per_round)
        ]
        return _shuffled(jobs, self.name, "order", seed, rnd)

    def run(self, job: Job):
        return self._run(self.classes[job.cls], job.inputs)

    def check(self, job: Job, out, refs) -> str | None:
        return self._check(self.classes[job.cls], job.inputs, out, refs[job.cls][job.index])


class ReplayWorkload:
    name = "replay"

    def round(self, seed: int, rnd: int, work: Path) -> list[Job]:
        return replay_round(seed, rnd, work)

    def run(self, job: Job):
        return replay_run(job)

    def check(self, job: Job, out, refs) -> str | None:
        return replay_check(job, out)


WORKLOADS: dict[str, Callable[[], Any]] = {
    "certify": lambda: PooledWorkload("certify", CERTIFY, certify_inputs, certify_run, certify_check),
    "recover": lambda: PooledWorkload("recover", RECOVER, recover_inputs, recover_run, recover_check),
    "replay": ReplayWorkload,
}


def warm_up(workload: str, work: Path) -> None:
    """One small call per layer the workload uses, so lazy set-up is paid."""
    rng = np.random.default_rng(0)
    if workload == "certify":
        A = make_matrix("po", 8, 6, rng)
        w = np.ones(8)
        nsp_constant(A, w, CARD, 1)
        nsp_constant(make_matrix("dft", 4, 3, rng), np.ones(4), CARD, 1)
        rip_constant(A, w, WCARD, 3.0)
        check_robust_nsp_kernel(A, w, 2.2, ROBUST_RHO, ROBUST_GAMMA, samples=1)
        disjoint_inner_product_bound_check(A, w, 1, 1, raise_on_violation=False)
    elif workload == "recover":
        inputs = recover_inputs(RecoverClass("warm-up", 1, "chain", 1e-1), 0)
        recover_solve(inputs)
        recover_solve(dict(inputs, y=inputs["A"] @ np.eye(inputs["A"].shape[1])[0], epsilon=0.0))
    else:
        cfg = {
            "kind": "counterexample", "n": 64, "m": 20, "s": 4,
            "model": "weighted-cardinality",
            "weights": {"kind": "random", "low": 1.0, "high": 1.1, "seed": 0},
        }
        for command, config in (("construct", cfg), ("experiment", {"name": "equivalence", "trials": 1, "seed": 1})):
            path = work / f"warm-up-{command}.json"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main([command, "--config", str(path), "--out", str(work / "warm-up"), "--workers", "1"])
