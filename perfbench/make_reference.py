"""Compute the reference values of the certify and recover job pools.

    python3 perfbench/make_reference.py [certify] [recover]

Run it at the commit whose outputs define correct. It writes
``perfbench/reference/<workload>.json``. Constants come from the program
and are cross-checked against brute-force oracles written here: every
admissible support for the isometry constant, and a linear program for real
basis pursuit. Solver references are converged solves with a raised
iteration cap, so the eps = 1e-4 problems that fail at the default cap get
a reference too.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from perfbench import run, workloads  # noqa: E402
from perfbench.workloads import CARD  # noqa: E402

REFERENCE_MAX_ITER = 1_000_000


def rip_oracle(A, w, model, s) -> float:
    costs = np.ones(len(w)) if model is CARD else w * w
    best = 0.0
    for k in range(1, len(w) + 1):
        found = False
        for S in itertools.combinations(range(len(w)), k):
            if costs[list(S)].sum() <= s:
                found = True
                cols = A[:, list(S)]
                evs = np.linalg.eigvalsh(cols.conj().T @ cols)
                best = max(best, float(evs[-1]) - 1.0, 1.0 - float(evs[0]))
        if not found:
            break
    return best


def certify_reference(c, inputs) -> float:
    value = workloads.certify_run(c, inputs)["value"]
    if c.kind == "rip":
        oracle = rip_oracle(inputs["A"], inputs["w"], c.model, c.s)
        assert abs(value - oracle) <= 1e-10 * max(1.0, oracle), (c.name, value, oracle)
    return value


def recover_reference(c, inputs) -> float:
    out = workloads.recover_solve(inputs, max_iter=REFERENCE_MAX_ITER)
    objective = float(np.sum(inputs["w"] * np.abs(out.x)))
    if inputs["epsilon"] == 0 and not np.iscomplexobj(inputs["A"]):
        oracle = workloads.bp_oracle(inputs)
        assert workloads._rel_diff(objective, oracle) <= workloads.OBJECTIVE_RTOL, (c.name, objective, oracle)
    return objective


def main(names) -> None:
    make = {"certify": certify_reference, "recover": recover_reference}
    for name in names:
        workload = workloads.WORKLOADS[name]()
        values = {}
        for c in workload.classes.values():
            start = time.perf_counter()
            inputs = (workload.make_inputs(c, i) for i in range(c.per_round))
            values[c.name] = [make[name](c, x) for x in inputs]
            print(f"{name}/{c.name}: {len(values[c.name])} in {time.perf_counter() - start:.1f} s", flush=True)
        tree = run._git_tree(ROOT / "src")
        record = {"src_tree": tree.hex() if tree else None, "values": values}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["certify", "recover"])
