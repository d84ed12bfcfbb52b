"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs a few jobs of every workload, plain and traced, and asserts that each
metric BENCHMARK.json names, and failed_share, is printed with its unit and
that the checked jobs pass. Then it reruns certify and recover against a copy of their
reference values nudged by one part in a thousand, and asserts that the
output checks now fail jobs. Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
REFERENCE_DIR = ROOT / "perfbench" / "reference"
MAX_JOBS = {"certify": 2, "recover": 3, "replay": 2}
PERTURBATION = 1e-3


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--max-jobs", str(MAX_JOBS[workload]), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def assert_printed(lines: list[str], result: dict, declared: list[dict]) -> None:
    printed = {(w[0], w[2]) for w in map(str.split, lines[:-1]) if len(w) >= 3}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, f"{name}: unit in the result"
        assert (name, unit) in printed, f"{name} is not printed with its unit {unit}"
    assert ("failed_share", "share") in printed, "failed_share is not printed with its unit"


def perturbed_references(workload: str, target: Path) -> None:
    record = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    record["values"] = {
        cls: [v * (1.0 + PERTURBATION) for v in values] for cls, values in record["values"].items()
    }
    target.mkdir(parents=True, exist_ok=True)
    (target / f"{workload}.json").write_text(json.dumps(record))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = {}
    for workload in MAX_JOBS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run(workload, trace)
            assert_printed(lines, result, declared)
            assert result["correct"], f"{workload} --trace {trace}: a wrong output"
            failed[workload] = result["failed"]
            print(f"ok: {workload} --trace {trace} printed {len(declared)} metrics")
    target = ROOT / ".bench_build" / "perfbench" / "smoke-reference"
    try:
        for workload in ("certify", "recover"):
            perturbed_references(workload, target)
            _, result = run(workload, 0, "--references", str(target))
            assert result["failed"] > failed[workload], f"{workload}: no job failed the perturbed check"
            assert not result["correct"], f"{workload}: a perturbed reference left correct true"
            share = result["failed"] / result["attempted"]
            print(f"ok: {workload} with perturbed references has failed_share {share:g}")
    finally:
        shutil.rmtree(target, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
