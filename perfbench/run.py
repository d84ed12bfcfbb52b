"""Run one workload of the wcs benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

One client in one process sends jobs back to back (a closed loop). With
--trace 0 the run measures whole rounds of jobs for about --seconds and
prints the end-to-end metrics. With --trace 1 it runs each job of round 0
twice, plain and then with every layer wrapped in spans, and prints the
per-layer metrics; the counts then repeat exactly for a given seed. Either
way every job's output is checked, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

BLAS threads are pinned to 1 before numpy loads, so the replay workload's
two-thread pool stays within two cores.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
TAIL_SAMPLES = 10  # the tail percentile keeps this many samples beyond it
# Mean time of probe() on the machine the baseline comes from. Job timings
# are reported at this machine speed; see probe() and the README.
PROBE_REFERENCE_S = 0.004
CHILD_IMPORTS = "import wcs.cli, wcs.certify, wcs.construct, wcs.solver, wcs.experiments"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "recover", "replay"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-jobs", type=int, default=None, help="cut round 0 to this many jobs")
    p.add_argument("--references", type=Path, default=None, help="directory of reference files")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _git_tree(path: Path) -> bytes:
    """The git tree id of a directory, skipping byte-code caches."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            digest, mode = _git_tree(child), b"40000"
            if digest is None:
                continue
            key = child.name + "/"
        else:
            data = child.read_bytes()
            digest = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            key = child.name
        entries.append((key.encode(), mode + b" " + child.name.encode() + b"\0" + digest))
    if not entries:
        return None
    body = b"".join(e for _, e in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).digest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an exported tree
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    tree = _git_tree(ROOT / "src")
    return {
        "git_commit": _git_commit(),
        "src_tree": tree.hex() if tree else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running jobs


def execute(workload, job, tracer=None, job_id=0):
    from perfbench.workloads import Outcome

    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(job)
        else:
            tracer.job_id = job_id
            output = tracer.call(tracer.name_id("job"), workload.run, (job,), {})
    except Exception as exc:  # a failed job is counted, never fatal
        return Outcome(job, time.perf_counter() - start, error=exc)
    return Outcome(job, time.perf_counter() - start, output)


def probe() -> float:
    """Seconds a fixed calibration loop takes: interpreter work and small
    numpy calls, the mix the wcs layers spend most of their time in."""
    x = np.linspace(-1.0, 1.0, 32)
    acc = 0.0
    start = time.perf_counter()
    for k in range(600):
        acc += float(np.abs(x * k - 0.5).sum())
        for i in range(25):
            acc += i * 0.5
    return time.perf_counter() - start


def run_window(workload, seed, seconds, work, max_jobs):
    """Whole rounds back to back, while another round should end in time.

    A calibration probe runs before every job and once at the end; the
    probe's time is not job time."""
    outcomes, busy, rounds, probes = [], 0.0, 0, []
    while True:
        for job in workload.round(seed, rounds, work)[:max_jobs]:
            probes.append(probe())
            outcomes.append(execute(workload, job))
            busy += outcomes[-1].latency
        rounds += 1
        if max_jobs is not None or busy * (rounds + 1) / rounds > seconds:
            probes.append(probe())
            return outcomes, busy, rounds, probes


def judge(workload, outcomes, refs):
    """{job position: (reason, whether the output was wrong)} for failed jobs."""
    from perfbench.workloads import EXPECTED_ERRORS

    failures = {}
    for k, o in enumerate(outcomes):
        where = f"{o.job.cls}#{o.job.index}"
        if o.error is not None:
            wrong = not isinstance(o.error, EXPECTED_ERRORS)
            failures[k] = (f"{where}: {type(o.error).__name__}: {o.error}", wrong)
            continue
        reason = workload.check(o.job, o.output, refs)
        if reason is not None:
            failures[k] = (f"{where}: {reason}", True)
    return failures


def measure_setup(name, seed, work, refs_dir):
    """Median over repeats of: a fresh interpreter importing the program,
    plus in-process reference loading, input generation and warm-up."""
    from perfbench import workloads

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports, local = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CHILD_IMPORTS], env=env, check=True, timeout=120)
        imports.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name]()
        refs = workloads.load_references(name, refs_dir)
        workload.round(seed, 0, work)
        workloads.warm_up(name, work)
        local.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(local), workload, refs


def tail(latencies, per_round):
    """(percentile, value): the highest whole percentile that leaves at least
    TAIL_SAMPLES jobs of every round beyond it.

    The percentile depends on the round, not on how many rounds fitted in
    the window, so it stays put when the program gets faster or slower."""
    lat = sorted(latencies)
    n = len(lat)
    if per_round <= TAIL_SAMPLES:
        return 100, lat[-1]
    pct = math.floor(100 * (1 - TAIL_SAMPLES / per_round))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, lat[rank - 1]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wcs" / "__init__.py").is_file():
        print(f"error: the wcs sources are missing from {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    refs_dir = args.references or workloads.REFERENCE_DIR
    env = environment(args)
    print(json.dumps({"environment": env}, sort_keys=True))
    print("BLAS threads pinned to 1: " + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    try:
        setup_s, workload, refs = measure_setup(args.workload, args.seed, work, refs_dir)
        notes = []
        if args.trace == 0:
            outcomes, busy, rounds, probes = run_window(
                workload, args.seed, args.seconds, work, args.max_jobs
            )
            failures = judge(workload, outcomes, refs)
            n = len(outcomes)
            scale = PROBE_REFERENCE_S / statistics.mean(probes)
            latencies = [o.latency for o in outcomes]
            pct, tail_s = tail(latencies, n // rounds)
            p50_s = statistics.median(latencies)
            values = {
                "setup_s": setup_s,
                "jobs_per_s": n / busy / scale,
                "latency_p50_s": p50_s * scale,
                "latency_tail_s": tail_s * scale,
                "ok_share": (n - len(failures)) / n,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = spec["end_to_end"]
            notes.append(f"{rounds} rounds, {n} jobs in {busy:.3f} s of job time")
            notes.append(f"latency_tail_s is p{pct} of {n} jobs ({n // rounds} per round)")
            notes.append(
                f"job timings scaled by {scale:.4f}: {len(probes)} probes took "
                f"{1e3 * statistics.mean(probes):.4f} ms on average, {1e3 * PROBE_REFERENCE_S:g} ms "
                "at the reference speed"
            )
            notes.append(
                f"unscaled: jobs_per_s {n / busy:.6g} 1/s, latency_p50_s {p50_s:.6g} s, "
                f"latency_tail_s {tail_s:.6g} s"
            )
        else:
            # each job runs plain and then traced, so that both runs of a job
            # see the machine in the same state
            jobs = workload.round(args.seed, 0, work)[: args.max_jobs]
            tracer = Tracer()
            plain, outcomes = [], []
            for k, job in enumerate(jobs):
                plain.append(execute(workload, job))
                with tracer.installed(layers.install):
                    outcomes.append(execute(workload, job, tracer, k))
            busy_plain = sum(o.latency for o in plain)
            busy = sum(o.latency for o in outcomes)
            failures = judge(workload, outcomes, refs)
            for k, (p, t) in enumerate(zip(plain, outcomes)):
                same = (p.output or {}).get("digest") == (t.output or {}).get("digest")
                if not same or type(p.error) is not type(t.error):
                    failures[k] = (f"{t.job.cls}#{t.job.index}: traced output differs", True)
            n = len(outcomes)
            values = layers.per_layer_metrics(tracer, 1.0 - busy_plain / busy)
            declared = spec["per_layer"]
            spans = tracer.summary()
            job_s = spans.get("job", {}).get("s", 0.0)
            solver_s = spans.get("solver", {}).get("s", 0.0)
            notes.append(f"round 0: {n} jobs, {busy_plain:.3f} s plain, {busy:.3f} s traced")
            notes.append(f"solver spans cover {solver_s / job_s if job_s else 0:.4f} of job time")
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(spans_path)
            notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
            for name, row in sorted(spans.items()):
                notes.append(
                    f"span {name}: {row['calls']} calls, {row['s']:.4f} s, self {row['self_s']:.4f} s"
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    # ok_share is the gated form: a metric that is 0 has no relative spread
    print(f"{'failed_share':32s} {len(failures) / n:.6g} share ({len(failures)} of {n} jobs)")
    for note in notes:
        print(note)
    for reason, wrong in failures.values():
        print(("wrong output: " if wrong else "failed: ") + reason)
    result = {
        "correct": not any(wrong for _, wrong in failures.values()),
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(
        result,
        environment=env,
        notes=notes,
        failures=[r for r, _ in failures.values()],
        jobs=[[o.job.cls, o.job.index, o.latency] for o in outcomes],
    )
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
