"""The symlie benchmark: time-to-solution of fixed `symlie` CLI workloads.

    python3 perfbench/run.py --workload variance-acceptance --seed 1 --seconds 20 --trace 0

Each pass runs the workload's CLI calls through `symlie.cli.main` in a fresh
interpreter (`child.py`), so `lru_cache` tables start cold as they do for a
real `symlie` call.  Passes repeat until `--seconds` have elapsed, and at
least MIN_PASSES of them run.  Every output is checked (`checks.py`); the
first pass in full, later passes by equality with the first, because a
fixed seed gives the same output.

With `--trace 0` the result carries the end-to-end metrics:

* `setup_s`: interpreter start until `symlie.cli` is imported and the
  argument lists are built; median over every pass and the
  SETUP_PROBES_PER_PASS set-up-only starts made before each pass;
* `wall_s`: median over passes of the summed wall time of the CLI calls;
* `peak_rss_mb`: median over passes of the pass's peak RSS.

With `--trace 1` it runs a traced pass (`spans.py`) and, for a workload
with a process pool, an untraced pass with the pool and one with a single
worker, and reports the per-layer metrics, the tracing overhead (spans
times the calibrated cost of one span) and the pool's scaling efficiency.
Either way the failure share is printed as `failed_frac`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A run record (machine, versions, thread caps) is
printed before it and written to `.perfbench_out/` with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 10
PASS_TIMEOUT_S = 120  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_thread_cap(nproc: int, workers: int) -> int:
    """Threads per BLAS pool so that workers x threads never exceeds nproc."""
    cap = max(1, nproc // workers)
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            cap = min(cap, int(value))
    return cap


def child_env(workers: int, blas_threads: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["SYMLIE_THREADS"] = str(workers)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    return env


def spawn(workload: str, seed: int, env: dict, *extra: str) -> dict:
    """Run one child pass; returns its report with `setup_s` filled in."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT_DIR), *extra]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, check=False,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass took over {PASS_TIMEOUT_S} s: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}: {' '.join(cmd)}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["t_ready"] - t_spawn
    return report


def pass_wall(report: dict) -> float:
    return sum(c["wall_s"] for c in report["calls"])


def outputs(report: dict) -> list:
    return [(c["rc"], c["out"]) for c in report["calls"]]


def verify(workload: str, passes: list) -> tuple:
    """(attempted, failures) over all passes: first in full, the rest by
    equality of every call's exit code and output with the first pass."""
    import checks

    reference = json.loads((HERE / "reference.json").read_text())
    first = outputs(passes[0])
    calls = [c["argv"] for c in passes[0]["calls"]]
    attempted, failures = checks.check_pass(workload, calls, first, reference)
    per_pass = attempted
    first_failures = list(failures)
    for report in passes[1:]:
        attempted += per_pass
        if outputs(report) == first:
            failures += first_failures
        else:
            failures += ["pass output differs from the first pass"] * per_pass
    return attempted, failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, env: dict, workers: int) -> tuple:
    pool = ("--workers", str(workers))
    spawn(args.workload, args.seed, env, *pool, "--setup-only")  # warms the .pyc cache
    setups, passes = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        # probes between passes, so that their median spans the whole run
        setups += [spawn(args.workload, args.seed, env, *pool, "--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(spawn(args.workload, args.seed, env, *pool))
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": metric(statistics.median(pass_wall(p) for p in passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    return passes, metrics, {"passes": len(passes), "setups": len(setups),
                             "pass_wall_s": [pass_wall(p) for p in passes]}


def traced_run(args, env: dict, workers: int) -> tuple:
    """One traced pass; with a pool, also one untraced pass with the pool
    and one with a single worker, whose ratio is the scaling efficiency."""
    pool = ("--workers", str(workers))
    spawn(args.workload, args.seed, env, *pool, "--setup-only")
    traced = spawn(args.workload, args.seed, env, *pool, "--trace")
    passes = [traced]
    layers = dict(traced["layers"])
    if workers > 1:
        pooled = spawn(args.workload, args.seed, env, *pool)
        single = spawn(args.workload, args.seed, env, "--workers", "1")
        passes += [pooled, single]
        layers["experiment.scaling_eff"] = pass_wall(single) / (workers * pass_wall(pooled))
    else:
        layers["experiment.scaling_eff"] = 1.0 if layers["experiment.chunks"] else 0.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    return passes, metrics, {"passes": len(passes), "traced_wall_s": pass_wall(traced)}


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(nproc: int, workers: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "workers": workers,
        "caches": cache_sizes(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which then kills the pass it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "symlie" / "cli.py").is_file():
        print(f"error: no symlie sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workers = workloads.pool_workers(args.workload, nproc)
    blas_threads = blas_thread_cap(nproc, workers)
    env = child_env(workers, blas_threads)
    # the checks run numpy in this process too
    os.environ.update({var: str(blas_threads) for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    try:
        run = traced_run if args.trace else timed_run
        passes, metrics, shape = run(args, env, workers)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures = verify(args.workload, passes)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)

    record = run_record(nproc, workers, blas_threads)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"record-{name}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, **shape, "record": record, "result": result}, indent=1))
    print(f"run record: {json.dumps({**shape, **record})}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
