"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--out FILE]

For each workload in BENCHMARK.json it runs `run.py --trace 0` with
`run_seconds` from BENCHMARK.json for each of SEEDS, one after another, and
prints per metric the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and their distance as a
share of the median next to the metric's bound.  A spread above a third of
its bound is marked `UNSTEADY`.  It then makes one traced run per workload
with the first seed.  With `--out` the summary, the per-seed
values, the traced per-layer metrics and the run record of the last run are
written as JSON; `perfbench/baseline.json` holds one made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple:
    """(result, run record) of one `run.py` invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    prefix = "run record: "
    record = next(json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix))
    return json.loads(lines[-1]), record


def summarise(values: list, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, traced, record = {}, {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result, record = one_run(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                      "operations failed", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        summary[workload] = {n: summarise(v, bounds[n]) for n, v in values.items()}
        for name, s in summary[workload].items():
            unsteady = s["spread"] > s["bound"] / 3
            print(f"  {name}: median {s['median']:.5g}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){'  UNSTEADY' if unsteady else ''}", flush=True)
        result, _ = one_run(workload, SEEDS[0], spec["run_seconds"], trace=1)
        if not result["correct"]:
            print(f"{workload} traced run: {result['failed']} operations failed",
                  file=sys.stderr)
            return 1
        traced[workload] = result["metrics"]
    if args.out:
        args.out.write_text(json.dumps({"seeds": SEEDS, "run_seconds": spec["run_seconds"],
                                        "record": record, "workloads": summary,
                                        "traced": traced}, indent=1)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
