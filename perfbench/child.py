"""One pass of a workload in a fresh interpreter.

Run as `python3 perfbench/child.py --workload W --seed N --workers K
[--setup-only] [--trace]`.  It imports `symlie.cli` from the checkout's
`src/`, builds the workload's argument lists, prints nothing until the end
and then writes one JSON object to stdout:

* `t_ready`: CLOCK_MONOTONIC when set-up finished, which the parent turns
  into `setup_s`;
* `calls`: per CLI call the exit code, wall time and captured stdout;
* `rss_mb`: the higher of `ru_maxrss` for this process and its waited-for
  children (the pool workers);
* `layers`: per-layer metrics, with `--trace` only; `trace.overhead_s`
  is the span count times the calibrated cost of one span.

A fresh process per pass keeps every `lru_cache` table cold, as it is for
each real `symlie` invocation.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    """Import `symlie.cli` from the checkout, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import symlie
    import symlie.cli
    if Path(symlie.__file__).resolve().parent != SRC / "symlie":
        raise ImportError(f"symlie imported from {symlie.__file__}, not from {SRC}")
    return symlie.cli


def run_calls(cli, calls, tracer=None):
    """Run each argument list through `cli.main` with stdout captured."""
    results = []
    for argv in calls:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.span("cli.main", cli.main, (argv,), {})
            except SystemExit as exc:  # argparse rejects its arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - t0
        results.append({"argv": argv, "rc": rc, "wall_s": wall, "out": buf.getvalue()})
    return results


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def traced_calls(cli, calls, workers, out_dir: Path):
    """Run the calls with spans recorded; returns (results, layer metrics, spans)."""
    import spans as perftrace

    spool = out_dir / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = perftrace.Tracer(spool)
    tracer.install()
    try:
        results = run_calls(cli, calls, tracer)
    finally:
        tracer.uninstall()
    try:
        merged = tracer.merge_worker_spans()
    finally:
        for leftover in spool.glob("*"):
            leftover.unlink()
        spool.rmdir()
    if workers > 1 and not merged:
        raise RuntimeError("no spans came back from the pool workers")
    layers = perftrace.layer_metrics(tracer.spans, workers)
    layers["trace.overhead_s"] = len(tracer.spans) * perftrace.span_cost_s()
    return results, layers, tracer.spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    cli = import_cli()
    from workloads import build_calls
    calls = build_calls(args.workload, args.seed, args.workers)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    report = {"t_ready": t_ready}
    if not args.setup_only:
        if args.trace:
            results, layers, spans = traced_calls(cli, calls, args.workers, args.out_dir)
            report["layers"] = layers
            trace_path = args.out_dir / f"trace-{args.workload}-s{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"fields": ["name", "tag", "start", "end", "parent", "value"], "spans": spans}))
        else:
            results = run_calls(cli, calls)
        report["calls"] = results
        report["rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
