"""Tests of the benchmark itself: its checks reject wrong outputs, and the
counts of a traced pass repeat exactly.

    python3 -m pytest -q perfbench

They run real passes of every workload and take about two minutes on two
cores.  The repository's own test suite does not collect them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

REFERENCE = json.loads((run.HERE / "reference.json").read_text())


def one_pass(workload: str, seed: int, *extra: str) -> dict:
    nproc = len(os.sched_getaffinity(0))
    workers = workloads.pool_workers(workload, nproc)
    run.OUT_DIR.mkdir(exist_ok=True)
    env = run.child_env(workers, run.blas_thread_cap(nproc, workers))
    return run.spawn(workload, seed, env, "--workers", str(workers), *extra)


def checked(workload: str, report: dict, reference: dict) -> tuple:
    calls = [c["argv"] for c in report["calls"]]
    return checks.check_pass(workload, calls, run.outputs(report), reference)


def cli_output(argv) -> tuple:
    from symlie.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = [*spans.layer_metrics([], 1), "experiment.scaling_eff", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == traced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    #          name  tag   start end   parent value
    trace = [["a", None, 0.0, 10.0, None, None],
             ["b", None, 1.0, 3.0, 0, None],
             ["c", None, 2.0, 5.0, 0, None],     # overlaps b: counted once
             ["d", None, 8.0, 12.0, 0, None],    # outlives a: clipped at 10
             ["e", None, 2.5, 3.5, 2, None]]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0])


@pytest.fixture(scope="module")
def acceptance_pass():
    return one_pass("variance-acceptance", workloads.DEFAULT_SEED)


def test_variance_rows_match_the_reference(acceptance_pass):
    assert checked("variance-acceptance", acceptance_pass, REFERENCE) == (12, [])


@pytest.mark.parametrize("key", ["10;permutation", "10;cyclic", "4;strongly-entangling"])
def test_perturbed_reference_counts_as_a_failure(acceptance_pass, key):
    perturbed = copy.deepcopy(REFERENCE)
    perturbed["variance-acceptance"][key] *= 1 + 10 * checks.REFERENCE_RTOL
    attempted, failures = checked("variance-acceptance", acceptance_pass, perturbed)
    assert attempted == 12
    assert len(failures) == 1 and "differs from reference" in failures[0]


def test_finite_difference_check_catches_a_wrong_row(acceptance_pass):
    report = copy.deepcopy(acceptance_pass)
    call = report["calls"][0]
    row = next(line for line in call["out"].splitlines() if line.startswith("8;cyclic;"))
    value = row.split(";")[2]
    call["out"] = call["out"].replace(row, row.replace(value, repr(float(value) * 1.001)))
    attempted, failures = checked("variance-acceptance", report, {})  # no reference rows
    assert attempted == 12
    assert len(failures) == 1 and "finite-difference" in failures[0]


def test_orbit_listing_check_catches_a_broken_partition():
    argv = ["orbits", "C:4", "--format", "json"]
    rc, out = cli_output(argv)
    assert checks.check_orbits(argv, rc, out) == (1, [])
    orbits = json.loads(out)
    dropped = json.dumps(orbits[1:])
    assert checks.check_orbits(argv, rc, dropped)[1]
    orbits[-1]["members"][0] = orbits[0]["members"][0]
    assert checks.check_orbits(argv, rc, json.dumps(orbits))[1]


def test_algebra_checks_catch_wrong_numbers():
    count = ["orbits", "S:4", "--count-only"]
    rc, out = cli_output(count)
    assert checks.check_orbits(count, rc, out) == (1, [])
    assert checks.check_orbits(count, rc, str(int(out) + 1))[1]

    sweep = ["dim", "D", "--sweep", "1..6", "--format", "csv"]
    rc, out = cli_output(sweep)
    assert checks.check_dim_sweep(sweep, rc, out) == (6, [])
    last = out.strip().splitlines()[-1]
    wrong = out.replace(last, last[:last.rindex(";") + 1] + "1")
    assert checks.check_dim_sweep(sweep, rc, wrong) == (6, [f"dim D:6 = 1 != "
                                                             f"{checks.expected_dim('D', 6)}"])

    oracle = ["oracle", "C:3", "--format", "json"]
    rc, out = cli_output(oracle)
    assert checks.check_oracle(oracle, rc, out) == (1, [])
    report = json.loads(out)
    report["agrees"] = False
    assert checks.check_oracle(oracle, rc, json.dumps(report))[1]
    assert checks.check_oracle(oracle, 1, out)[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (one_pass(workload, 7, "--trace") for _ in range(2))
    counts = [{k: r["layers"][k] for k in spans.COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == len(workloads.build_calls(workload, 7, 1))
    if workload == "algebra-routes":
        assert counts[0]["permutation_rep.words_scanned"] > 0
        assert counts[0]["gradients.run_batch_calls"] == 0
    else:
        assert counts[0]["gradients.run_batch_calls"] > 0
        assert counts[0]["permutation_rep.words_scanned"] == 0
    assert run.outputs(first) == run.outputs(second)
    assert checked(workload, first, REFERENCE)[1] == []
