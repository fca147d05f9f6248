"""The benchmark's workloads: each one is a fixed list of `symlie` CLI calls.

The seed reaches the program only as CLI arguments: it is the `--seed` of
the variance runs.  algebra-routes has no randomness, so its calls do not
depend on the seed; their order is fixed too, because the peak RSS depends on
which allocations earlier calls left behind.  The seed changes the amount
of work only through the dataset's random graphs, whose edges set the
number of CZ gates (about 1% of the gate calls).
"""

from __future__ import annotations

from typing import List

DEFAULT_SEED = 1  # the seed of the acceptance run and the CLI default

WORKLOADS = ("variance-acceptance", "variance-wide", "algebra-routes")

# variance-acceptance: the acceptance run's shape (three ansatzes, qubits
# 4..10, dataset size 50, one worker) with 2 samples instead of 200, the
# fewest that give a sample variance.
ACCEPTANCE_QUBITS = "4..10"
ACCEPTANCE_SAMPLES = 2
DATASET_SIZE = 50

# variance-wide: the ansatz whose probe slot occurs once, at the qubit counts
# where each batch is 13 MB, spread over a process pool.
WIDE_QUBITS = "12..14"
WIDE_SAMPLES = 4

# algebra-routes: orbit scans at N = 9 (a pass at N = 10 takes 20-28 s on two
# cores, too long for several passes per run), the dense oracle at N = 5,
# where the orbit scan closes the three-way check, and cycle-index sweeps to
# large N.
ORBIT_N = 9
ORACLE_N = 5
SWEEP_MAX = {"S": 34, "A": 34, "C": 200, "D": 200}


def pool_workers(workload: str, nproc: int) -> int:
    """Size of the process pool the workload's variance call asks for."""
    return max(1, min(2, nproc)) if workload == "variance-wide" else 1


def build_calls(workload: str, seed: int, workers: int) -> List[List[str]]:
    """Argument lists for `symlie.cli.main`, in the order they are run."""
    if workload == "variance-acceptance":
        return [["variance", "--ansatz", "all", "--qubits", ACCEPTANCE_QUBITS,
                 "--samples", str(ACCEPTANCE_SAMPLES), "--dataset-size", str(DATASET_SIZE),
                 "--workers", "1", "--seed", str(seed)]]
    if workload == "variance-wide":
        return [["variance", "--ansatz", "strongly-entangling", "--qubits", WIDE_QUBITS,
                 "--samples", str(WIDE_SAMPLES), "--dataset-size", str(DATASET_SIZE),
                 "--workers", str(workers), "--seed", str(seed)]]
    if workload == "algebra-routes":
        calls = [["orbits", f"C:{ORBIT_N}", "--format", "json"]]
        calls += [["orbits", f"{f}:{ORBIT_N}", "--count-only"] for f in "SAD"]
        calls += [["orbits", f"{f}:{ORACLE_N}", "--count-only"] for f in "CSD"]
        calls += [["oracle", f"{f}:{ORACLE_N}", "--format", "json"] for f in "CSD"]
        calls.append(["oracle", "energy", "--qubits", str(ORACLE_N), "--format", "json"])
        calls += [["dim", f, "--sweep", f"1..{hi}", "--format", "csv"]
                  for f, hi in SWEEP_MAX.items()]
        return calls
    raise ValueError(f"unknown workload {workload!r}")
