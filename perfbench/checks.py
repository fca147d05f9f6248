"""Checks of every output a workload's CLI calls return.

Each check returns `(attempted, failures)` where `failures` is a list of
messages, one per failed operation.  An operation is one variance row or
one `dim`, `orbits` or `oracle` result (each row of a `dim --sweep` is one
result).  A call that exits non-zero fails every operation it owed.

Expected dimensions come from closed forms written here, independently of
the package's cycle-index code.  Every `orbits` count, `oracle` dimension
and `dim` row must equal its closed form, so the three routes agree with
each other wherever they meet.  Variance rows are re-derived from central
finite differences of the loss through the public API.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

import workloads
from spans import ANSATZE

Result = Tuple[int, List[str]]

# Finite-difference gradients agree with parameter-shift to about 1e-10
# here; FD_ATOL leaves two orders of margin.
FD_ATOL = 1e-8
# Reference rows were recorded with parameter-shift gradients; other exact
# gradient methods change the last bits, not the first six digits.
REFERENCE_RTOL = 1e-6


# --- closed forms -----------------------------------------------------------

def _totient(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def _necklaces(n: int, k: int = 4) -> int:
    return sum(_totient(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _bracelets(n: int, k: int = 4) -> int:
    if n % 2:
        return (_necklaces(n, k) + k ** ((n + 1) // 2)) // 2
    return (2 * _necklaces(n, k) + (k + 1) * k ** (n // 2)) // 4


def expected_dim(family: str, n: int) -> int:
    """Orbits of length-n Pauli words under the family, minus the identity word."""
    if family == "S":
        return math.comb(n + 3, 3) - 1
    if family == "A":
        # an S_n orbit splits in two under A_n exactly when no letter repeats
        return math.comb(n + 3, 3) - 1 + (math.comb(4, n) if n >= 2 else 0)
    if family == "C":
        return _necklaces(n) - 1
    if family == "D":
        return _bracelets(n) - 1
    raise ValueError(f"no closed form for family {family!r}")


def expected_energy_dim(n: int) -> int:
    return math.comb(2 * n, n) - 1


# --- algebra ----------------------------------------------------------------

def _parse_spec(text: str) -> Tuple[str, int]:
    family, _, size = text.partition(":")
    return family, int(size)


def check_orbits(argv: Sequence[str], rc: int, out: str) -> Result:
    family, n = _parse_spec(argv[1])
    expected = expected_dim(family, n)
    if rc != 0:
        return 1, [f"{' '.join(argv)}: exit code {rc}"]
    if "--count-only" in argv:
        got = out.strip()
        ok = got == str(expected)
        return 1, [] if ok else [f"orbits {argv[1]} count {got!r} != dim {expected}"]
    return 1, _listing_failures(family, n, expected, out)


def _listing_failures(family: str, n: int, expected: int, out: str) -> List[str]:
    """The JSON listing must partition all 4^N - 1 words into rotation orbits."""
    if family != "C":
        raise ValueError("orbit closure is checked for cyclic listings only")
    tag = f"orbits C:{n} listing"
    try:
        orbits = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"{tag}: not JSON ({exc})"]
    if len(orbits) != expected:
        return [f"{tag}: {len(orbits)} orbits != dim {expected}"]
    seen = set()
    for orbit in orbits:
        rep, members = orbit["representative"], orbit["members"]
        rotations = {rep[i:] + rep[:i] for i in range(n)}
        if (set(members) != rotations or len(members) != len(rotations)
                or orbit["weight"] != len(members) or rep != min(members)):
            return [f"{tag}: orbit {rep} is not the rotation orbit of its representative"]
        seen.update(members)
    words = 4**n - 1
    if len(seen) != words or "0" * n in seen or any(
            len(w) != n or w.strip("0123") for w in seen):
        return [f"{tag}: members do not cover the {words} non-identity words exactly once"]
    return []


def check_oracle(argv: Sequence[str], rc: int, out: str) -> Result:
    if argv[1] == "energy":
        n = int(argv[argv.index("--qubits") + 1])
        expected = expected_energy_dim(n)
    else:
        family, n = _parse_spec(argv[1])
        expected = expected_dim(family, n)
    tag = f"oracle {argv[1]}"
    if rc != 0:
        return 1, [f"{tag}: exit code {rc}"]
    report = json.loads(out)
    if report["dimension"] != expected or report["expected"] != expected or not report["agrees"]:
        return 1, [f"{tag}: dimension {report['dimension']}, expected field "
                   f"{report['expected']}, agrees {report['agrees']}; closed form {expected}"]
    return 1, []


def check_dim_sweep(argv: Sequence[str], rc: int, out: str) -> Result:
    family = argv[1]
    lo, hi = (int(x) for x in argv[argv.index("--sweep") + 1].split(".."))
    attempted = hi - lo + 1
    if rc != 0:
        return attempted, [f"dim {family} sweep: exit code {rc}"] * attempted
    rows = list(csv.reader(io.StringIO(out), delimiter=";"))[1:]
    got = {int(r[0]): int(r[2]) for r in rows}
    failures = [f"dim {family}:{n} = {got.get(n)} != {expected_dim(family, n)}"
                for n in range(lo, hi + 1) if got.get(n) != expected_dim(family, n)]
    if len(rows) != attempted:
        failures.append(f"dim {family} sweep: {len(rows)} rows for {attempted} values")
    return attempted, failures[:attempted]


# --- variance ---------------------------------------------------------------

def _variance_shape(argv: Sequence[str]):
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    lo, hi = (int(x) for x in opt["--qubits"].split(".."))
    kinds = ANSATZE if opt["--ansatz"] == "all" else (opt["--ansatz"],)
    return (kinds, list(range(lo, hi + 1, 2)), int(opt["--samples"]),
            int(opt["--dataset-size"]), int(opt["--seed"]))


def parse_variance_rows(out: str) -> Dict[Tuple[int, str], dict]:
    rows = {}
    for r in csv.DictReader(io.StringIO(out), delimiter=";"):
        key = (int(r["qubits"]), r["ansatz"])
        if key in rows:
            raise ValueError(f"duplicate variance row {key}")
        rows[key] = {"variance": float(r["variance"]), "samples": int(r["samples"]),
                     "seed": int(r["seed"])}
    return rows


def fd_gradients(kind: str, n: int, seed: int, samples: int, dataset_size: int) -> np.ndarray:
    """Probe-slot gradients of each sample by central finite differences.

    The circuit, dataset and parameter streams come from the experiment's
    own helpers with the configuration the CLI builds from these arguments,
    so only the gradient method differs from the program's.
    """
    from symlie.variance_lab import (AnsatzKind, ExperimentConfig, StateVector,
                                     gradient_finite_difference, probe_slot)
    from symlie.variance_lab import experiment

    ansatz = AnsatzKind(kind)
    cfg = ExperimentConfig(qubit_counts=(n,), samples_per_point=samples,
                           dataset_size=dataset_size, seed=seed)
    amps, labels = experiment.generate_dataset(n, cfg)
    dataset = [(StateVector(n, a), float(y)) for a, y in zip(amps, labels)]
    circuit = experiment._build_circuit(ansatz, n, cfg)
    slot = probe_slot(circuit)
    index = list(AnsatzKind).index(ansatz)
    grads = []
    for sample in range(samples):
        rng = experiment._stream(seed, 1 + index, n, sample)
        params = rng.uniform(*cfg.parameter_range, circuit.n_params)
        grads.append(gradient_finite_difference(circuit, params, dataset, slot))
    return np.array(grads)


def fd_variance_tolerance(grads: np.ndarray) -> float:
    """Bound on |var(g) - var(g + d)| for |d_i| <= FD_ATOL."""
    m = len(grads)
    spread = float(np.sum(np.abs(grads - grads.mean())))
    return 4 * FD_ATOL * spread / (m - 1) + 4 * FD_ATOL**2


def check_variance(workload: str, argv: Sequence[str], rc: int, out: str,
                   reference: dict) -> Result:
    """Rows complete and well formed; each matches its finite-difference
    re-derivation; at the default seed each matches the recorded reference."""
    kinds, qubits, samples, dataset_size, seed = _variance_shape(argv)
    expected = [(n, k) for k in kinds for n in qubits]
    if rc != 0:
        return len(expected), [f"variance: exit code {rc}"] * len(expected)
    try:
        rows = parse_variance_rows(out)
    except (KeyError, ValueError) as exc:
        return len(expected), [f"variance: unreadable output ({exc})"] * len(expected)
    ref_rows = reference.get(workload, {}) if seed == workloads.DEFAULT_SEED else {}
    failures = []
    for n, kind in expected:
        tag = f"variance {kind} n={n} seed={seed}"
        row = rows.get((n, kind))
        if row is None:
            failures.append(f"{tag}: row missing")
            continue
        v = row["variance"]
        if row["samples"] != samples or row["seed"] != seed or not (math.isfinite(v) and v > 0):
            failures.append(f"{tag}: malformed row {row}")
            continue
        ref = ref_rows.get(f"{n};{kind}")
        if ref is not None and abs(v - ref) > REFERENCE_RTOL * abs(ref):
            failures.append(f"{tag}: {v!r} differs from reference {ref!r}")
            continue
        grads = fd_gradients(kind, n, seed, samples, dataset_size)
        v_fd = float(np.var(grads, ddof=1))
        if abs(v - v_fd) > fd_variance_tolerance(grads) + 1e-9 * abs(v_fd):
            failures.append(f"{tag}: {v!r} differs from finite-difference {v_fd!r}")
    if len(rows) != len(expected):
        failures.append(f"variance: {len(rows)} rows for {len(expected)} points")
    return len(expected), failures[:len(expected)]


# --- dispatch ---------------------------------------------------------------

def check_pass(workload: str, calls, results, reference: dict) -> Result:
    """Check every call of one pass; `results` holds (exit code, stdout) pairs."""
    attempted, failures = 0, []
    for argv, (rc, out) in zip(calls, results):
        if argv[0] == "variance":
            a, f = check_variance(workload, argv, rc, out, reference)
        elif argv[0] == "orbits":
            a, f = check_orbits(argv, rc, out)
        elif argv[0] == "oracle":
            a, f = check_oracle(argv, rc, out)
        elif argv[0] == "dim":
            a, f = check_dim_sweep(argv, rc, out)
        else:
            raise ValueError(f"no check for {argv[0]!r}")
        attempted += a
        failures += f
    return attempted, failures

