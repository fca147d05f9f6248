"""Acceptance criteria.

Each test evaluates one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear).  The variance experiment (criteria 9a-9c)
runs once at its full configuration and is shared between the sub-checks.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from pauli_reference import orbit_generator, word_matrix

from symlie.cli import main as cli_main
from symlie.combinatorics import (
    Family,
    GroupSpec,
    ProductGroupSpec,
    cycle_index,
    dim_energy_preserving,
    dim_invariant_algebra,
    dim_product,
    dim_symmetric_closed_form,
    evaluate,
)
from symlie.dense_oracle import (
    block_profile,
    coefficients_to_operator,
    commutant_dimension,
    commutant_nullspace,
    energy_hamiltonian,
    exp_membership_check,
    group_constraint_matrices,
    is_block_diagonal,
    weight_sort_permutation,
)
from symlie.pauli_orbits import enumerate_invariant_basis
from symlie.permutation_rep import (
    apply_to_tuple,
    compose,
    count_orbits_bruteforce,
    enumerate_elements,
    inverse,
    qubit_index_permutation,
    qubit_permutation_matrix,
)
from symlie.variance_lab import (
    AnsatzKind,
    ExperimentConfig,
    build_ansatz,
    default_layer_count,
    generate_dataset,
    gradient,
    gradient_finite_difference,
    graph_state,
    run_variance_experiment,
)

ALL_FAMILIES = list(Family)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_cyclic_4_worked_example(capsys):
    ci = cycle_index(GroupSpec(Family.CYCLIC, 4))
    intermediate = evaluate(ci, 4)
    dim = dim_invariant_algebra(GroupSpec(Family.CYCLIC, 4))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        value = evaluate(cycle_index(GroupSpec(Family.CYCLIC, 4)), 4) - 1
        best = min(best, time.perf_counter() - start)
    assert value == 69
    cli_main(["dim", "C:4", "--format", "csv"])
    cli_out = capsys.readouterr().out
    ok = intermediate == 70 and dim == 69 and cli_out == "69\n" and best < 1e-3
    with capsys.disabled():
        assert report("1", ok,
                      f"Z[C_4](4,4,4)={intermediate}, dim C:4 -> {cli_out.strip()}, "
                      f"runtime {best * 1e6:.0f} us")


def test_criterion_2_symmetric_closed_form_to_30():
    mismatches = [n for n in range(1, 31)
                  if dim_symmetric_closed_form(n)
                  != dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, n))]
    assert report("2", not mismatches,
                  f"closed form == cycle-index route for N=1..30, mismatches: {mismatches}")


def test_criterion_3_product_examples():
    bad = []
    for m in range(1, 7):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 2),) * m)
        if dim_product(spec) != 10**m - 1:
            bad.append(f"S_2^x{m}")
    for m in range(1, 11):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, m),) * 2)
        if dim_product(spec) != math.comb(m + 3, 3) ** 2 - 1:
            bad.append(f"S_{m}xS_{m}")
    assert report("3", not bad, f"product dimensions exact, failures: {bad}")


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    bad = []
    time_at_4 = 0.0
    for family in ALL_FAMILIES:
        for n in (2, 3, 4):
            spec = GroupSpec(family, n)
            t0 = time.perf_counter()
            rep = commutant_dimension(group_constraint_matrices(spec), n)
            if n == 4:
                time_at_4 += time.perf_counter() - t0
            if rep.dimension != dim_invariant_algebra(spec) or rep.singular_value_gap < 10:
                bad.append(str(spec))
    elapsed = time.perf_counter() - start
    ok = not bad and time_at_4 <= 60
    assert report("4", ok,
                  f"all 15 family/size oracle checks agree with gap >= 10x, "
                  f"N=4 portion {time_at_4:.1f}s (total {elapsed:.1f}s)")


def test_criterion_5_energy_oracle():
    bad = []
    for n in (1, 2, 3, 4):
        rep, nullspace = commutant_nullspace([energy_hamiltonian(n)], n)
        if rep.dimension != dim_energy_preserving(n):
            bad.append(f"dim(N={n})={rep.dimension}")
        if n == 2 and rep.dimension != 5:
            bad.append("N=2 is not 5")
        order = weight_sort_permutation(n)
        profile = block_profile(n)
        rng = np.random.default_rng(50 + n)
        for _ in range(10):
            coeffs = rng.normal(size=rep.dimension) @ nullspace
            a = coefficients_to_operator(coeffs, n)
            if not is_block_diagonal(a[np.ix_(order, order)], profile, 1e-10):
                bad.append(f"non-block-diagonal sample at N={n}")
                break
    assert report("5", not bad, f"energy commutants C(2N,N)-1 with block structure, "
                                f"failures: {bad}")


def test_criterion_6_swap_and_representation_suites():
    swap = qubit_permutation_matrix((1, 0))
    expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                        dtype=np.complex128)
    bad = []
    if not np.array_equal(swap, expected):
        bad.append("SWAP matrix")
    for family in ALL_FAMILIES:
        for n in range(1, 6):
            elems = enumerate_elements(GroupSpec(family, n)).elements
            maps = {p: qubit_index_permutation(p) for p in elems}
            for p in elems:
                if not np.array_equal(maps[inverse(p)][maps[p]], np.arange(1 << n)):
                    bad.append(f"inverse {family.value}:{n}")
                for q in elems:
                    if not np.array_equal(maps[compose(p, q)], maps[p][maps[q]]):
                        bad.append(f"homomorphism {family.value}:{n}")
        for n in range(2, 6):
            elems = enumerate_elements(GroupSpec(family, n)).elements
            strings = list(itertools.product(range(4), repeat=n))
            paulis = np.stack([word_matrix(s) for s in strings])
            index = {s: i for i, s in enumerate(strings)}
            for p in elems:
                idx = qubit_index_permutation(p)
                inv = np.empty_like(idx)
                inv[idx] = np.arange(idx.size)
                conjugated = paulis[:, inv][:, :, inv]
                images = [index[apply_to_tuple(p, s)] for s in strings]
                if not np.allclose(conjugated, paulis[images], atol=1e-12):
                    bad.append(f"conjugation {family.value}:{n}")
                    break
    assert report("6", not bad,
                  f"SWAP exact; homomorphism+conjugation exhaustive N<=5, failures: {bad}")


def test_criterion_7_orbit_counts_to_ten():
    bad = []
    for family in ALL_FAMILIES:
        for n in range(1, 11):
            spec = GroupSpec(family, n)
            ci = cycle_index(spec)
            for k in (2, 3, 4):
                if count_orbits_bruteforce(spec, k) != evaluate(ci, k):
                    bad.append(f"{spec}@k={k}")
    assert report("7", not bad,
                  f"brute-force orbit counts match cycle-index values for "
                  f"5 families x N<=10 x k in 2..4, failures: {bad}")


def test_criterion_8_exponential_map_membership():
    bad = []
    for family in ALL_FAMILIES:
        for n in (2, 3):
            spec = GroupSpec(family, n)
            generators = group_constraint_matrices(spec)
            basis = [orbit_generator(m)
                     for m in enumerate_invariant_basis(spec).member_strings()]
            rng = np.random.default_rng(800 + 10 * n + ALL_FAMILIES.index(family))
            for _ in range(100):
                coeffs = rng.normal(size=len(basis))
                a = sum(c * g for c, g in zip(coeffs, basis))
                if not exp_membership_check(a, generators, tol=1e-9):
                    bad.append(f"{spec}")
                    break
    assert report("8", not bad,
                  f"exp of 100 random invariant elements per family at N=2,3 stays "
                  f"in the invariant unitary group (1e-9), failures: {bad}")


@pytest.fixture(scope="module")
def variance_results():
    workers = min(8, os.cpu_count() or 1)
    env_cap = os.environ.get("SYMLIE_THREADS")
    if env_cap:
        workers = max(1, min(workers, int(env_cap)))
    cfg = ExperimentConfig(qubit_counts=(4, 6, 8, 10), samples_per_point=200,
                           seed=1, workers=workers)
    start = time.perf_counter()
    rows = run_variance_experiment(cfg)
    elapsed = time.perf_counter() - start
    table = {(r.ansatz, r.qubits): r.variance for r in rows}
    return table, elapsed, workers


@pytest.mark.slow
def test_criterion_9_runtime(variance_results):
    _, elapsed, workers = variance_results
    limit = 300.0 if workers >= 8 else 1800.0
    ok = elapsed <= limit
    assert report("9-runtime", ok,
                  f"experiment took {elapsed:.0f}s with {workers} workers "
                  f"(limit {limit:.0f}s)")


def two_design_variance(n: int, seed: int) -> float:
    """Gradient variance of a circuit that is a unitary 2-design on each side
    of a single-qubit Pauli probe: 2 Tr(sigma^2) / (2^n - 1), with
    sigma = mean_i y_i |G_i><G_i| over the experiment's dataset."""
    amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,), seed=seed))
    overlaps = np.abs(amps.conj() @ amps.T) ** 2
    sigma_sq_trace = labels @ overlaps @ labels / labels.size**2
    return 2.0 * sigma_sq_trace / (2**n - 1)


@pytest.mark.slow
def test_criterion_9a_strongly_entangling_decay(variance_results):
    # Full scrambling decays as 2^-n (slope -1, McClean et al.,
    # arXiv:1803.11173); the finite-n reference is printed for comparison.
    table, _, _ = variance_results
    qubits = np.array([4, 6, 8, 10])
    values = np.array([table[("strongly-entangling", n)] for n in qubits])
    slope = np.polyfit(qubits, np.log2(values), 1)[0]
    reference = [two_design_variance(int(n), seed=1) for n in qubits]
    reference_slope = np.polyfit(qubits, np.log2(reference), 1)[0]
    ok = slope <= -1.0
    assert report("9a", ok,
                  f"strongly-entangling log2-variance slope {slope:.3f} per qubit "
                  f"(need <= -1.0; 2-design reference {reference_slope:.3f}); "
                  f"variances {[f'{v:.2e}' for v in values]}")


@pytest.mark.slow
def test_criterion_9b_permutation_polynomial(variance_results):
    table, _, _ = variance_results
    qubits = np.array([4, 6, 8, 10])
    values = np.array([table[("permutation", n)] for n in qubits])
    exponent = np.polyfit(np.log(qubits), np.log(values), 1)[0]
    ratio = table[("permutation", 10)] / table[("strongly-entangling", 10)]
    ok = abs(exponent) <= 4 and ratio >= 100
    assert report("9b", ok,
                  f"permutation power-law exponent {exponent:.2f} (|.| <= 4), "
                  f"perm/SE ratio at n=10: {ratio:.0f}x (need >= 100)")


@pytest.mark.slow
def test_criterion_9c_cyclic_sits_between(variance_results):
    table, _, _ = variance_results
    ok = all(table[("strongly-entangling", n)]
             < table[("cyclic", n)]
             < table[("permutation", n)] for n in (8, 10))
    detail = ", ".join(
        f"n={n}: SE {table[('strongly-entangling', n)]:.2e} < "
        f"cyc {table[('cyclic', n)]:.2e} < perm {table[('permutation', n)]:.2e}"
        for n in (8, 10))
    assert report("9c", ok, detail)


def test_criterion_10_parameter_shift_vs_finite_difference():
    worst = 0.0
    n = 4
    for kind in AnsatzKind:
        rng = np.random.default_rng(1000 + list(AnsatzKind).index(kind))
        circuit = build_ansatz(kind, n, default_layer_count(kind, n))
        dataset = []
        for _ in range(8):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            dataset.append((graph_state(edges, n),
                            1.0 if rng.random() < 0.5 else -1.0))
        for _ in range(100):
            params = rng.uniform(-2 * math.pi, 2 * math.pi, circuit.n_params)
            slot = int(rng.integers(0, circuit.n_params))
            ps = gradient(circuit, params, dataset, slot)
            fd = gradient_finite_difference(circuit, params, dataset, slot, h=1e-5)
            worst = max(worst, abs(ps - fd))
    ok = worst <= 1e-6
    assert report("10", ok,
                  f"parameter-shift vs central finite difference: max |diff| "
                  f"{worst:.2e} over 100 configs x 3 ansatzes (limit 1e-6)")


def test_criterion_11_asymptotic_ratio_stability():
    qubits = range(8, 15)
    dims = {f: {n: dim_invariant_algebra(GroupSpec(f, n)) for n in qubits}
            for f in ALL_FAMILIES}

    def variation(values):
        return max(values) / min(values) - 1.0

    checks = {
        "C*N/4^N": (variation([dims[Family.CYCLIC][n] * n / 4**n for n in qubits]), 0.20),
        "D*N/4^N": (variation([dims[Family.DIHEDRAL][n] * n / 4**n for n in qubits]), 0.20),
        "S/N^3": (variation([dims[Family.SYMMETRIC][n] / n**3 for n in qubits]), 0.30),
        "A/N^3": (variation([dims[Family.ALTERNATING][n] / n**3 for n in qubits]), 0.30),
        "energy*sqrtN/4^N": (variation(
            [dim_energy_preserving(n) * math.sqrt(n) / 4**n for n in qubits]), 0.15),
    }
    failures = {k: f"{v:.3f}>{limit}" for k, (v, limit) in checks.items() if v >= limit}
    detail = ", ".join(f"{k}: {v:.1%} (<{limit:.0%})" for k, (v, limit) in checks.items())
    assert report("11", not failures, detail)
