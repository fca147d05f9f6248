"""Command-line surface: spec grammar, outputs, exit codes."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from pauli_reference import listing_text

import symlie.combinatorics as comb
from symlie import cli, pauli_orbits
from symlie.cli import main, parse_group_spec
from symlie.combinatorics import (
    Family,
    GroupSpec,
    ProductGroupSpec,
    dim_invariant_algebra,
)
from symlie.indexing import DEFAULT_SPACE_CAP, MAX_LISTED_WORDS
from symlie.permutation_rep import apply_to_tuple, enumerate_elements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecGrammar:
    def test_single_family(self):
        assert parse_group_spec("S:4") == GroupSpec(Family.SYMMETRIC, 4)
        assert parse_group_spec("c:5") == GroupSpec(Family.CYCLIC, 5)

    def test_product(self):
        spec = parse_group_spec("S:3xE:2")
        assert isinstance(spec, ProductGroupSpec)
        assert [str(p) for p in spec.parts] == ["S:3", "E:2"]

    def test_product_parts_are_sorted_into_partition_order(self):
        spec = parse_group_spec("E:2xS:3")
        assert [str(p) for p in spec.parts] == ["S:3", "E:2"]

    @pytest.mark.parametrize("bad", ["", "Q:3", "S:0", "S:x", "S:3x", "S"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


class TestDim:
    def test_cyclic_4(self, capsys):
        code, out, err = run_cli(capsys, "dim", "C:4", "--format", "csv")
        assert code == 0 and err == ""
        assert out == "69\n"

    def test_trivial_3(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "E:3", "--format", "csv")
        assert code == 0 and out == "63\n"

    def test_product_example(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "S:2xS:2", "--format", "csv")
        assert code == 0 and out == "99\n"

    def test_csv_is_byte_identical_to_library(self, capsys):
        for spec_text in ("S:5", "D:6", "A:4", "C:7"):
            code, out, _ = run_cli(capsys, "dim", spec_text, "--format", "csv")
            assert code == 0
            assert out == f"{dim_invariant_algebra(parse_group_spec(spec_text))}\n"

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "C:4")
        assert code == 0 and out == "dim(C:4) = 69\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "S:2", "--format", "json")
        assert json.loads(out) == {"spec": "S:2", "alphabet": 4, "dimension": 9}

    def test_alphabet_flag(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "S:2", "--alphabet", "2", "--format", "csv")
        assert out == "2\n"  # multisets of size 2 over 2 letters, minus 1

    def test_sweep_series(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "C", "--sweep", "1..4", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "N;spec;dimension"
        assert lines[1] == "1;C:1;3"
        assert lines[-1] == "4;C:4;69"

    def test_sweep_product_series(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "SxE:2", "--sweep", "4..6",
                               "--format", "csv")
        lines = out.strip().split("\n")
        # S_{N-2} x E_2 at N=4: multisets of 2 over 4 letters times 16, -1
        assert lines[1] == "4;S:2xE:2;159"

    def test_parse_error_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dim", "Q:4")
        assert code == 2
        assert out == ""
        assert "error" in err.lower()


class TestDigitCap:
    def test_largest_printable_dimension_prints(self, capsys):
        code, out, err = run_cli(capsys, "dim", "C:7148", "--format", "csv")
        assert code == 0 and err == ""
        assert len(out) == 4301  # 4300 digits and a newline

    def test_sweep_is_refused_before_any_row(self, capsys):
        code, out, err = run_cli(capsys, "dim", "C", "--sweep", "7145..7160", "--format", "csv")
        assert code == 2 and out == ""
        assert "has more than 4300 decimal digits" in err

    def test_long_sweep_stops_at_its_first_oversized_spec(self, capsys, monkeypatch):
        # the range's specs are checked as they are built: E:7144 is refused
        # without building the other 2,992,856
        built = []
        original = cli._spec_from_parts

        def counting(parts):
            built.append(parts)
            return original(parts)

        monkeypatch.setattr(cli, "_spec_from_parts", counting)
        code, out, err = run_cli(capsys, "dim", "E", "--sweep", "1..3000000", "--format", "csv")
        assert code == 2 and out == ""
        assert "the dimension of E:7144 has more than 4300 decimal digits" in err
        assert len(built) == 7144

    def test_unit_alphabet_of_a_huge_cyclic_group_prints_zero(self, capsys):
        # no digit bound applies at k = 1; the divisors are found up to
        # sqrt(N) and one power is built per cycle count
        code, out, err = run_cli(capsys, "dim", "C:10000000", "--alphabet", "1",
                                 "--format", "csv")
        assert (code, out, err) == (0, "0\n", "")

    def test_oversized_spec_is_refused_before_its_cycle_index(self, capsys, monkeypatch):
        def refuse(spec, *_):
            raise AssertionError(f"built the cycle index of {spec}")
        monkeypatch.setattr(comb, "cycle_index", refuse)
        monkeypatch.setattr(comb, "_orbits", refuse)
        code, out, err = run_cli(capsys, "dim", "C:1000000000")
        assert code == 2 and out == ""
        assert "the dimension of C:1000000000 has more than 4300 decimal digits" in err


class TestTermCap:
    @pytest.mark.parametrize("argv", [
        ("dim", "S:500"),
        ("dim", "A", "--sweep", "1..500"),
        ("dim", "S:3xA:100xE:2"),
        ("dim", "SxE:3", "--sweep", "4..60", "--format", "csv"),
        ("scaling-table", "--max-qubits", "120"),
    ])
    def test_oversized_request_exits_2_before_building(self, capsys, monkeypatch, argv):
        def refuse(n):
            raise AssertionError(f"built the S_{n} table")
        monkeypatch.setattr(comb, "_symmetric_z", refuse)
        monkeypatch.setattr(comb, "_stirling_row", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "exceeds term cap 100000" in err


class TestOrbits:
    def test_symmetric_2_listing(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "S:2", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "representative;weight;members"
        assert len(lines) == 10  # header + 9 orbits
        assert "01;2;01,10" in lines

    def test_trivial_1(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "E:1", "--format", "csv")
        assert len(out.strip().split("\n")) == 4  # header + 3 singleton orbits

    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "C:4", "--count-only")
        assert out == "69\n"

    def test_json_matches_schema(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "S:2", "--format", "json")
        data = json.loads(out)
        assert len(data) == 9
        assert data[0] == {"representative": "01", "weight": 2, "members": ["01", "10"]}

    def test_count_above_former_order_cap(self, capsys):
        # S:10 has 10! > 10^6 elements, but the label scan never lists them
        code, out, err = run_cli(capsys, "orbits", "S:10", "--count-only")
        assert code == 0 and err == ""
        assert out == "285\n"

    @pytest.mark.parametrize("spec", [f"{f.value}:{n}" for f in Family for n in range(1, 6)]
                             + ["S:3xE:2"])
    def test_count_equals_listing_length(self, capsys, spec):
        code, count, _ = run_cli(capsys, "orbits", spec, "--count-only")
        assert code == 0
        code, listing, _ = run_cli(capsys, "orbits", spec, "--format", "json")
        assert code == 0
        assert int(count) == len(json.loads(listing))

    @pytest.mark.parametrize("extra", [(), ("--count-only",)])
    def test_count_and_listing_share_the_state_cap(self, capsys, extra):
        # 4^13 words lie above the scan's cap, which a listing's smaller cap
        # refuses first
        cap = MAX_LISTED_WORDS if not extra else DEFAULT_SPACE_CAP
        code, out, err = run_cli(capsys, "orbits", "C:13", *extra)
        assert code == 2 and out == ""
        assert f"state space of size {4**13} exceeds cap {cap}" in err

    def test_listing_cap_refuses_before_the_scan(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("scanned the labels")
        monkeypatch.setattr(pauli_orbits, "orbit_canonical_labels", refuse)
        code, out, err = run_cli(capsys, "orbits", "C:11", "--format", "json")
        assert code == 2 and out == ""
        assert f"state space of size {4**11} exceeds cap {MAX_LISTED_WORDS}" in err

    def test_count_only_is_not_held_to_the_listing_cap(self, capsys):
        code, out, err = run_cli(capsys, "orbits", "E:11", "--count-only")
        assert code == 0 and err == ""
        assert out == f"{4**11 - 1}\n"


def _word_text(word):
    return "".join(map(str, word))


def _brute_force_orbits(spec):
    """(representative, weight, members) of every orbit of nonzero words,
    closing each word under every listed group element."""
    elements = enumerate_elements(spec).elements
    seen, rows = set(), []
    for word in itertools.product(range(4), repeat=spec.degree):
        if word in seen or not any(word):
            continue
        orbit = sorted({apply_to_tuple(p, word) for p in elements})
        seen.update(orbit)
        rows.append((_word_text(orbit[0]), len(orbit), [_word_text(w) for w in orbit]))
    return rows


def _parse_listing(fmt, out):
    if fmt == "json":
        return [(o["representative"], o["weight"], o["members"]) for o in json.loads(out)]
    lines = out.rstrip("\n").split("\n")
    assert lines[0].split(";" if fmt == "csv" else None) == ["representative", "weight",
                                                             "members"]
    rows = []
    for line in lines[1:]:
        rep, weight, members = line.split(";") if fmt == "csv" else line.split()
        rows.append((rep, int(weight), members.split(",")))
    return rows


class TestOrbitListingDifferential:
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("spec", ["C:4", "D:5", "A:4", "S:3xC:2", "E:3", "S:1"])
    def test_listing_matches_brute_force_orbits(self, capsys, spec, fmt):
        code, out, err = run_cli(capsys, "orbits", spec, "--format", fmt)
        assert code == 0 and err == ""
        assert _parse_listing(fmt, out) == _brute_force_orbits(parse_group_spec(spec))


def _listing_from_orbits(spec, fmt):
    """The listing's text built from the library's member strings, one orbit
    at a time, with `json.dumps` of each orbit's fields."""
    orbits = list(pauli_orbits.enumerate_invariant_basis(spec).member_strings())
    if fmt == "json":
        return "[" + ", ".join(json.dumps({"representative": m[0], "weight": len(m), "members": m})
                               for m in orbits) + "]\n"
    header = ["representative", "weight", "members"]
    rows = [[m[0], str(len(m)), ",".join(m)] for m in orbits]
    if fmt == "csv":
        return "".join(";".join(r) + "\n" for r in [header, *rows])
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(3)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n"
                   for r in [header, *rows])


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("spec", [f"{f.value}:{n}" for f in Family for n in range(1, 9)]
                         + ["S:3xE:2", "C:4xD:3", "A:3xS:2xE:1"])
def test_listing_matches_per_orbit_codec(capsys, spec, fmt):
    # the writer joins table slices; the references join one string per word
    code, out, err = run_cli(capsys, "orbits", spec, "--format", fmt)
    assert code == 0 and err == ""
    spec = parse_group_spec(spec)
    assert out == _listing_from_orbits(spec, fmt) == listing_text(spec, fmt)


class _Md5Writer:
    """A stdout that keeps only the md5 of what is written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_listing_peak_memory(monkeypatch):
    # 262,143 words and 5.1 MB of JSON: a string per word and whole copies
    # of the text held 27 MB here
    out = _Md5Writer()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["orbits", "C:9", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.md5.hexdigest() == "590412f7b96d11b6fff257d265b0bc62"
    assert peak <= 15 * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_refused_listing_prints_nothing(capsys, fmt):
    code, out, err = run_cli(capsys, "orbits", "C:11", "--format", fmt)
    assert code == 2 and out == ""
    assert f"exceeds cap {MAX_LISTED_WORDS}" in err


# argv -> exit code and the md5 of stdout, for outputs that are exact on any
# machine; an oracle report is pinned by its integer fields only, because its
# tolerance and singular-value gap depend on LAPACK
GOLDEN_OUTPUTS = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


@pytest.mark.parametrize("line", list(GOLDEN_OUTPUTS), ids=lambda line: line.replace(" ", "_"))
def test_output_matches_golden_corpus(capsys, line):
    expected = GOLDEN_OUTPUTS[line]
    code, out, _ = run_cli(capsys, *line.split())
    assert code == expected["exit"]
    if "fields" in expected:
        report = json.loads(out)
        assert {key: report[key] for key in expected["fields"]} == expected["fields"]
    else:
        assert hashlib.md5(out.encode()).hexdigest() == expected["md5"]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_closed_pipe_exits_quietly(fmt):
    # 1.3 MB of output, far more than a pipe buffer holds, so the writer
    # meets the closed pipe mid-stream, with orbits still to write
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "symlie.cli", "orbits", "C:8", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 100
    assert err == b""
    assert code == 1


class TestOracle:
    def test_symmetric_2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "S:2", "--format", "json")
        report = json.loads(out)
        assert code == 0
        assert report["dimension"] == 9
        assert report["expected"] == 9
        assert report["agrees"] is True

    def test_energy(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "energy", "--qubits", "2",
                               "--format", "json")
        report = json.loads(out)
        assert report["dimension"] == 5 and report["agrees"] is True

    def test_energy_requires_qubits(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "energy")
        assert code == 2 and out == ""

    def test_order_cap_message(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "S:13")
        assert code == 2
        assert out == ""
        assert "exceeds" in err

    @pytest.mark.parametrize("argv", [("D:12",), ("C:12",), ("energy", "--qubits", "12")])
    def test_qubit_cap_refuses_before_allocating(self, capsys, argv):
        # the 6-qubit cap is checked before any 2^N x 2^N generator exists
        # (a 4096 x 4096 complex matrix alone is 268 MB)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "oracle", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "matrix dimension 4096 exceeds cap 64" in err
        assert peak < 10 * 2**20

    def test_qubits_refused_with_group_spec(self, capsys):
        # a group spec fixes its own qubit count, so --qubits could only be ignored
        code, out, err = run_cli(capsys, "oracle", "S:3", "--qubits", "9")
        assert code == 2 and out == ""
        assert "--qubits" in err


class TestScalingTable:
    def test_rows_match_direct_dimensions(self, capsys):
        code, out, _ = run_cli(capsys, "scaling-table", "--format", "csv",
                               "--max-qubits", "14")
        lines = out.strip().split("\n")
        header = lines[0].split(";")
        rows = {int(line.split(";")[0]): dict(zip(header, line.split(";")))
                for line in lines[1:]}
        assert len(rows) == 14
        assert rows[14]["C"] == str(dim_invariant_algebra(GroupSpec(Family.CYCLIC, 14)))
        assert rows[10]["S"] == "285"
        assert rows[7]["energy"] == "3431"
        assert rows[3]["unrestricted"] == "63"

    def test_table_format_runs(self, capsys):
        code, out, _ = run_cli(capsys, "scaling-table", "--max-qubits", "3")
        assert code == 0
        assert out.startswith("N ")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("max_qubits", ["0", "-3"])
    def test_empty_table_refused(self, capsys, fmt, max_qubits):
        code, out, err = run_cli(capsys, "scaling-table", "--max-qubits", max_qubits,
                                 "--format", fmt)
        assert code == 2 and out == ""
        assert "--max-qubits must be >= 1" in err


class TestVariance:
    ARGS = ("variance", "--qubits", "4", "--samples", "4", "--dataset-size", "8",
            "--seed", "7")

    def test_csv_output_and_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS)
        code2, out2, _ = run_cli(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "qubits;ansatz;variance;samples;seed"
        assert len(lines) == 4  # three ansatz families at one qubit count

    def test_single_ansatz_and_theta4_toggle(self, capsys):
        code, out_with, _ = run_cli(capsys, *self.ARGS, "--ansatz", "cyclic")
        code, out_without, _ = run_cli(capsys, *self.ARGS, "--ansatz", "cyclic",
                                       "--no-theta4")
        assert out_with != out_without
        assert all(";cyclic;" in line for line in out_with.strip().split("\n")[1:])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json",
                               "--ansatz", "permutation")
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["qubits"] == 4 and data[0]["samples"] == 4

    def test_env_bounds_workers(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMLIE_THREADS", "1")
        code, out, _ = run_cli(capsys, *self.ARGS, "--workers", "4",
                               "--ansatz", "permutation")
        assert code == 0

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_refused(self, capsys, monkeypatch, workers):
        monkeypatch.delenv("SYMLIE_THREADS", raising=False)
        code, out, err = run_cli(capsys, "variance", "--qubits", "4", "--samples", "3",
                                 "--dataset-size", "8", "--workers", workers,
                                 "--ansatz", "permutation")
        assert code == 2 and out == ""
        assert "workers must be >= 1" in err
        monkeypatch.setenv("SYMLIE_THREADS", "2")
        assert run_cli(capsys, "variance", "--qubits", "4", "--samples", "3",
                       "--dataset-size", "8", "--workers", workers,
                       "--ansatz", "permutation")[0] == 2

    def test_one_sample_refused(self, capsys):
        # the unbiased variance of a single sample is nan
        code, out, err = run_cli(capsys, "variance", "--qubits", "4", "--samples", "1",
                                 "--dataset-size", "8", "--ansatz", "permutation")
        assert code == 2 and out == ""
        assert "samples_per_point must be >= 2" in err

    @pytest.mark.parametrize("argv, message", [
        (("--qubits", "4", "--layers", "0", "--workers", "2"), "layers must be >= 1"),
        (("--qubits", "4,4"), "qubit counts must be distinct"),
        # 50 states of 2^40 amplitudes are never drawn
        (("--qubits", "40"), "above the state batch cap"),
        (("--qubits", "20", "--dataset-size", "66"), "above the state batch cap"),
        # NumPy's seed sequence would refuse it only at the first dataset draw
        (("--qubits", "4", "--seed", "-1"), "seed must be >= 0, got -1"),
        # datasets that fit as one batch, but whose gradient would hold
        # 1.6-10 GB
        (("--ansatz", "cyclic", "--qubits", "24", "--dataset-size", "4",
          "--edge-probability", "0.2"), "a cyclic gradient on 24 qubits would hold"),
        (("--ansatz", "cyclic", "--qubits", "22", "--dataset-size", "16",
          "--edge-probability", "0.2"), "a cyclic gradient on 22 qubits would hold"),
        (("--ansatz", "cyclic", "--qubits", "20", "--layers", "100"),
         "a cyclic gradient on 20 qubits would hold"),
    ])
    def test_bad_grid_refused_before_the_pool(self, capsys, monkeypatch, argv, message):
        # refused by ExperimentConfig, before any worker starts or any row is
        # computed twice
        def no_pool(*args, **kwargs):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(cli, "run_variance_experiment", no_pool)
        code, out, err = run_cli(capsys, "variance", "--samples", "2", *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_qubit_list_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "variance", "--qubits", "4,5",
                               "--samples", "3", "--dataset-size", "6",
                               "--ansatz", "permutation")
        qubit_col = [line.split(";")[0] for line in out.strip().split("\n")[1:]]
        assert qubit_col == ["4", "5"]
