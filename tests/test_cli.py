"""Command-line surface: spec grammar, outputs, exit codes."""

import json
import tracemalloc

import pytest

import symlie.combinatorics as comb
from symlie.cli import main, parse_group_spec
from symlie.combinatorics import (
    Family,
    GroupSpec,
    ProductGroupSpec,
    dim_invariant_algebra,
)


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
        code, out, err = run_cli(capsys, "orbits", "S:7", "--cap-space", str(4**6), *extra)
        assert code == 2 and out == ""
        assert "state space of size 16384 exceeds cap 4096" in err


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

    def test_qubit_list_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "variance", "--qubits", "4,5",
                               "--samples", "3", "--dataset-size", "6",
                               "--ansatz", "permutation")
        qubit_col = [line.split(";")[0] for line in out.strip().split("\n")[1:]]
        assert qubit_col == ["4", "5"]
