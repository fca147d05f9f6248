"""Command-line surface: dimensions, orbit listings, oracle reports,
scaling tables, and the variance experiment.

Group specs are written FAMILY:SIZE with families S, A, D, C, E, and
products joined with `x`, e.g. ``S:4``, ``C:5``, ``S:3xE:2``.  Product parts
may be given in any order; they are sorted into the canonical non-increasing
partition order, which leaves the dimension unchanged.  With ``--sweep A..B``
exactly one part must be variable (a bare family letter or FAMILY:*) and is
swept over the range.

CSV output always uses semicolons.  Errors go to stderr with exit code 2;
data never mixes with diagnostics.  When the reader of stdout goes away
early (``symlie ... | head``), the command stops quietly with exit code 1.
The environment variable SYMLIE_THREADS bounds the worker count of the
variance experiment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import combinatorics as comb
from .combinatorics import AnySpec, Family, GroupSpec, ProductGroupSpec
from .dense_oracle import (
    commutant_dimension,
    energy_hamiltonian,
    group_constraint_matrices,
)
from .errors import SymlieError
from .pauli_orbits import OrbitListing, enumerate_invariant_basis
from .permutation_rep import count_orbits_bruteforce
from .variance_lab import AnsatzKind, ExperimentConfig, run_variance_experiment

_FAMILIES = {f.value: f for f in Family}


class SpecSyntaxError(ValueError):
    pass


def _parse_part(token: str, allow_variable: bool) -> Tuple[Family, Optional[int]]:
    token = token.strip()
    if not token:
        raise SpecSyntaxError("empty group token")
    if ":" in token:
        letter, _, size_text = token.partition(":")
    else:
        letter, size_text = token, "*"
    letter = letter.upper()
    if letter not in _FAMILIES:
        raise SpecSyntaxError(f"unknown family {letter!r} (expected one of S, A, D, C, E)")
    if size_text == "*":
        if not allow_variable:
            raise SpecSyntaxError(f"{token!r} has no size; a size is required without --sweep")
        return _FAMILIES[letter], None
    try:
        size = int(size_text)
    except ValueError:
        raise SpecSyntaxError(f"bad group size {size_text!r} in {token!r}") from None
    if size < 1:
        raise SpecSyntaxError(f"group size must be >= 1 in {token!r}")
    return _FAMILIES[letter], size


def _spec_from_parts(parts: Sequence[Tuple[Family, int]]) -> AnySpec:
    """One group, or the product of the parts sorted into partition order."""
    specs = sorted((GroupSpec(fam, size) for fam, size in parts), key=lambda s: -s.size)
    return specs[0] if len(specs) == 1 else ProductGroupSpec(tuple(specs))


def parse_group_spec(text: str) -> AnySpec:
    """Parse a fully sized spec such as ``S:4`` or ``S:3xE:2``."""
    return _spec_from_parts([_parse_part(tok, allow_variable=False) for tok in text.split("x")])


def _specs_for_sweep(text: str, sweep: Iterable[int]) -> Iterator[AnySpec]:
    """The spec at each sweep value, built one at a time."""
    parts = [_parse_part(tok, allow_variable=True) for tok in text.split("x")]
    variable = [i for i, (_, size) in enumerate(parts) if size is None]
    if len(variable) != 1:
        raise SpecSyntaxError("--sweep needs exactly one variable part (bare family or FAMILY:*)")
    fixed_total = sum(size for _, size in parts if size is not None)
    for n in sweep:
        var_size = n - fixed_total
        if var_size < 1:
            raise SpecSyntaxError(
                f"sweep value {n} leaves no symbols for the variable part "
                f"(fixed parts already use {fixed_total})")
        yield _spec_from_parts(
            [(fam, size if size is not None else var_size) for fam, size in parts])


def _parse_range(text: str, step: int = 1) -> Sequence[int]:
    if "," in text:
        return [int(tok) for tok in text.split(",")]
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise SpecSyntaxError(f"empty range {text!r}")
        return range(lo, hi + 1, step)
    return [int(text)]


def _emit_rows(fmt: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print rows as semicolon CSV (streamed), a JSON list of objects or an
    aligned table."""
    if fmt == "json":
        print(json.dumps([dict(zip(headers, row)) for row in rows]))
    elif fmt == "csv":
        print(";".join(headers))
        for row in rows:
            print(";".join(str(c) for c in row))
    else:
        cells = [[str(c) for c in row] for row in rows]
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(headers)]
        for line in [headers, *cells]:
            print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())


def _cmd_dim(args: argparse.Namespace) -> int:
    if args.sweep:
        sweep = _parse_range(args.sweep)
        # refuse an oversized sweep before building any table; the specs are
        # checked as they are built, so a refused range stops at its first
        # oversized N, and every row is computed before one is printed
        for spec in _specs_for_sweep(args.spec, sweep):
            comb.check_digit_cap(spec, args.alphabet)
        _emit_rows(args.format, ["N", "spec", "dimension"],
                   [(n, str(spec), comb.dimension(spec, args.alphabet))
                    for n, spec in zip(sweep, _specs_for_sweep(args.spec, sweep))])
        return 0
    spec = parse_group_spec(args.spec)
    dim = comb.dimension(spec, args.alphabet)
    if args.format == "csv":
        print(dim)
    elif args.format == "json":
        print(json.dumps({"spec": str(spec), "alphabet": args.alphabet, "dimension": dim}))
    else:
        print(f"dim({spec}) = {dim}")
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.spec)
    if args.count_only:
        # one orbit per label-scan representative, less the identity word's
        count = count_orbits_bruteforce(spec, 4) - 1
        if args.format == "json":
            print(json.dumps({"spec": str(spec), "count": count}))
        else:
            print(count)
        return 0
    # every check, the listing cap included, runs before the first byte
    separator = '", "' if args.format == "json" else ","
    _write_orbits(enumerate_invariant_basis(spec, separator), args.format)
    return 0


# bytes of listing text gathered before one write to stdout
_WRITE_BYTES = 1 << 16


def _write_orbits(listing: OrbitListing, fmt: str) -> None:
    """Write an orbit listing as JSON, semicolon CSV or an aligned table.

    Each orbit's members are one slice of the listing's table, whose rows
    already end in the format's separator, so the text is written a few
    orbits' rows at a time and no string is made per word.  JSON is each
    orbit's json.dumps of {representative, weight, members} joined by ", "
    (digit strings need no escaping); the table pads the representative
    and weight columns, and the members column is last, so its padding
    would be stripped.
    """
    n, table, bounds = listing.degree, listing.table, listing.bounds
    row = table.shape[1]
    trim = row - n  # the separator after an orbit's last word
    weights = np.diff(bounds)
    if fmt == "json":
        sys.stdout.write("[")
        head = b'{"representative": "%s", "weight": %d, "members": ["'
        tail, between = b'"]}', b", "
    else:
        headers = ("representative", "weight", "members")
        if fmt == "csv":
            head = b"%s;%d;"
            sys.stdout.write(";".join(headers) + "\n")
        else:
            widths = (max(len(headers[0]), n),
                      max(len(headers[1]), len(str(weights.max()))))
            head = b"%%-%ds  %%-%dd  " % widths
            sys.stdout.write("%-*s  %-*s  %s\n" % (widths[0], headers[0], widths[1],
                                                    headers[1], headers[2]))
        tail, between = b"\n", b""
    flat = memoryview(table).cast("B")
    pieces, size = [], 0
    for i, (start, weight) in enumerate(zip(bounds[:-1].tolist(), weights.tolist())):
        members = flat[start * row:(start + weight) * row - trim]
        pieces += [between if i else b"", head % (members[:n], weight), members, tail]
        size += members.nbytes
        if size >= _WRITE_BYTES:
            sys.stdout.write(b"".join(pieces).decode("ascii"))
            pieces, size = [], 0
    sys.stdout.write(b"".join(pieces).decode("ascii") + ("]\n" if fmt == "json" else ""))


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.spec.lower() == "energy":
        if args.qubits is None:
            raise SpecSyntaxError("oracle energy requires --qubits")
        n = args.qubits
        generators = [energy_hamiltonian(n)]
        expected = comb.dim_energy_preserving(n)
        label = f"energy:{n}"
    else:
        if args.qubits is not None:
            raise SpecSyntaxError("--qubits applies only to `oracle energy`; "
                                  "a group spec sets its own qubit count")
        spec = parse_group_spec(args.spec)
        n = spec.degree
        generators = group_constraint_matrices(spec)
        expected = comb.dimension(spec)
        label = str(spec)
    report = commutant_dimension(generators, n)
    agrees = report.dimension == expected
    if args.format == "csv":
        print("spec;n_qubits;constraint_count;rank;dimension;expected;agrees;tolerance;gap")
        print(f"{label};{report.n_qubits};{report.constraint_count};{report.rank};"
              f"{report.dimension};{expected};{str(agrees).lower()};"
              f"{report.tolerance!r};{report.singular_value_gap!r}")
    elif args.format == "json":
        data = report.to_json()
        data.update({"spec": label, "expected": expected, "agrees": agrees})
        print(json.dumps(data))
    else:
        print(f"commutant dimension for {label}: {report.dimension} "
              f"(expected {expected}, agrees: {str(agrees).lower()})")
        print(f"rank {report.rank} from {report.constraint_count} constraint rows, "
              f"tolerance {report.tolerance:.3g}, singular-value gap "
              f"{report.singular_value_gap:.3g}")
    return 0


def _scaling_rows(max_qubits: int) -> Tuple[List[str], List[List[str]]]:
    headers = ["N", "C", "D", "A", "S", "unrestricted", "energy",
               "ratio_C", "ratio_D", "ratio_A", "ratio_S", "ratio_energy"]
    if max_qubits < 1:
        raise ValueError(f"--max-qubits must be >= 1, got {max_qubits}")
    # refuse an oversized table before building any row
    comb.check_term_cap(GroupSpec(Family.SYMMETRIC, max_qubits))
    rows = []
    for n in range(1, max_qubits + 1):
        dims = {f: comb.dim_invariant_algebra(GroupSpec(f, n)) for f in Family}
        energy = comb.dim_energy_preserving(n)
        row = [str(n)] + [str(dims[f]) for f in
                          (Family.CYCLIC, Family.DIHEDRAL, Family.ALTERNATING,
                           Family.SYMMETRIC, Family.TRIVIAL)] + [str(energy)]
        row.append(format(dims[Family.CYCLIC] * n / 4**n, ".6g"))
        row.append(format(dims[Family.DIHEDRAL] * n / 4**n, ".6g"))
        row.append(format(dims[Family.ALTERNATING] / n**3, ".6g"))
        row.append(format(dims[Family.SYMMETRIC] / n**3, ".6g"))
        row.append(format(energy * math.sqrt(n) / 4**n, ".6g"))
        rows.append(row)
    return headers, rows


def _cmd_scaling_table(args: argparse.Namespace) -> int:
    _emit_rows(args.format, *_scaling_rows(args.max_qubits))
    return 0


def _resolve_workers(requested: int) -> int:
    """`--workers` capped by SYMLIE_THREADS (a cap below 1 counts as 1); a
    request below 1 passes through for ExperimentConfig to refuse."""
    env = os.environ.get("SYMLIE_THREADS")
    if env:
        try:
            return min(requested, max(1, int(env)))
        except ValueError:
            raise SpecSyntaxError(f"SYMLIE_THREADS must be an integer, got {env!r}") from None
    return requested


def _cmd_variance(args: argparse.Namespace) -> int:
    if args.ansatz == "all":
        kinds = (AnsatzKind.PERMUTATION, AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING)
    else:
        kinds = (AnsatzKind(args.ansatz),)
    cfg = ExperimentConfig(
        qubit_counts=tuple(_parse_range(args.qubits, step=2)),
        samples_per_point=args.samples,
        dataset_size=args.dataset_size,
        edge_probability=args.edge_probability,
        seed=args.seed,
        ansatz_kinds=kinds,
        probe_all_slots=args.all_slots,
        cyclic_distance2=not args.no_theta4,
        layers=args.layers,
        workers=_resolve_workers(args.workers),
    )
    rows = run_variance_experiment(cfg)
    fields = ["qubits", "ansatz", "variance", "samples", "seed"]
    if args.all_slots:
        # the slot is the third column of the CSV and the last key of the JSON
        fields.insert(2 if args.format == "csv" else len(fields), "slot")
    _emit_rows(args.format, fields, [[getattr(r, f) for f in fields] for r in rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlie",
        description="Dimensions, bases, and oracles for symmetry-restricted "
                    "subalgebras of su(2^N).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("table", "csv", "json"),
                   default="table") -> None:
        p.add_argument("--format", choices=choices, default=default)

    p_dim = sub.add_parser("dim", help="invariant-subalgebra dimension for a group spec")
    p_dim.add_argument("spec", help="e.g. S:4, C:5, S:3xE:2")
    p_dim.add_argument("--alphabet", type=int, default=4,
                       help="letters per site (default 4: Pauli words)")
    p_dim.add_argument("--sweep", metavar="A..B",
                       help="sweep the variable part of the spec over N = A..B")
    add_format(p_dim)
    p_dim.set_defaults(func=_cmd_dim)

    p_orb = sub.add_parser("orbits", help="list the symmetrized Pauli-orbit basis")
    p_orb.add_argument("spec")
    p_orb.add_argument("--count-only", action="store_true")
    add_format(p_orb)
    p_orb.set_defaults(func=_cmd_orbits)

    p_orc = sub.add_parser("oracle", help="commutant dimension by dense linear algebra")
    p_orc.add_argument("spec", help="group spec, or the literal `energy`")
    p_orc.add_argument("--qubits", type=int,
                       help="qubit count for the energy oracle (not for group specs)")
    add_format(p_orc)
    p_orc.set_defaults(func=_cmd_oracle)

    p_tab = sub.add_parser(
        "scaling-table",
        help="per-family dimensions and asymptotic-ratio columns",
        description="Dimensions for all families at N = 1..max plus the ratios "
                    "that stabilize under each family's growth law: dim*N/4^N "
                    "for C and D, dim/N^3 for A and S, dim*sqrt(N)/4^N for the "
                    "energy-preserving sector.")
    p_tab.add_argument("--max-qubits", type=int, default=14)
    add_format(p_tab)
    p_tab.set_defaults(func=_cmd_scaling_table)

    p_var = sub.add_parser("variance", help="gradient-variance scaling experiment")
    p_var.add_argument("--qubits", default="4..10",
                       help="range A..B (step 2) or comma list (default 4..10)")
    p_var.add_argument("--samples", type=int, default=200)
    p_var.add_argument("--dataset-size", type=int, default=50)
    p_var.add_argument("--edge-probability", type=float, default=0.4)
    p_var.add_argument("--seed", type=int, default=1)
    p_var.add_argument("--layers", type=int, default=None,
                       help="override the per-ansatz default layer count")
    p_var.add_argument("--ansatz", default="all",
                       choices=["all", "permutation", "cyclic", "strongly-entangling"])
    p_var.add_argument("--no-theta4", action="store_true",
                       help="drop the distance-2 ZZ ring of the cyclic ansatz")
    p_var.add_argument("--all-slots", action="store_true",
                       help="report a variance row per parameter slot")
    p_var.add_argument("--workers", type=int, default=1,
                       help="sample-level parallelism (bounded by SYMLIE_THREADS)")
    add_format(p_var, choices=("csv", "json"), default="csv")
    p_var.set_defaults(func=_cmd_variance)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then surfaces here, not at exit
        return code
    except (SymlieError, SpecSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush of
        # what is still buffered at interpreter exit is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
