"""Command-line interface.

Exit codes: 0 success / no violated claim, 1 bad input or parse error,
2 brute-force cross-check mismatch or a bijection certificate that fails
its check, 3 a scanned claim was violated (for ``scan`` this is the
expected outcome once the catalog contains the affine Frobenius groups; for
``bijection`` it means no bijection exists).

Cayley-table file format: optional ``#`` comment lines; first data line is
the order n; then n lines of n whitespace-separated encodings in [0, n) with
entry (i, j) = encoding of element_i * element_j and 0 the identity.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import group_core, order_sums, verify
from .numtheory import frobenius_ratio_closed_form, psi_cyclic
from .subgroup_lattice import _LATTICE_CAP, all_subgroups, generate
from .order_sums import (
    _BRUTE_FORCE_CAP,
    lattice_order_sums,
    psi_relative,
    psi_relative_upper_bound,
    ratio_bounds_for_index,
    rational_json,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_VIOLATION = 3


def _emit_json(path: str, command: str, results, started: float) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "results": results,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _approx(fr: Fraction) -> str:
    return f"{float(fr):.6g}"


def load_cayley_file(path: str):
    """Parse and validate a Cayley-table file; raises ValueError with the
    offending line number on malformed input.

    The table body is parsed by one vectorised ``np.loadtxt`` call straight
    into the smallest unsigned dtype that holds an encoding, which the table
    is validated and kept in. That call rejects a negative or overflowing
    token, so only such a file or one it cannot parse is scanned line by
    line, into Python ints, to name the first bad line or entry.
    """
    with open(path) as fh:
        data = [(lineno, line) for lineno, line in enumerate(map(str.strip, fh), start=1)
                if line and not line.startswith("#")]
    head = data[0][1].split() if data else []
    n = int(head[0]) if len(head) == 1 and head[0].isdecimal() else 0
    table = None
    if n >= 1 and len(data) == n + 1:
        try:
            table = np.loadtxt([line for _, line in data[1:]],
                               dtype=np.min_scalar_type(n - 1), ndmin=2, comments=None)
        except ValueError:
            pass
    if table is None or table.shape != (n, n):
        table = _scan_cayley_lines(path, data)
    return group_core.from_cayley_table(table, name=path)


def _scan_cayley_lines(path: str, data) -> list[list[int]]:
    """The table rows parsed token by token with ``int``; raises ValueError
    naming the first malformed line."""
    rows = []
    n = None
    for lineno, line in data:
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer token")
        if n is None:
            if len(values) != 1 or values[0] < 1:
                raise ValueError(f"{path}:{lineno}: expected a single positive order")
            n = values[0]
            continue
        if len(values) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} entries, got {len(values)}")
        rows.append(values)
    if n is None:
        raise ValueError(f"{path}: empty file")
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} table rows, got {len(rows)}")
    return rows


def _parse_generators(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad generator list {text!r}: expected comma-separated integers")


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, command label, JSON results) and
# raises ValueError or OSError on bad input, which main() reports
# ---------------------------------------------------------------------------

def cmd_psi_cyclic(args) -> tuple[int, str, list]:
    n = args.n
    if args.brute_force and n > 10 ** 6:
        raise ValueError("brute-force path capped at n = 10^6")
    value = psi_cyclic(n)
    results = [{"n": n, "psi_cyclic": str(value)}]
    code = EXIT_OK
    if args.brute_force:
        brute = int(order_sums.cyclic_orders(n).sum(dtype=np.int64))
        verdict = "OK" if brute == value else "MISMATCH"
        print(f"{value} {brute} {verdict}")
        results[0]["brute_force"] = str(brute)
        results[0]["verdict"] = verdict
        if brute != value:
            code = EXIT_MISMATCH
    else:
        print(value)
    return code, f"psi-cyclic {n}", results


def cmd_frobenius(args) -> tuple[int, str, list]:
    spec = verify.CounterexampleSpec(r=args.r, q=args.q or 0)
    if args.brute_force:
        # 2^13 * (2^13 - 1) > 2^24 already, so a larger r is refused before 2^r is computed
        if args.r >= 3 and (args.r > 12 or spec.group_order > _BRUTE_FORCE_CAP):
            cofactor = f" * {spec.q}" if spec.q else ""
            raise ValueError(f"group of order 2^{args.r} * (2^{args.r} - 1){cofactor} exceeds the "
                             "brute-force budget 2^24; use the closed form without --brute-force")
        G, H = verify.build_counterexample(spec)  # validates the spec
    else:
        spec.validate()
    n, m = spec.group_order, spec.subgroup_order
    ratio = frobenius_ratio_closed_form(args.r)
    psi_h = spec.psi_h
    print(f"group order n = {n}")
    print(f"subgroup order m = {m}")
    print(f"psi_H (closed form) = {psi_h}")
    result = {
        "r": args.r,
        "q": spec.q,
        "n": n,
        "m": m,
        "psi_h": str(psi_h),
        "ratio": rational_json(ratio),
    }
    code = EXIT_OK
    if args.brute_force:
        brute = psi_relative(G, H)
        verdict = "OK" if brute == psi_h else "MISMATCH"
        print(f"psi_H (brute force)  = {brute} {verdict}")
        result["brute_force"] = str(brute)
        result["verdict"] = verdict
        if verdict == "MISMATCH":
            code = EXIT_MISMATCH
    print(f"ratio = {ratio.numerator}/{ratio.denominator} (~{_approx(ratio)})")
    if ratio > 1:
        print("ratio > 1: VIOLATES the cyclic-reference upper bound")
    label = f"frobenius --r {args.r}" + (f" --q {spec.q}" if spec.q else "")
    return code, label, [result]


def cmd_scan(args) -> tuple[int, str, list]:
    if args.max_order < 1:
        raise ValueError(f"--max-order {args.max_order} must be at least 1")
    if args.max_order > _LATTICE_CAP:
        raise ValueError(f"--max-order {args.max_order} exceeds the subgroup "
                         f"enumeration cap {_LATTICE_CAP}")
    catalog = verify.default_catalog(args.max_order, include_frobenius=args.include_frobenius)
    report = verify.scan_catalog(catalog)
    for res in report.results:
        mark = " VIOLATES" if res.violations else ""
        flags = "".join(
            [
                "N" if res.nilpotent else "-",
                "S" if res.solvable else "-",
                "C" if res.cyclic else "-",
            ]
        )
        print(f"{res.group:>14}  order {res.group_order:>4}  [{flags}]  "
              f"psi={res.psi_value}  psi(C_n)={res.psi_cyclic_value}{mark}")
    for name, err in report.errors:
        print(f"{name}: error: {err}", file=sys.stderr)
    print(f"{report.total_violations} violations across {len(report.results)} groups")
    code = EXIT_VIOLATION if report.total_violations else EXIT_OK
    return code, f"scan --max-order {args.max_order}", [report.to_json_dict()]


def cmd_check_bounds(args) -> tuple[int, str, list]:
    G = load_cayley_file(args.group_file)
    failures = []
    rows = []
    subgroups = all_subgroups(G)
    # one bound and one cyclic reference per distinct index
    index_bounds = {q: (ratio_bounds_for_index(q), order_sums.cyclic_reference(G.order, G.order // q))
                    for q in {H.index for H in subgroups} if q >= 2}
    for H, value, largest in zip(subgroups, *lattice_order_sums(G, subgroups)):
        m, q = H.order, H.index
        bound = psi_relative_upper_bound(m, q)
        checks = {"quadratic_bound": value <= bound}
        if q >= 2:
            bounds, reference = index_bounds[q]
            ratio = Fraction(value, reference)
            checks["product_bound"] = ratio < bounds.product
            checks["spread_bound"] = ratio < bounds.spread
        checks["relative_order_le_index"] = largest <= q
        ok = all(checks.values())
        if not ok:
            failures.append((m, checks))
        rows.append({"subgroup_order": m, "index": q, "psi_h": str(value),
                     "bound": str(bound), "checks": checks})
        status = "ok" if ok else "FAIL"
        print(f"subgroup order {m:>4} index {q:>4}: psi_H={value} <= {bound} [{status}]")
    print(f"{len(failures)} bound failures over {len(rows)} subgroups")
    code = EXIT_VIOLATION if failures else EXIT_OK
    return code, f"check-bounds {args.group_file}", rows


def cmd_ratios(args) -> tuple[int, str, list]:
    G = load_cayley_file(args.group_file)
    records = verify.subgroup_ratio_scan(G)
    for rec in records:
        mark = " VIOLATES" if rec.is_violation else ""
        ratio = rec.ratio
        print(f"subgroup order {rec.subgroup_order:>4}: psi_H={rec.psi_h}  "
              f"reference={rec.cyclic_reference}  "
              f"ratio={ratio.numerator}/{ratio.denominator}{mark}")
    violations = [rec for rec in records if rec.is_violation]
    print(f"{len(violations)} violations over {len(records)} subgroups")
    code = EXIT_VIOLATION if violations else EXIT_OK
    return code, f"ratios {args.group_file}", [rec.to_json_dict() for rec in records]


def cmd_bijection(args) -> tuple[int, str, list]:
    G = load_cayley_file(args.group_file)
    H = generate(G, _parse_generators(args.subgroup))
    result = verify.bijection_exists(G, H)
    label = f"bijection {args.group_file} --subgroup {args.subgroup}"
    problem = verify.check_bijection(G, H, result)
    if problem is not None:
        print(f"CERTIFICATE MISMATCH: {problem}")
        return EXIT_MISMATCH, label, [{"exists": result.exists, "certificate_error": problem}]
    if result.exists:
        print("BIJECTION EXISTS")
        doc = {"exists": True, "witness": list(result.witness)}
        code = EXIT_OK
    else:
        print("NO BIJECTION")
        print(f"deficient relative-order values (group side): {result.deficient_values}")
        print(f"reachable values (cyclic side): {result.neighborhood_values}")
        print(f"deficiency: {result.deficiency()}")
        doc = {
            "exists": False,
            "deficient_values": {str(k): v for k, v in result.deficient_values.items()},
            "neighborhood_values": {str(k): v for k, v in result.neighborhood_values.items()},
            "deficiency": result.deficiency(),
        }
        code = EXIT_VIOLATION
    return code, label, [doc]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relpsi",
        description="Exact sums of element orders of finite groups relative to subgroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi-cyclic", help="order sum of the cyclic group C_n")
    p.add_argument("n", type=int)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=cmd_psi_cyclic)

    p = sub.add_parser("frobenius", help="affine Frobenius counterexample pipeline")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("scan", help="scan the built-in group catalog")
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--include-frobenius", action="store_true",
                   help="add the affine Frobenius field groups to the catalog")
    p.add_argument("--json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check-bounds", help="verify order-sum bounds on an ingested group")
    p.add_argument("group_file")
    p.add_argument("--json")
    p.set_defaults(func=cmd_check_bounds)

    p = sub.add_parser("ratios", help="per-subgroup ratio table for an ingested group")
    p.add_argument("group_file")
    p.add_argument("--json")
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("bijection", help="order-divisibility bijection decision")
    p.add_argument("group_file")
    p.add_argument("--subgroup", required=True, help="comma-separated generator encodings")
    p.add_argument("--json")
    p.set_defaults(func=cmd_bijection)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    started = time.monotonic()
    try:
        code, command, results = args.func(args)
        if args.json:
            _emit_json(args.json, command, results, started)
    except (ValueError, OSError) as exc:  # CayleyTableError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
