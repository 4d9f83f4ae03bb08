"""Command-line interface.

Exit codes: 0 success / no violated claim, 1 bad input or parse error,
2 brute-force cross-check mismatch, a bijection certificate that fails
its check, a lattice with a subgroup order that does not divide |G| or
that breaks Frobenius' count of its p-subgroups, seed weights that do not
sum to |G|, a violating or failing subgroup whose psi_H (or largest
relative order) `relative_orders` does not confirm, or a ``scan`` catalog
group that raised, 3 a scanned claim was violated (for ``scan`` this is the
expected outcome once the catalog contains the affine Frobenius groups;
for ``bijection`` it means no bijection exists).

Cayley-table file format: optional ``#`` comment lines; first data line is
the order n; then n lines of n whitespace-separated encodings in [0, n) with
entry (i, j) = encoding of element_i * element_j and 0 the identity. The
order and every entry are ASCII decimal digits after at most one sign.

Importing this module loads only ``numtheory`` and the standard library, so
the closed forms start without numpy; a command that needs the group layer
imports it when it runs. The argument parser is built on the first call of
`main` and shared by every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .budget import ELEMENT_CAP, LATTICE_CAP, power_text
from .numtheory import CounterexampleSpec, frobenius_ratio_closed_form, psi_cyclic, rational_json

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_MISMATCH = 2
EXIT_VIOLATION = 3

# one token of the order line and of each row; compiled on first use, not at import
_INTEGER = r"[+-]?[0-9]+"

# pieces of a report held before they are written
_FLUSH = 1 << 12


def __getattr__(name: str):
    # perfbench's tracer test reads `cli.psi_relative`; it is served from
    # order_sums on first use so that importing this module loads no numpy
    if name == "psi_relative":
        from .order_sums import psi_relative
        return psi_relative
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit_json(path: str, command: str, results, started: float) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "results": results,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    with open(path, "w") as fh:
        _write_json(fh, doc)


def _write_json(fh, doc) -> None:
    """Write ``doc`` to the text file ``fh`` as ``json.JSONEncoder(indent=2)``
    encodes it, byte for byte, and a newline.

    A report holds dicts with str keys, lists, tuples, str, int, bool and
    None only, of exactly those types; any other value, a float or a
    subclass of one of those among them, raises TypeError. The
    pieces go onto one list, which is joined and written each time it
    passes _FLUSH pieces, checked once per container item: the whole text
    is never held at once. Strings are escaped by json's own C escaper.
    """
    out = []
    append = out.append
    heads = {}  # '"key": ' by key

    def item(value, pad: str) -> None:
        # pad is the newline and indent of the line that closes ``value``
        kind = type(value)
        if kind is str:
            append(_quote(value))
        elif kind is int:
            append(str(value))
        elif kind is bool:
            append("true" if value else "false")
        elif value is None:
            append("null")
        elif kind is dict:
            write_dict(value, pad)
        elif kind is list or kind is tuple:
            write_list(value, pad)
        else:
            raise TypeError(f"a report holds no {kind.__name__} value: {value!r}")

    def write_dict(members: dict, pad: str) -> None:
        if not members:
            append("{}")
            return
        inner = pad + "  "
        sep, rest = "{" + inner, "," + inner
        for key, value in members.items():
            head = heads.get(key)
            if head is None:
                if type(key) is not str:
                    raise TypeError(f"a report key must be a str, not {type(key).__name__}: {key!r}")
                head = heads[key] = _quote(key) + ": "
            append(sep)
            append(head)
            item(value, inner)
            sep = rest
            if len(out) > _FLUSH:
                fh.write("".join(out))
                out.clear()
        append(pad + "}")

    def write_list(members, pad: str) -> None:
        if not members:
            append("[]")
            return
        inner = pad + "  "
        sep, rest = "[" + inner, "," + inner
        for value in members:
            append(sep)
            item(value, inner)
            sep = rest
            if len(out) > _FLUSH:
                fh.write("".join(out))
                out.clear()
        append(pad + "]")

    item(doc, "\n")
    append("\n")
    fh.write("".join(out))


def _approx(fr: Fraction) -> str:
    return f"{float(fr):.6g}"


def _data_lines(path: str):
    """(line number, stripped line) for each line of the file at ``path``
    that is neither blank nor a ``#`` comment."""
    with open(path) as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            if line and not line.startswith("#"):
                yield lineno, line


def load_cayley_file(path: str, check_order=None):
    """Parse and validate a Cayley-table file; raises ValueError with the
    offending line number on malformed input.

    ``check_order``, when given, is called with the order on the first data
    line before the rest of the file is read, so that a command refuses a
    group too large for it without parsing the table; a malformed order line
    is left to the line-by-line scan.

    The table body streams from the file through one ``np.loadtxt`` call
    into the smallest unsigned dtype that holds an encoding, and that array,
    validated, becomes the group's own table, with no copy. That call
    rejects a negative or overflowing token, so only such a file or one it
    cannot parse is read again, line by line, into Python ints, to name the
    first bad line or entry.
    """
    import numpy as np

    from .group_core import CayleyTableGroup

    lines = (line for _, line in _data_lines(path))
    head = next(lines, "").split()
    n = int(head[0]) if len(head) == 1 and re.fullmatch(_INTEGER, head[0]) else 0
    if n >= 1 and check_order is not None:
        check_order(n)
    table = None
    # the first row is peeked, because loadtxt warns on an empty body
    if n >= 1 and (first := next(lines, None)) is not None:
        try:
            table = np.loadtxt(itertools.chain([first], lines),
                               dtype=np.min_scalar_type(n - 1), ndmin=2, comments=None)
        except ValueError:
            pass
    if table is None or table.shape != (n, n):
        table = np.asarray(_scan_cayley_lines(path))
    # the parsed array is the group's own table: no copy of it is made
    return CayleyTableGroup._take(table, name=path)


def _scan_cayley_lines(path: str) -> list[list[int]]:
    """The table rows of the file at ``path``, parsed token by token;
    raises ValueError naming the first malformed line."""
    rows, n = [], None
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if not all(re.fullmatch(_INTEGER, tok) for tok in tokens):
            raise ValueError(f"{path}:{lineno}: non-integer token")
        values = list(map(int, tokens))
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
    if args.brute_force and n > ELEMENT_CAP:
        raise ValueError(f"brute-force path capped at n = {power_text(ELEMENT_CAP)}")
    value = psi_cyclic(n)
    results = [{"n": n, "psi_cyclic": str(value)}]
    code = EXIT_OK
    if args.brute_force:
        import numpy as np

        from .order_sums import cyclic_orders

        brute = int(cyclic_orders(n).sum(dtype=np.int64))
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
    spec = CounterexampleSpec(r=args.r, q=args.q or 0)
    if args.brute_force:
        # 2^r * (2^r - 1) >= 2^(2r - 1), which is over the cap once 2r - 1 reaches
        # its bit length, so such an r is refused before 2^r is computed
        if args.r >= 3 and (args.r > ELEMENT_CAP.bit_length() // 2
                            or spec.group_order > ELEMENT_CAP):
            cofactor = f" * {spec.q}" if spec.q else ""
            raise ValueError(f"group of order 2^{args.r} * (2^{args.r} - 1){cofactor} exceeds the "
                             f"brute-force budget {power_text(ELEMENT_CAP)}; "
                             "use the closed form without --brute-force")
        from . import verify
        from .order_sums import psi_relative

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
    if args.max_order > LATTICE_CAP:
        raise ValueError(f"--max-order {args.max_order} exceeds the subgroup "
                         f"enumeration cap {LATTICE_CAP}")
    from . import verify

    catalog = verify.default_catalog(args.max_order, include_frobenius=args.include_frobenius)
    report = verify.scan_catalog(catalog)
    for res in report.results:
        mark = " VIOLATES" if res.violations else ""
        flags = "".join(flag if on else "-" for flag, on in
                        zip("NSC", (res.nilpotent, res.solvable, res.cyclic)))
        print(f"{res.group:>14}  order {res.group_order:>4}  [{flags}]  "
              f"psi={res.psi_value}  psi(C_n)={res.psi_cyclic_value}{mark}")
    for name, err in report.errors:
        print(f"{name}: error: {err}", file=sys.stderr)
    print(f"{report.total_violations} violations across {len(report.results)} groups")
    code = (EXIT_MISMATCH if report.errors
            else EXIT_VIOLATION if report.total_violations else EXIT_OK)
    return code, f"scan --max-order {args.max_order}", [report.to_json_dict()]


def _mismatch(label: str, problem: str) -> tuple[int, str, list]:
    print(f"MISMATCH: {problem}")
    return EXIT_MISMATCH, label, [{"mismatch": problem}]


def cmd_check_bounds(args) -> tuple[int, str, list]:
    from . import verify
    from .order_sums import (
        cyclic_reference,
        lattice_order_sums,
        psi_relative_upper_bound,
        ratio_bounds_for_index,
    )
    from .subgroup_lattice import _check_lattice_order, all_subgroups

    G = load_cayley_file(args.group_file, _check_lattice_order)
    label = f"check-bounds {args.group_file}"
    subgroups = all_subgroups(G)
    problem = verify.lattice_mismatch(G, subgroups)
    if problem is not None:
        return _mismatch(label, problem)
    failures = []
    rows = []
    # per distinct index, the (den, num * reference) of each ratio bound num / den:
    # value / reference < num / den iff value * den < num * reference
    index_limits = {}
    for q in {H.index for H in subgroups} - {1}:
        bounds, reference = ratio_bounds_for_index(q), cyclic_reference(G.order, G.order // q)
        index_limits[q] = [(b.denominator, b.numerator * reference) for b in (bounds.product, bounds.spread)]
    for H, value, largest in zip(subgroups, *lattice_order_sums(G, subgroups)):
        m, q = H.order, H.index
        bound = psi_relative_upper_bound(m, q)
        checks = {"quadratic_bound": value <= bound}
        if q >= 2:
            (product_den, product_top), (spread_den, spread_top) = index_limits[q]
            checks["product_bound"] = value * product_den < product_top
            checks["spread_bound"] = value * spread_den < spread_top
        checks["relative_order_le_index"] = largest <= q
        if not all(checks.values()):
            failures.append((H, value, largest))
        rows.append({"subgroup_order": m, "index": q, "psi_h": str(value),
                     "bound": str(bound), "checks": checks})
    problem = verify.order_sum_mismatch(G, failures)
    if problem is not None:
        return _mismatch(label, problem)
    for row in rows:
        status = "ok" if all(row["checks"].values()) else "FAIL"
        print(f"subgroup order {row['subgroup_order']:>4} index {row['index']:>4}: "
              f"psi_H={row['psi_h']} <= {row['bound']} [{status}]")
    print(f"{len(failures)} bound failures over {len(rows)} subgroups")
    code = EXIT_VIOLATION if failures else EXIT_OK
    return code, label, rows


def cmd_ratios(args) -> tuple[int, str, list]:
    from . import verify
    from .subgroup_lattice import _check_lattice_order

    G = load_cayley_file(args.group_file, _check_lattice_order)
    label = f"ratios {args.group_file}"
    try:
        records = verify.subgroup_ratio_scan(G)
    except verify.Mismatch as exc:
        return _mismatch(label, str(exc))
    # each line prints from its record's report entry, which holds the one
    # Fraction built for the ratio
    docs = [rec.to_json_dict() for rec in records]
    for doc in docs:
        mark = " VIOLATES" if doc["is_violation"] else ""
        ratio = doc["ratio"]
        print(f"subgroup order {doc['subgroup_order']:>4}: psi_H={doc['psi_h']}  "
              f"reference={doc['cyclic_reference']}  "
              f"ratio={ratio['num']}/{ratio['den']}{mark}")
    violations = sum(doc["is_violation"] for doc in docs)
    print(f"{violations} violations over {len(docs)} subgroups")
    code = EXIT_VIOLATION if violations else EXIT_OK
    return code, label, docs


def cmd_bijection(args) -> tuple[int, str, list]:
    from . import verify
    from .subgroup_lattice import generate

    G = load_cayley_file(args.group_file, verify._check_bijection_order)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was, so every call of `main` shares it."""
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
