"""Independent checks of relpsi's `--json` reports.

Every check takes the command's exit code and its parsed JSON document and
returns a list of problems; an empty list means the result is correct. The
arithmetic here uses sympy's factorisation, plain gcd sums, the paper's
closed forms and numpy on the unrelabelled Cayley table, never relpsi code.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import sympy

EXIT_OK = 0
EXIT_VIOLATION = 3


def psi_cyclic(n: int) -> int:
    """Sum of element orders of C_n from sympy's factorisation of n."""
    total = 1
    for p, a in sympy.factorint(n).items():
        total *= (p ** (2 * a + 1) + 1) // (p + 1)
    return total


def psi_cyclic_gcd_sum(n: int) -> int:
    """Sum of element orders of C_n by enumeration: k has order n / gcd(n, k)."""
    return sum(n // gcd(n, k) for k in range(n))


def frobenius_ratio(r: int) -> Fraction:
    """The paper's closed form (3*4^r - 9*2^r + 15) / (2^(2r+1) + 1)."""
    return Fraction(3 * 4 ** r - 9 * 2 ** r + 15, 2 ** (2 * r + 1) + 1)


def frobenius_psi_h(r: int, cofactor: int) -> int:
    """(q-1)(psi(C_{q-1}) + 2) * cofactor with q = 2^r: the relative order sum
    of Frob(2,r) x C_cofactor over complement x C_cofactor."""
    q = 2 ** r
    return (q - 1) * (psi_cyclic(q - 1) + 2) * cofactor


def fraction(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _exit(problems: list, code: int, expected: int) -> None:
    _expect(problems, code == expected, f"exit code {code}, expected {expected}")


# ---------------------------------------------------------------------------
# catalog-scan
# ---------------------------------------------------------------------------

def check_scan(code: int, doc: dict, expected_results) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_VIOLATION)
    _expect(problems, doc["results"] == expected_results,
            "results differ from the committed expected copy")
    report = doc["results"][0]
    _expect(problems, report["flagged_groups"] == ["Frob(2,3)"],
            f"flagged groups {report['flagged_groups']}")
    closed_form = frobenius_ratio(3)
    violations = 0
    for res in report["results"]:
        n = res["group_order"]
        reference = psi_cyclic_gcd_sum(n)
        _expect(problems, int(res["psi_cyclic"]) == reference, f"{res['group']}: psi(C_n)")
        if res["group"] == f"C{n}":
            _expect(problems, int(res["psi"]) == reference and res["cyclic"],
                    f"{res['group']}: psi of a cyclic group")
        for rec in res["violations"]:
            violations += 1
            _expect(problems, fraction(rec["ratio"]) == closed_form,
                    f"{res['group']}: violation ratio is not 45/43")
    _expect(problems, violations == report["total_violations"] == 8,
            f"{violations} violations listed, {report['total_violations']} reported")
    return problems


# ---------------------------------------------------------------------------
# frobenius-brute and closed-form
# ---------------------------------------------------------------------------

def check_frobenius(code: int, doc: dict, r: int, cofactor: int, brute: bool) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    res = doc["results"][0]
    c = cofactor or 1
    q = 2 ** r
    n, m = q * (q - 1) * c, (q - 1) * c
    psi_h = frobenius_psi_h(r, c)
    _expect(problems, (res["r"], res["q"], res["n"], res["m"]) == (r, cofactor, n, m),
            f"parameters r={res['r']} q={res['q']} n={res['n']} m={res['m']}")
    _expect(problems, int(res["psi_h"]) == psi_h, f"psi_h {res['psi_h']}, expected {psi_h}")
    ratio = fraction(res["ratio"])
    _expect(problems, ratio == frobenius_ratio(r) == Fraction(psi_h, m * psi_cyclic(n // m)),
            f"ratio {ratio}")
    if brute:
        _expect(problems, res.get("verdict") == "OK", f"verdict {res.get('verdict')}")
        _expect(problems, res.get("brute_force") == str(psi_h),
                f"brute force {res.get('brute_force')}, expected {psi_h}")
    return problems


def check_psi_cyclic(code: int, doc: dict, n: int, brute: bool) -> list[str]:
    problems: list[str] = []
    _exit(problems, code, EXIT_OK)
    res = doc["results"][0]
    value = psi_cyclic(n)
    _expect(problems, res["n"] == n and res["psi_cyclic"] == str(value),
            f"psi_cyclic({n}) = {res['psi_cyclic']}, expected {value}")
    if brute:
        _expect(problems, res.get("verdict") == "OK" and res.get("brute_force") == str(value),
                f"brute force {res.get('brute_force')} {res.get('verdict')}")
    return problems


# ---------------------------------------------------------------------------
# table-ingest
# ---------------------------------------------------------------------------

def ratios_projection(code: int, doc: dict) -> dict:
    """What `ratios` reports that does not depend on the element labels."""
    rows = sorted((rec["subgroup_order"], rec["psi_h"], f"{rec['ratio']['num']}/{rec['ratio']['den']}")
                  for rec in doc["results"])
    violations = sum(rec["is_violation"] for rec in doc["results"])
    return {"exit": code, "rows": [list(row) for row in rows], "violations": violations}


def bounds_projection(code: int, doc: dict) -> dict:
    """What `check-bounds` reports that does not depend on the element labels."""
    rows = sorted((row["subgroup_order"], row["index"], row["psi_h"], row["bound"],
                   all(row["checks"].values())) for row in doc["results"])
    return {"exit": code, "rows": [list(row) for row in rows],
            "failures": sum(not ok for *_, ok in rows)}


def check_ratios(code: int, doc: dict, n: int, expected: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, ratios_projection(code, doc) == expected,
            "relabel-invariant projection differs from the unrelabelled group's")
    for rec in doc["results"]:
        m = rec["subgroup_order"]
        reference = m * psi_cyclic(n // m)
        ratio = fraction(rec["ratio"])
        _expect(problems, rec["group_order"] == n and int(rec["cyclic_reference"]) == reference
                and ratio == Fraction(int(rec["psi_h"]), reference)
                and rec["is_violation"] == (ratio > 1),
                f"subgroup of order {m}: reference or ratio")
    return problems


def check_bounds(code: int, doc: dict, n: int, expected: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, bounds_projection(code, doc) == expected,
            "relabel-invariant projection differs from the unrelabelled group's")
    for row in doc["results"]:
        m, index = row["subgroup_order"], row["index"]
        bound = m * (index * index - index + 1)
        _expect(problems, m * index == n and int(row["bound"]) == bound
                and int(row["psi_h"]) <= bound, f"subgroup of order {m}: bound")
    return problems


def relative_orders(table: np.ndarray, gens) -> tuple[np.ndarray, int]:
    """Relative order of every element over <gens>, and that subgroup's order,
    from a Cayley table with the identity at 0."""
    n = table.shape[0]
    members = np.zeros(n, dtype=bool)
    members[0] = True
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = int(table[x, g])
            if not members[y]:
                members[y] = True
                frontier.append(y)
    order = int(members.sum())
    rel = np.zeros(n, dtype=np.int64)
    elems = np.arange(n)
    power = elems.copy()
    # the relative order never exceeds the index, by pigeonhole on cosets
    for m in range(1, n // order + 1):
        rel[(rel == 0) & members[power]] = m
        power = table[power, elems]
    return rel, order


def hall_deficiency(left: Counter, right: Counter) -> tuple[int, frozenset]:
    """Largest |S| - |N(S)| over sets S of left values, where a left value v
    reaches every right value it divides, and the smallest such S (the
    maximisers are closed under intersection, so it is unique; it is the
    left side of the minimal minimum cut)."""
    values = sorted(left)
    if len(values) > 20:
        raise ValueError(f"{len(values)} distinct relative orders is too many to enumerate")
    best, best_set = 0, frozenset()
    for mask in range(1, 1 << len(values)):
        chosen = frozenset(v for i, v in enumerate(values) if mask >> i & 1)
        reached = sum(c for w, c in right.items() if any(w % v == 0 for v in chosen))
        deficiency = sum(left[v] for v in chosen) - reached
        if deficiency > best:
            best, best_set = deficiency, chosen
        elif deficiency == best and best > 0:
            best_set &= chosen
    return best, best_set


def check_bijection(code: int, doc: dict, table: np.ndarray, perm: np.ndarray, gens) -> list[str]:
    """`table` is the unrelabelled table, `perm[a]` the label the program sees
    for element a, and `gens` the subgroup generators in unrelabelled form."""
    problems: list[str] = []
    n = table.shape[0]
    rel, order = relative_orders(table, gens)
    q = n // order
    cyclic_rel = [q // gcd(q, k) for k in range(n)]
    deficiency, deficient = hall_deficiency(Counter(rel.tolist()), Counter(cyclic_rel))
    exists = deficiency == 0
    res = doc["results"][0]
    _exit(problems, code, EXIT_OK if exists else EXIT_VIOLATION)
    _expect(problems, res["exists"] == exists, f"exists {res['exists']}, expected {exists}")
    if exists and res["exists"]:
        witness = res["witness"]
        seen = np.zeros(n, dtype=np.int64)
        seen[perm] = rel  # relative orders under the program's labels
        _expect(problems, sorted(witness) == list(range(n)), "witness is not a bijection")
        _expect(problems, len(witness) == n and all(
            cyclic_rel[w] % int(seen[x]) == 0 for x, w in enumerate(witness)),
                "witness breaks order divisibility")
    elif not exists and not res["exists"]:
        left = Counter(rel.tolist())
        right = Counter(cyclic_rel)
        reached = {w: c for w, c in right.items() if any(w % v == 0 for v in deficient)}
        _expect(problems, res["deficiency"] == deficiency,
                f"deficiency {res['deficiency']}, expected {deficiency}")
        _expect(problems, res["deficient_values"] == {str(v): left[v] for v in sorted(deficient)},
                "deficient values")
        _expect(problems, res["neighborhood_values"] == {str(w): c for w, c in sorted(reached.items())},
                "neighbourhood values")
    return problems
