"""Claim-level harness: subgroup ratio scans, the Frobenius counterexample
pipeline, the order-divisibility bijection decision, and catalog sweeps."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import group_core
from .budget import BIJECTION_CAP, RATIO_TABLE_CAP
from .group_core import CyclicGroup, FiniteGroup
from .numtheory import (
    CounterexampleSpec,
    factorize,
    frobenius_ratio_closed_form,
    is_mersenne_exponent,
    rational_json,
)
from .order_sums import (
    cyclic_orders,
    cyclic_reference,
    lattice_order_sums,
    relative_orders,
)
# unused here, but perfbench's tracer test asserts that `verify.psi_relative`
# exists and is patched
from .order_sums import psi_relative  # noqa: F401
from .matching import MaxFlow
from .subgroup_lattice import Subgroup, all_subgroups, generate

__all__ = [
    "ViolationRecord",
    "CounterexampleSpec",
    "BijectionResult",
    "GroupScanResult",
    "CatalogReport",
    "subgroup_ratio_scan",
    "subgroup_count_mismatch",
    "order_sum_mismatch",
    "scan_mismatch",
    "build_counterexample",
    "bijection_exists",
    "check_bijection",
    "scan_catalog",
    "frobenius_ratio_table",
    "default_catalog",
]


class ViolationRecord(NamedTuple):
    """Outcome of comparing one subgroup against its cyclic reference; a
    named tuple, so immutable and cheap to build once per subgroup. It keeps
    the subgroup, whose generators are read only when the record is
    reported."""

    group: str
    group_order: int
    subgroup: Subgroup
    psi_h: int
    cyclic_reference: int
    nilpotent: bool
    solvable: bool

    @property
    def subgroup_order(self) -> int:
        return self.subgroup.order

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.psi_h, self.cyclic_reference)

    @property
    def is_violation(self) -> bool:
        return self.psi_h > self.cyclic_reference

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "group_order": self.group_order,
            "subgroup_order": self.subgroup.order,
            "subgroup_generators": list(self.subgroup.generators),
            "psi_h": str(self.psi_h),
            "cyclic_reference": str(self.cyclic_reference),
            "ratio": rational_json(self.ratio),
            "is_violation": self.is_violation,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
        }


def subgroup_ratio_scan(G: FiniteGroup) -> list[ViolationRecord]:
    """One record per subgroup of G, with the exact ratio against the cyclic
    reference and a violation flag where the ratio exceeds 1. For each p^a
    exactly dividing n = |G|, G is nilpotent iff its Sylow p-subgroup, of
    order p^a, is unique, and solvable iff it has a Hall p-complement, of
    order n / p^a (P. Hall, 1928 and 1937): both flags count the lattice."""
    subgroups = all_subgroups(G)
    sums, _ = lattice_order_sums(G, subgroups)
    n, name = G.order, G.name
    counts = Counter([H.order for H in subgroups])
    parts = [p ** a for p, a in factorize(n)]
    nilpotent = all(counts[q] == 1 for q in parts)
    solvable = all(counts[n // q] for q in parts)
    references = {m: cyclic_reference(n, m) for m in counts}
    return [ViolationRecord(name, n, H, value, references[H.order], nilpotent, solvable)
            for H, value in zip(subgroups, sums)]


def subgroup_count_mismatch(n: int, orders) -> str | None:
    """The first order p^k dividing n of which the subgroup orders
    ``orders``, of a lattice of a group of order n, count other than 1 mod p
    subgroups, as a message; or None. Every group has 1 mod p subgroups of
    each such order (Frobenius, 1895), so a lattice that misses a Sylow
    conjugate, or any one subgroup of prime-power order, fails this."""
    counts = Counter(orders)
    for p, a in factorize(n):
        for q in (p ** k for k in range(1, a + 1)):
            if counts[q] % p != 1:
                return (f"the lattice has {counts[q]} subgroups of order {q}, "
                        f"not 1 mod {p} as Frobenius' theorem requires")
    return None


def order_sum_mismatch(G: FiniteGroup, verdicts) -> str | None:
    """Recompute psi_H, and the largest relative order where one is given,
    for each (H, psi_H, largest or None) of ``verdicts`` through
    `relative_orders`, a path apart from the seed gather of
    `lattice_order_sums`; return the first disagreement, or None."""
    for H, psi_h, largest in verdicts:
        rel = relative_orders(G, H)
        if int(rel.sum()) != psi_h:
            return (f"psi_H of the subgroup of order {H.order} is {psi_h} from the lattice "
                    f"pass and {int(rel.sum())} from relative_orders")
        if largest is not None and int(rel.max()) != largest:
            return (f"the largest relative order over the subgroup of order {H.order} is "
                    f"{largest} from the lattice pass and {int(rel.max())} from relative_orders")
    return None


def scan_mismatch(G: FiniteGroup, records: list[ViolationRecord]) -> str | None:
    """What `subgroup_count_mismatch` finds in the lattice of the records
    of `subgroup_ratio_scan`, else what `order_sum_mismatch` finds in their
    violations; or None."""
    return (subgroup_count_mismatch(G.order, [rec.subgroup.order for rec in records])
            or order_sum_mismatch(G, ((rec.subgroup, rec.psi_h, None)
                                      for rec in records if rec.is_violation)))


def build_counterexample(spec: CounterexampleSpec) -> tuple[FiniteGroup, Subgroup]:
    """The group/subgroup pair whose psi ratio is the closed-form value > 1."""
    spec.validate()
    frob = group_core.frobenius_field(2, spec.r)
    comp_gen = frob.encode(0, 1)
    if not spec.q:
        H = generate(frob, [comp_gen])
        return frob, H
    G = group_core.direct_product([frob, CyclicGroup(spec.q)])
    gens = [G.encode((comp_gen, 0)), G.encode((0, 1))]
    H = generate(G, gens)
    return G, H


@dataclass(frozen=True)
class BijectionResult:
    exists: bool
    # on success: bijection as a list f with f[x] = image encoding in C_n
    witness: tuple[int, ...] | None = None
    # on failure: Hall-violating multiset of relative-order values on the
    # group side, with the (smaller) reachable multiset on the cyclic side
    deficient_values: dict[int, int] | None = None
    neighborhood_values: dict[int, int] | None = None

    def deficiency(self) -> int:
        if self.exists:
            return 0
        return sum(self.deficient_values.values()) - sum(self.neighborhood_values.values())


def _check_bijection_order(n: int) -> None:
    """Raise ValueError for a group order above the bijection cap."""
    if n > BIJECTION_CAP:
        raise ValueError(f"bijection decision capped at order {BIJECTION_CAP}")


def bijection_exists(G: FiniteGroup, H: Subgroup) -> BijectionResult:
    """Decide whether G maps bijectively onto C_n so that each element's
    relative order (over H) divides its image's relative order (over the
    order-|H| subgroup of C_n).

    Works on the multiset of relative-order values: edges depend only on the
    value pair, so a capacitated matching between value buckets decides the
    element-level question and inflates back to an explicit bijection.
    """
    n = G.order
    _check_bijection_order(n)
    rel = relative_orders(G, H)
    # in C_n, the unique subgroup of order |H| is the multiples of q = n/|H|
    # and the relative order of k is q / gcd(q, k), the order of k mod q in C_q
    cyclic_rel = np.tile(cyclic_orders(n // H.order), H.order)
    left_vals, left_counts = (a.tolist() for a in np.unique(rel, return_counts=True))
    right_vals, right_counts = (a.tolist() for a in np.unique(cyclic_rel, return_counts=True))
    # nodes: source 0, left bucket i at 1 + i, right bucket j at right + j, sink
    right = 1 + len(left_vals)
    sink = right + len(right_vals)
    flow = MaxFlow(sink + 1)
    for i, count in enumerate(left_counts):
        flow.add_edge(0, 1 + i, count)
    for j, count in enumerate(right_counts):
        flow.add_edge(right + j, sink, count)
    for i, v in enumerate(left_vals):
        for j, w in enumerate(right_vals):
            if w % v == 0:
                flow.add_edge(1 + i, right + j, n)
    if flow.max_flow(0, sink) == n:
        # the elements of each left bucket, ascending, take its right buckets
        # from the largest value down; right nodes ascend with their values, so
        # sorting by node sorts by value, and the elements sent to one value
        # take its C_n elements in ascending order on both sides
        target = np.empty(n, dtype=np.int64)
        for i, v in enumerate(left_vals):
            nodes, flows = np.array(flow.flow_on_edges(1 + i)[::-1]).T
            target[rel == v] = np.repeat(nodes, flows)
        witness = np.empty(n, dtype=np.int64)
        witness[np.argsort(target, kind="stable")] = np.argsort(cyclic_rel, kind="stable")
        return BijectionResult(exists=True, witness=tuple(witness.tolist()))
    reachable = flow.min_cut_reachable(0)
    deficient = {v: c for i, (v, c) in enumerate(zip(left_vals, left_counts)) if 1 + i in reachable}
    neighborhood = {w: c for j, (w, c) in enumerate(zip(right_vals, right_counts))
                    if right + j in reachable}
    return BijectionResult(exists=False, deficient_values=deficient, neighborhood_values=neighborhood)


def check_bijection(G: FiniteGroup, H: Subgroup, result: BijectionResult) -> str | None:
    """Check a decision of `bijection_exists` without the flow; return what
    fails, or None. A witness must be a permutation of C_n in which each
    element's relative order over H divides its image's, q / gcd(q, k) for
    q = [G:H]. A deficiency must give the relative-order counts of its
    values, and the C_n counts of exactly the values that some deficient
    value divides, and the first total must exceed the second (Hall)."""
    n = G.order
    q = n // H.order
    rel = relative_orders(G, H)
    cyclic_rel = q // np.gcd(q, np.arange(n))
    if result.exists:
        witness = np.asarray(result.witness, dtype=np.int64)
        if witness.shape != (n,) or not np.array_equal(np.sort(witness), np.arange(n)):
            return "the witness is not a permutation of C_n"
        bad = np.flatnonzero(cyclic_rel[witness] % rel)
        if bad.size:
            x = int(bad[0])
            return (f"element {x} of relative order {rel[x]} maps to {int(witness[x])}, "
                    f"of relative order {cyclic_rel[witness[x]]}")
        return None
    left, right = Counter(rel.tolist()), Counter(cyclic_rel.tolist())
    deficient = result.deficient_values
    if deficient != {v: left[v] for v in deficient}:
        return f"the deficient values {deficient} do not count the relative orders"
    reached = {w: c for w, c in right.items() if any(w % v == 0 for v in deficient)}
    if result.neighborhood_values != reached:
        return (f"the reachable values {result.neighborhood_values} are not those "
                "divisible by a deficient value")
    if sum(deficient.values()) <= sum(reached.values()):
        return f"the deficient values {deficient} are not more than the values they reach {reached}"
    return None


@dataclass
class GroupScanResult:
    group: str
    group_order: int
    nilpotent: bool
    solvable: bool
    cyclic: bool
    psi_value: int
    psi_cyclic_value: int
    records: list[ViolationRecord]

    @cached_property
    def violations(self) -> list[ViolationRecord]:
        return [rec for rec in self.records if rec.is_violation]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "group_order": self.group_order,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
            "cyclic": self.cyclic,
            "psi": str(self.psi_value),
            "psi_cyclic": str(self.psi_cyclic_value),
            "violations": [rec.to_json_dict() for rec in self.violations],
            "subgroup_count": len(self.records),
            "error": None,  # a group that fails is in CatalogReport.errors instead
        }


@dataclass
class CatalogReport:
    results: list[GroupScanResult] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def flagged_groups(self) -> list[str]:
        return [r.group for r in self.results if r.violations]

    def to_json_dict(self) -> dict:
        return {
            "groups_scanned": len(self.results),
            "total_violations": self.total_violations,
            "flagged_groups": self.flagged_groups,
            "errors": [{"group": g, "error": e} for g, e in self.errors],
            "results": [r.to_json_dict() for r in self.results],
        }


def scan_catalog(groups) -> CatalogReport:
    """Scan every group: classification flags, the plain order-sum comparison
    against C_n, and the per-subgroup ratio records. Per-group failures are
    collected and the scan continues; so is what `scan_mismatch` finds, in
    place of the group's result."""
    report = CatalogReport()
    for G in sorted(groups, key=lambda g: (g.order, g.name)):
        try:
            records = subgroup_ratio_scan(G)
            problem = scan_mismatch(G, records)
            if problem is not None:
                report.errors.append((G.name, f"MISMATCH: {problem}"))
                continue
            # records[0] is the trivial subgroup's: it carries the flags, and
            # psi of G and of C_n are its psi_H and cyclic reference
            trivial = records[0]
            result = GroupScanResult(
                group=G.name,
                group_order=G.order,
                nilpotent=trivial.nilpotent,
                solvable=trivial.solvable,
                cyclic=G.is_cyclic(),
                psi_value=trivial.psi_h,
                psi_cyclic_value=trivial.cyclic_reference,
                records=records,
            )
            report.results.append(result)
        except Exception as exc:  # noqa: BLE001 - collected per contract
            report.errors.append((G.name, f"{type(exc).__name__}: {exc}"))
    return report


def frobenius_ratio_table(r_max: int):
    """Rows (r, exact ratio, 2^r-1 prime?, ratio < 3/2?) for r = 3..r_max."""
    if not 3 <= r_max <= RATIO_TABLE_CAP:
        raise ValueError(f"need 3 <= r_max <= {RATIO_TABLE_CAP}, got {r_max}")
    rows = []
    for r in range(3, r_max + 1):
        ratio = frobenius_ratio_closed_form(r)
        rows.append((r, ratio, is_mersenne_exponent(r), ratio < Fraction(3, 2)))
    return rows


def default_catalog(max_order: int = 64, include_frobenius: bool = False) -> list[FiniteGroup]:
    """Deterministic sample of groups reachable from the named constructors.

    Not an isomorphism-complete census: cyclic groups of every order, the
    non-cyclic abelian groups up to order 32, dihedral groups, small symmetric
    and alternating groups, the quaternion group, and a few direct products.
    The two smallest affine Frobenius field groups join only on request,
    since they are designed to be flagged by the scan.
    """
    groups: list[FiniteGroup] = []
    for n in range(1, max_order + 1):
        groups.append(CyclicGroup(n))
    for n in range(4, min(max_order, 32) + 1):
        # one partition of each prime's exponent; cyclic when all have one part
        primes = factorize(n)
        for parts in itertools.product(*(_partitions(a, a) for _, a in primes)):
            if any(len(exponents) > 1 for exponents in parts):
                type_map = {p: exponents for (p, _), exponents in zip(primes, parts)}
                groups.append(group_core.abelian_of_type(type_map))
    for n in range(3, 13):
        if 2 * n <= max_order:
            groups.append(group_core.dihedral(n))
    if max_order >= 6:
        groups.append(group_core.symmetric(3))
    if max_order >= 24:
        groups.append(group_core.symmetric(4))
    if max_order >= 12:
        groups.append(group_core.alternating(4))
    if max_order >= 60:
        groups.append(group_core.alternating(5))
    if max_order >= 8:
        groups.append(group_core.quaternion8())
    if max_order >= 18:
        groups.append(group_core.direct_product([group_core.symmetric(3), CyclicGroup(3)]))
    if max_order >= 24:
        groups.append(group_core.direct_product([group_core.quaternion8(), CyclicGroup(3)]))
    if include_frobenius:
        if max_order >= 56:
            groups.append(group_core.frobenius_field(2, 3))
        if max_order >= 72:
            groups.append(group_core.frobenius_field(3, 2))
    return groups


def _partitions(a: int, most: int):
    """The partitions of a into parts of at most ``most``, each a descending
    tuple, in descending lexicographic order."""
    if a == 0:
        yield ()
    for part in range(min(a, most), 0, -1):
        for rest in _partitions(a - part, part):
            yield (part,) + rest
