"""Claim-level harness: subgroup ratio scans, the Frobenius counterexample
pipeline, the order-divisibility bijection decision, and catalog sweeps."""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import group_core
from .classify import is_nilpotent, is_solvable
from .group_core import CyclicGroup, FiniteGroup
from .numtheory import (
    factorize,
    frobenius_ratio_closed_form,
    is_mersenne_exponent,
    is_prime,
    psi_cyclic,
)
from .order_sums import (
    cyclic_orders,
    cyclic_reference,
    lattice_order_sums,
    psi,
    rational_json,
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
    "build_counterexample",
    "bijection_exists",
    "check_bijection",
    "scan_catalog",
    "frobenius_ratio_table",
    "default_catalog",
]

_BIJECTION_CAP = 10_000


@dataclass(frozen=True)
class ViolationRecord:
    """Outcome of comparing one subgroup against its cyclic reference."""

    group: str
    group_order: int
    subgroup_order: int
    subgroup_generators: tuple[int, ...]
    psi_h: int
    cyclic_reference: int
    nilpotent: bool
    solvable: bool

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
            "subgroup_order": self.subgroup_order,
            "subgroup_generators": list(self.subgroup_generators),
            "psi_h": str(self.psi_h),
            "cyclic_reference": str(self.cyclic_reference),
            "ratio": rational_json(self.ratio),
            "is_violation": self.is_violation,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
        }


def subgroup_ratio_scan(G: FiniteGroup) -> list[ViolationRecord]:
    """One record per subgroup of G, with the exact ratio against the cyclic
    reference and a violation flag where the ratio exceeds 1."""
    nilpotent = is_nilpotent(G)
    # nilpotent groups are solvable, so their derived series is not needed
    solvable = nilpotent or is_solvable(G)
    subgroups = all_subgroups(G)
    sums, _ = lattice_order_sums(G, subgroups)
    references = {m: cyclic_reference(G.order, m) for m in {H.order for H in subgroups}}
    records = []
    for H, value in zip(subgroups, sums):
        records.append(
            ViolationRecord(
                group=G.name,
                group_order=G.order,
                subgroup_order=H.order,
                subgroup_generators=H.generators,
                psi_h=value,
                cyclic_reference=references[H.order],
                nilpotent=nilpotent,
                solvable=solvable,
            )
        )
    return records


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the Frobenius counterexample family: the group is the
    affine group over GF(2^r) (2^r - 1 prime), optionally crossed with C_q
    for an odd prime q not dividing 2^r - 1."""

    r: int
    q: int = 0

    def validate(self) -> None:
        """Raise ValueError unless 2^r - 1 is prime and q a valid cofactor.
        An r whose psi_H has more decimal digits than Python will convert
        to a string is refused first, before any primality test."""
        if self.r < 3:
            raise ValueError(f"need r >= 3, got {self.r}")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # psi_H >= M^3 >= 2^(3r - 3), so a large r is refused before psi_H is multiplied out
        if limit and (3 * self.r - 3 >= (10 ** limit).bit_length() or self.psi_h >= 10 ** limit):
            raise ValueError(f"psi_H for r = {self.r} has more than {limit} digits, "
                             "the most Python converts to a decimal string")
        if not is_mersenne_exponent(self.r):
            raise ValueError(f"2^{self.r}-1 is not prime")
        if self.q:
            if self.q % 2 == 0:
                raise ValueError(f"cofactor q must be odd, got {self.q}")
            if not is_prime(self.q):
                raise ValueError(f"cofactor q must be prime, got {self.q}")
            if (2 ** self.r - 1) % self.q == 0:
                raise ValueError(f"cofactor q = {self.q} divides 2^{self.r}-1")

    @property
    def group_order(self) -> int:
        n = 2 ** self.r * (2 ** self.r - 1)
        return n * self.q if self.q else n

    @property
    def subgroup_order(self) -> int:
        m = 2 ** self.r - 1
        return m * self.q if self.q else m

    @property
    def psi_h(self) -> int:
        """The closed form psi_relative_frobenius_formula(2, r) * q, which is
        M * (M^2 - M + 3) * q for the prime M = 2^r - 1, since
        psi_cyclic(M) = M^2 - M + 1; it needs no second primality proof."""
        m = 2 ** self.r - 1
        return m * (m * m - m + 3) * (self.q or 1)


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


def bijection_exists(G: FiniteGroup, H: Subgroup) -> BijectionResult:
    """Decide whether G maps bijectively onto C_n so that each element's
    relative order (over H) divides its image's relative order (over the
    order-|H| subgroup of C_n).

    Works on the multiset of relative-order values: edges depend only on the
    value pair, so a capacitated matching between value buckets decides the
    element-level question and inflates back to an explicit bijection.
    """
    n = G.order
    if n > _BIJECTION_CAP:
        raise ValueError(f"bijection decision capped at order {_BIJECTION_CAP}")
    left_of = relative_orders(G, H).tolist()
    left = Counter(left_of)
    # in C_n, the unique subgroup of order |H| is the multiples of q = n/|H|
    # and the relative order of k is q / gcd(q, k), the order of k mod q in
    # C_q; each value's pool of C_n elements is kept descending, so pop()
    # yields them ascending
    cyclic_rel = np.tile(cyclic_orders(n // H.order), H.order)
    pools = {int(w): np.flatnonzero(cyclic_rel == w)[::-1].tolist() for w in np.unique(cyclic_rel)}
    right = {w: len(pool) for w, pool in pools.items()}
    left_vals = sorted(left)
    right_vals = sorted(right)
    # nodes: source, left buckets, right buckets, sink
    source = 0
    sink = 1 + len(left_vals) + len(right_vals)
    flow = MaxFlow(sink + 1)
    left_node = {v: 1 + i for i, v in enumerate(left_vals)}
    right_node = {v: 1 + len(left_vals) + i for i, v in enumerate(right_vals)}
    for v in left_vals:
        flow.add_edge(source, left_node[v], left[v])
    for w in right_vals:
        flow.add_edge(right_node[w], sink, right[w])
    for v in left_vals:
        for w in right_vals:
            if w % v == 0:
                flow.add_edge(left_node[v], right_node[w], n)
    total = flow.max_flow(source, sink)
    if total == n:
        witness = _inflate_witness(left_of, flow, left_node, right_node, pools)
        return BijectionResult(exists=True, witness=witness)
    reachable = flow.min_cut_reachable(source)
    deficient = {v: left[v] for v in left_vals if left_node[v] in reachable}
    neighborhood = {w: right[w] for w in right_vals if right_node[w] in reachable}
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


def _inflate_witness(left_of, flow, left_node, right_node, pools):
    node_to_right = {node: w for w, node in right_node.items()}
    # per left value, the list of (right value, remaining flow)
    assignments: dict[int, list[list[int]]] = {}
    for v, node in left_node.items():
        assignments[v] = [[node_to_right[t], f] for t, f in flow.flow_on_edges(node)]
    out = []
    for v in left_of:
        slots = assignments[v]
        w, remaining = slots[-1][0], slots[-1][1]
        out.append(pools[w].pop())
        if remaining == 1:
            slots.pop()
        else:
            slots[-1][1] = remaining - 1
    return tuple(out)


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
    collected and the scan continues."""
    report = CatalogReport()
    for G in sorted(groups, key=lambda g: (g.order, g.name)):
        try:
            records = subgroup_ratio_scan(G)
            # every group has the trivial subgroup, so records carry the flags
            nilpotent, solvable = records[0].nilpotent, records[0].solvable
            result = GroupScanResult(
                group=G.name,
                group_order=G.order,
                nilpotent=nilpotent,
                solvable=solvable,
                cyclic=G.is_cyclic(),
                psi_value=psi(G),
                psi_cyclic_value=psi_cyclic(G.order),
                records=records,
            )
            report.results.append(result)
        except Exception as exc:  # noqa: BLE001 - collected per contract
            report.errors.append((G.name, f"{type(exc).__name__}: {exc}"))
    return report


def frobenius_ratio_table(r_max: int):
    """Rows (r, exact ratio, 2^r-1 prime?, ratio < 3/2?) for r = 3..r_max."""
    if not 3 <= r_max <= 64:
        raise ValueError(f"need 3 <= r_max <= 64, got {r_max}")
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
