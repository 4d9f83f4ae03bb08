"""Acceptance suite: one test per headline criterion, each printing a
PASS line with the quantity it checked (run with ``pytest -s`` to see them)."""

import time
from fractions import Fraction
from math import gcd

import relpsi.group_core as gc
from relpsi.classify import is_nilpotent
from relpsi.numtheory import (
    frobenius_ratio_closed_form,
    index_ratio_bound,
    is_prime,
    psi_cyclic,
    psi_cyclic_lower_bound,
)
from relpsi.order_sums import (
    cyclic_reference,
    psi,
    psi_ratio,
    psi_relative,
    psi_relative_frobenius_formula,
    psi_relative_upper_bound,
    ratio_bounds_for_index,
    relative_orders,
)
from relpsi.subgroup_lattice import generate, is_isolated, is_normal, quotient
from relpsi.subgroup_lattice import conjugates_intersect_trivially
from relpsi.verify import (
    CounterexampleSpec,
    bijection_exists,
    build_counterexample,
)
from reference import element_order


def _pass(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def complement_subgroup(G):
    return generate(G, [G.encode(0, 1)])


def test_criterion_01_headline_ratio():
    started = time.monotonic()
    G = gc.frobenius_field(2, 3)
    H = complement_subgroup(G)
    assert G.order == 56
    brute = psi_relative(G, H)
    assert brute == 315 == psi_relative_frobenius_formula(2, 3)
    assert psi_ratio(G, H) == Fraction(45, 43) == frobenius_ratio_closed_form(3)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _pass(1, f"ratio 45/43, brute-force psi_H = 315 over order 56, {elapsed:.3f}s")


def test_criterion_02_closed_form_equals_brute_force():
    for r, budget in [(3, 5.0), (5, 5.0), (7, 60.0)]:
        started = time.monotonic()
        G = gc.frobenius_field(2, r)
        H = complement_subgroup(G)
        value = psi_relative(G, H)
        ratio = Fraction(value, cyclic_reference(G.order, H.order))
        assert ratio == frobenius_ratio_closed_form(r)
        elapsed = time.monotonic() - started
        assert elapsed < budget
        _pass(2, f"r={r}: brute-force ratio equals closed form over order {G.order}, {elapsed:.1f}s")


def test_criterion_03_infinitude_pipeline():
    for q in (3, 5, 11):
        spec = CounterexampleSpec(3, q)
        G, H = build_counterexample(spec)
        if q == 3:
            assert G.order == 168
            assert psi_ratio(G, H) == Fraction(45, 43)  # brute force over 168 elements
        else:
            value = psi_relative_frobenius_formula(2, 3) * q
            assert Fraction(value, cyclic_reference(G.order, H.order)) == Fraction(45, 43)
    _pass(3, "r=3 with q in {3,5,11} all give ratio 45/43; q=3 confirmed by brute force")


def test_criterion_04_monotonicity_and_limit():
    values = [frobenius_ratio_closed_form(r) for r in range(3, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(Fraction(1) < v < Fraction(3, 2) for v in values)
    _pass(4, "closed-form ratio strictly increasing on r in [3,20], all in (1, 3/2)")


def test_criterion_05_cyclic_formula_and_lower_bound():
    for n in range(1, 1001):
        assert psi_cyclic(n) == sum(n // gcd(n, k) for k in range(n))
    for n in range(2, 10001):
        assert psi_cyclic(n) >= psi_cyclic_lower_bound(n)
    _pass(5, "closed form matches element-wise sums (n <= 1000); lower bound holds (n <= 10000)")


def test_criterion_06_normal_subgroup_identity(catalog_subgroups_64):
    checked = 0
    for G, subs in catalog_subgroups_64:
        for K in subs:
            if not is_normal(G, K):
                continue
            assert psi_relative(G, K) == K.order * psi(quotient(G, K))
            checked += 1
    _pass(6, f"psi_K(G) = |K| psi(G/K) for {checked} normal subgroups (n <= 64)")


def test_criterion_07_index_bounds(catalog_subgroups):
    pairs = prime_index = 0
    for G, subs in catalog_subgroups:
        for H in subs:
            m, q = H.order, H.index
            orders = relative_orders(G, H)
            assert orders.max() <= q
            value = int(orders.sum())
            assert value <= psi_relative_upper_bound(m, q)
            if q > 1 and is_prime(q):
                assert value <= m * psi_cyclic(q) == m * (q * q - q + 1)
                prime_index += 1
            pairs += 1
    _pass(7, f"relative orders <= index and quadratic bound on {pairs} pairs "
             f"({prime_index} with prime index), n <= 100")


def test_criterion_08_nilpotent_scan_and_global_maximality(catalog_subgroups):
    nilpotent_pairs = 0
    for G, subs in catalog_subgroups:
        n = G.order
        value = psi(G)
        assert value <= psi_cyclic(n)
        assert (value == psi_cyclic(n)) == G.is_cyclic()
        if n <= 64 and is_nilpotent(G):
            for H in subs:
                assert psi_relative(G, H) <= cyclic_reference(n, H.order)
                nilpotent_pairs += 1
    _pass(8, f"zero violations over {nilpotent_pairs} nilpotent pairs (n <= 64); "
             "psi(G) <= psi(C_n) with equality iff cyclic (n <= 100)")


def test_criterion_09_isolated_characterization(catalog_subgroups_64):
    checked = 0
    for G, subs in catalog_subgroups_64:
        psi_g = psi(G)
        for H in subs:
            psi_h = sum(element_order(G, h) for h in H.elements())
            identity_holds = psi_relative(G, H) == H.order + psi_g - psi_h
            assert is_isolated(G, H) == identity_holds
            checked += 1
    for r in (3, 5):
        G = gc.frobenius_field(2, r)
        H = complement_subgroup(G)
        assert is_isolated(G, H)
        assert conjugates_intersect_trivially(G, H)
    _pass(9, f"isolation <=> order-sum identity on {checked} pairs (n <= 64); "
             "Frobenius complements for r=3,5 isolated and malnormal")


def test_criterion_10_bijection_question(catalog_subgroups_64):
    G = gc.frobenius_field(2, 3)
    H = complement_subgroup(G)
    assert not bijection_exists(G, H).exists
    nilpotent_pairs = implication_pairs = 0
    for G, subs in catalog_subgroups_64:
        nil = is_nilpotent(G)
        for H in subs:
            res = bijection_exists(G, H)
            if nil:
                assert res.exists
                nilpotent_pairs += 1
            if psi_ratio(G, H) > 1:
                assert not res.exists
            implication_pairs += 1
    _pass(10, f"no bijection for the order-56 Frobenius complement; bijection exists on "
              f"{nilpotent_pairs} nilpotent pairs; ratio>1 => no bijection over "
              f"{implication_pairs} pairs")


def test_criterion_11_index_ratio_envelope():
    values = [index_ratio_bound(3 * 2 ** a) for a in range(1, 16)]
    limit = Fraction(27, 14)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert limit - values[-1] < Fraction(1, 10_000)
    assert values[-1] < limit
    crossings = [a for a, v in zip(range(1, 16), values) if v > Fraction(3, 2)]
    assert crossings[0] == 2  # first crossing, frozen for stability
    assert crossings == list(range(2, 16))
    _pass(11, "f(3*2^a) strictly increasing for a in [1,15], within 1e-4 of 27/14 at a=15, "
              "exceeds 3/2 from a=2 on")


def test_criterion_12_index_prime_bounds(catalog_subgroups):
    asserted = 0
    for G, subs in catalog_subgroups:
        for H in subs:
            if H.index < 2:
                continue
            bounds = ratio_bounds_for_index(H.index)
            ratio = Fraction(psi_relative(G, H), cyclic_reference(G.order, H.order))
            assert ratio < bounds.product
            assert ratio < bounds.spread
            asserted += 1
    _pass(12, f"product and spread bounds strict on {asserted} pairs (n <= 100)")
