from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relpsi.group_core as gc
from relpsi.group_core import first_powers_in
from relpsi import numtheory, order_sums
from relpsi.numtheory import psi_cyclic
from relpsi.order_sums import (
    cyclic_orders,
    cyclic_reference,
    lattice_order_sums,
    psi,
    psi_ratio,
    psi_relative,
    psi_relative_frobenius_formula,
    psi_relative_upper_bound,
    ratio_bounds_for_index,
    relative_orders,
)
from relpsi.subgroup_lattice import Subgroup, _closed, all_subgroups, generate
from reference import element_order, relative_order, relative_order_by_cyclic_intersection


def frobenius_complement(G):
    return generate(G, [G.encode(0, 1)])


class TestRelativeOrder:
    def test_member_is_one(self):
        G = gc.cyclic(6)
        H = generate(G, [3])
        assert relative_orders(G, H)[3] == 1 == relative_order(G, H, 3)

    def test_c6_mod_order2(self):
        G = gc.cyclic(6)
        H = generate(G, [3])  # {0, 3}
        assert relative_orders(G, H)[2] == 3 == relative_order(G, H, 2)

    def test_c6_mod_order3(self):
        G = gc.cyclic(6)
        H = generate(G, [2])  # {0, 2, 4}
        assert relative_orders(G, H)[3] == 2 == relative_order(G, H, 3)

    def test_bounded_by_index_and_matches_oracle(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            for H in subs:
                for x in G.elements():
                    m = relative_order(G, H, x)
                    assert m <= H.index
                    assert m == relative_order_by_cyclic_intersection(G, H, x)

    def test_non_subgroup_fails_fast(self):
        # {2, 4} misses the identity of C6: no power of 3 ever lands in it,
        # so the loop must stop at the index instead of running forever; the
        # set is built unchecked, as the public constructor refuses it
        G = gc.cyclic(6)
        H = _closed(G, frozenset({2, 4}))
        with pytest.raises(ValueError, match="do not form a subgroup"):
            relative_order(G, H, 3)
        with pytest.raises(ValueError, match="do not form a subgroup"):
            relative_orders(G, H)

    def test_first_hit_beyond_the_index_fails(self):
        # {0, 1, 2, 3} has index 2 in C8, but 6 first lands in it at 6^3 = 2
        G = gc.cyclic(8)
        H = _closed(G, frozenset({0, 1, 2, 3}))
        with pytest.raises(ValueError, match="do not form a subgroup"):
            relative_orders(G, H)

    def test_public_constructor_rejects_non_subgroup(self):
        # unchecked, {2, 4} gives relative order 2 to the element 1, a wrong number
        G = gc.cyclic(6)
        with pytest.raises(ValueError, match="identity"):
            Subgroup(G, {2, 4})

    def test_vectorised_pass_matches_oracle(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            for H in subs:
                expected = [relative_order_by_cyclic_intersection(G, H, x) for x in G.elements()]
                assert relative_orders(G, H).tolist() == expected

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.dihedral(60),
    ], ids=["S5", "D60"])
    def test_power_table_pass_matches_first_powers_in(self, make):
        # element by element: the first row of the power table whose entry in
        # column x lies in H, the read lattice_order_sums makes, against the
        # first_powers_in pass behind relative_orders
        G = make()
        powers = G.power_table()
        for H in all_subgroups(G):
            expected = H.mask()[powers].argmax(axis=0) + 1
            assert relative_orders(G, H).tolist() == expected.tolist(), H

    def test_vectorised_pass_above_table_cap(self):
        G = gc.direct_product([gc.frobenius_field(2, 5), gc.cyclic(7)])
        H = generate(G, [G.encode((1, 0)), G.encode((0, 1))])
        rel = relative_orders(G, H)
        for x in range(0, G.order, 97):
            assert rel[x] == relative_order(G, H, x)

    def test_wrong_parent_rejected(self):
        G, other = gc.cyclic(6), gc.cyclic(12)
        H = generate(other, [6])
        with pytest.raises(ValueError, match="does not belong"):
            relative_orders(G, H)


def perm(G, cycles):
    """Encoding of the permutation of [0, G.degree) with these cycles."""
    image = list(range(G.degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return G._index[tuple(image)]


def above_cap_cases():
    """(label, G, H, sampled elements) above the table cap. Frob(2,7) over
    its complement and its kernel steps through 2, 4, ..., 64, 127; S7 over
    a point stabiliser (index 7) through every divisor up to 7; S8 over a
    7-cycle (index 5760) through its divisors up to 15, the largest element
    order."""
    F, S7, S8 = gc.frobenius_field(2, 7), gc.symmetric(7), gc.symmetric(8)
    stabiliser = generate(S7, [perm(S7, [(0, 1)]), perm(S7, [(0, 1, 2, 3, 4, 5)])])
    return [
        ("Frob(2,7)/complement", F, frobenius_complement(F), range(0, F.order, 61)),
        ("Frob(2,7)/kernel", F, generate(F, F.kernel_elements()), range(5, F.order, 67)),
        ("S7/stabiliser", S7, stabiliser, range(0, S7.order, 17)),
        ("S8/7-cycle", S8, generate(S8, [perm(S8, [(0, 1, 2, 3, 4, 5, 6)])]), range(3, S8.order, 131)),
    ]


class TestDivisorSteps:
    """`first_powers_in`, which is `relative_orders` and, above the table
    cap, `element_orders`, steps only through divisors of |G| up to the
    index, in blocks; checked here against the scalar walks of reference.py."""

    def test_matches_reference_above_table_cap(self, monkeypatch):
        # then again in blocks of 128 elements, on fresh groups: every array
        # must equal the one-block pass
        one_block = []
        for label, G, H, sample in above_cap_cases():
            assert G.order > gc.TABLE_CAP
            rel, orders = relative_orders(G, H), G.element_orders()
            assert [int(rel[x]) for x in sample] == [relative_order(G, H, x) for x in sample], label
            assert [int(orders[x]) for x in sample] == [element_order(G, x) for x in sample], label
            one_block.append((rel.tolist(), orders.tolist()))
        monkeypatch.setattr(gc, "_BLOCK", 1 << 12)
        for (label, G, H, _), (rel, orders) in zip(above_cap_cases(), one_block):
            assert relative_orders(G, H).tolist() == rel, label
            assert G.element_orders().tolist() == orders, label

    def test_steps_for_the_frobenius_complement(self, monkeypatch):
        # a step per m up to the index took 126 products for Frob(2,7)
        G = gc.frobenius_field(2, 7)
        H = frobenius_complement(G)
        calls = []
        product = G.multiply_array
        monkeypatch.setattr(G, "multiply_array", lambda x, y: calls.append(1) or product(x, y))
        assert psi_relative(G, H) == psi_relative_frobenius_formula(2, 7)
        assert len(calls) <= 20


def per_subgroup_sums(G, subgroups):
    """Each subgroup's sum and largest relative order from its own
    `first_powers_in` pass, which is what `relative_orders` returns."""
    rels = [first_powers_in(G, H.mask()) for H in subgroups]
    return [int(rel.sum()) for rel in rels], [int(rel.max()) for rel in rels]


def frobenius_subgroups(G):
    """The complement, the kernel and the cyclic subgroups of a spread of
    elements of an affine Frobenius group, all from `generate`."""
    gens = [[G.encode(0, 1)], G.kernel_elements()] + [[x] for x in range(0, G.order, 31)]
    return [generate(G, g) for g in gens]


class TestLatticeOrderSums:
    def test_matches_relative_orders_on_catalog(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            assert lattice_order_sums(G, subs) == per_subgroup_sums(G, subs), G.name

    @pytest.mark.parametrize("make, subgroups", [
        (lambda: gc.symmetric(5), all_subgroups),
        (lambda: gc.dihedral(60), all_subgroups),
        (lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]), all_subgroups),
        (lambda: gc.frobenius_field(3, 2), all_subgroups),
        (lambda: gc.frobenius_field(2, 5), frobenius_subgroups),
    ], ids=["S5", "D60", "Frob(2,3)xC3", "Frob(3,2)", "Frob(2,5)"])
    def test_matches_relative_orders(self, make, subgroups):
        # Frob(2,5), of order 992, is above the lattice cap
        G = make()
        subs = subgroups(G)
        assert lattice_order_sums(G, subs) == per_subgroup_sums(G, subs)

    @pytest.mark.parametrize("block", [1 << 14, 1])
    def test_blocks_of_the_gather(self, monkeypatch, block):
        # D60's 180 subgroups against 72 seed columns of 60 powers: 60
        # blocks of 3 subgroups, then one subgroup per block
        G = gc.dihedral(60)
        subs = all_subgroups(G)
        monkeypatch.setattr(order_sums, "_BLOCK", block)
        assert lattice_order_sums(G, subs) == per_subgroup_sums(G, subs)

    def test_wrong_parent_rejected(self):
        G, other = gc.cyclic(6), gc.cyclic(12)
        with pytest.raises(ValueError, match="does not belong"):
            lattice_order_sums(G, [generate(G, [2]), generate(other, [6])])


class TestPsiRelative:
    def test_whole_group(self):
        G = gc.symmetric(3)
        H = generate(G, list(G.elements()))
        assert psi_relative(G, H) == 6

    def test_c6_over_order3(self):
        G = gc.cyclic(6)
        H = generate(G, [2])
        assert psi_relative(G, H) == 9 == H.order * psi_cyclic(2)

    def test_frobenius_complement_brute(self):
        G = gc.frobenius_field(2, 3)
        assert psi_relative(G, frobenius_complement(G)) == 315

    def test_budget_error(self):
        class Fake(gc.FiniteGroup):
            order = 1 << 25

        H = generate(gc.cyclic(2), [])
        with pytest.raises(ValueError, match="budget"):
            psi_relative(Fake(), H)


class TestPsi:
    def test_trivial(self):
        assert psi(gc.cyclic(1)) == 1

    def test_s3(self):
        assert psi(gc.symmetric(3)) == 13

    def test_cyclic_matches_closed_form(self):
        for n in range(1, 301):
            assert psi(gc.cyclic(n)) == psi_cyclic(n)

    def test_equals_relative_over_trivial_subgroup(self):
        for G in [gc.symmetric(4), gc.quaternion8(), gc.frobenius_field(2, 3)]:
            assert psi(G) == psi_relative(G, generate(G, []))


class TestCyclicOrders:
    """The divisor sieve against the gcd formula n // gcd(n, k)."""

    def test_every_n_up_to_2000(self):
        for n in range(1, 2001):
            assert np.array_equal(cyclic_orders(n), n // np.gcd(n, np.arange(n))), n

    @pytest.mark.parametrize("n", [510510, 524288, 531441, 720720, 999983, 10 ** 6])
    def test_large_n(self, n):
        orders = cyclic_orders(n)
        assert orders.dtype == np.int32
        assert np.array_equal(orders, n // np.gcd(n, np.arange(n)))

    def test_independent_of_factorize(self, monkeypatch):
        def refuse(n):
            raise AssertionError("factorize called")
        monkeypatch.setattr(numtheory, "factorize", refuse)
        monkeypatch.setattr(order_sums, "factorize", refuse)
        n = 720720
        assert np.array_equal(cyclic_orders(n), n // np.gcd(n, np.arange(n)))

    @pytest.mark.parametrize("n", [0, -3, (1 << 24) + 1])
    def test_out_of_range_refused(self, n):
        with pytest.raises(ValueError, match="need 1 <= n <= 2\\^24"):
            cyclic_orders(n)


class TestPsiRatio:
    def test_cyclic_is_one(self):
        for n in (6, 12, 30):
            G = gc.cyclic(n)
            for H in all_subgroups(G):
                assert psi_ratio(G, H) == 1

    def test_frobenius_headline(self):
        G = gc.frobenius_field(2, 3)
        assert psi_ratio(G, frobenius_complement(G)) == Fraction(45, 43)

    def test_product_with_c3_same_ratio(self):
        frob = gc.frobenius_field(2, 3)
        G = gc.direct_product([frob, gc.cyclic(3)])
        comp_gen = frob.encode(0, 1)
        H = generate(G, [G.encode((comp_gen, 0)), G.encode((0, 1))])
        assert G.order == 168 and H.order == 21
        assert psi_ratio(G, H) == Fraction(45, 43)

    def test_multiplicative_over_coprime_products(self):
        # relative order sums multiply across direct factors of coprime order
        pairs = [
            (gc.symmetric(3), 2),  # order 6 with an order-2 subgroup
            (gc.cyclic(25), 5),
            (gc.quaternion8(), 4),
            (gc.cyclic(7), 7),
        ]
        for (G1, m1) in pairs:
            for (G2, m2) in pairs:
                if G1 is G2 or G1.order * G2.order > 400:
                    continue
                if gcd(G1.order, G2.order) != 1:
                    continue
                H1 = next(H for H in all_subgroups(G1) if H.order == m1)
                H2 = next(H for H in all_subgroups(G2) if H.order == m2)
                G = gc.direct_product([G1, G2])
                gens = [G.encode((g, 0)) for g in H1.generators]
                gens += [G.encode((0, g)) for g in H2.generators]
                H = generate(G, gens)
                assert H.order == m1 * m2
                assert psi_relative(G, H) == psi_relative(G1, H1) * psi_relative(G2, H2)


@pytest.fixture(scope="module")
def coprime_pairs(catalog_subgroups):
    """Pairs of catalog groups, with their subgroups, of coprime orders and
    at most 2000 elements in their direct product."""
    return [(a, b) for a in catalog_subgroups for b in catalog_subgroups
            if gcd(a[0].order, b[0].order) == 1 and a[0].order * b[0].order <= 2000]


class TestMultiplicativity:
    # psi and psi_H multiply across direct factors of coprime order; this is
    # what carries the Frobenius ratio over to Frob x C_q

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_psi(self, coprime_pairs, data):
        (G, _), (K, _) = data.draw(st.sampled_from(coprime_pairs))
        assert psi(gc.direct_product([G, K])) == psi(G) * psi(K)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_psi_relative(self, coprime_pairs, data):
        (G, g_subs), (K, k_subs) = data.draw(st.sampled_from(coprime_pairs))
        H, L = data.draw(st.sampled_from(g_subs)), data.draw(st.sampled_from(k_subs))
        GK = gc.direct_product([G, K])
        HL = Subgroup(GK, [GK.encode((h, l)) for h in H.elements() for l in L.elements()])
        assert psi_relative(GK, HL) == psi_relative(G, H) * psi_relative(K, L)


class TestFrobeniusFormula:
    def test_r3(self):
        assert psi_relative_frobenius_formula(2, 3) == 315

    def test_r5(self):
        assert psi_relative_frobenius_formula(2, 5) == 31 * 933

    def test_p3_r2_matches_brute_force(self):
        G = gc.frobenius_field(3, 2)
        H = frobenius_complement(G)
        value = psi_relative_frobenius_formula(3, 2)
        assert value == 8 * 46 == 368
        assert psi_relative(G, H) == value

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            psi_relative_frobenius_formula(4, 3)
        with pytest.raises(ValueError):
            psi_relative_frobenius_formula(2, 1)


class TestQuadraticBound:
    def test_examples(self):
        assert psi_relative_upper_bound(3, 2) == 9
        assert psi_relative_upper_bound(17, 1) == 17
        assert psi_relative_upper_bound(7, 8) == 399

    def test_attained_by_s3(self):
        S3 = gc.symmetric(3)
        H = next(H for H in all_subgroups(S3) if H.order == 3)
        assert psi_relative(S3, H) == 9

    def test_holds_on_catalog(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            for H in subs:
                assert psi_relative(G, H) <= psi_relative_upper_bound(H.order, H.index)

    def test_prime_index_reference_equality(self, catalog_subgroups):
        # for prime index q the cyclic reference equals m(q^2 - q + 1)
        from relpsi.numtheory import is_prime

        for G, subs in catalog_subgroups:
            for H in subs:
                q = H.index
                if q > 1 and is_prime(q):
                    assert cyclic_reference(G.order, H.order) == H.order * (q * q - q + 1)
                    assert psi_relative(G, H) <= H.order * (q * q - q + 1)


class TestRatioBounds:
    def test_q8(self):
        b = ratio_bounds_for_index(8)
        assert b.product == Fraction(3, 2) and b.spread == Fraction(3, 2)

    def test_q6(self):
        b = ratio_bounds_for_index(6)
        assert b.product == 2 and b.spread == 2

    def test_q2(self):
        b = ratio_bounds_for_index(2)
        assert b.product == b.spread == Fraction(3, 2)

    def test_rejects_index_one(self):
        with pytest.raises(ValueError, match="^index 1 carries no bound claims"):
            ratio_bounds_for_index(1)

    @pytest.mark.parametrize("q", [0, -4])
    def test_rejects_index_below_one_before_factoring(self, monkeypatch, q):
        # factorize refuses 0 and negatives with its own message
        monkeypatch.setattr(order_sums, "factorize", None)
        with pytest.raises(ValueError, match=f"^index {q} carries no bound claims"):
            ratio_bounds_for_index(q)

    def test_bounds_hold_on_catalog(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            for H in subs:
                if H.index < 2:
                    continue
                bounds = ratio_bounds_for_index(H.index)
                ratio = psi_ratio(G, H)
                assert ratio < bounds.product
                assert ratio < bounds.spread
