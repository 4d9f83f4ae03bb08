from collections import Counter

import pytest

import relpsi.group_core as gc
from relpsi.numtheory import factorize
from relpsi.order_sums import lattice_order_sums, psi, psi_ratio, psi_relative, relative_orders
from relpsi.subgroup_lattice import (
    _LATTICE_CAP,
    Subgroup,
    _cyclic_seeds,
    all_subgroups,
    conjugates_intersect_trivially,
    generate,
    is_isolated,
    is_normal,
    quotient,
)
from relpsi.verify import (
    BijectionResult,
    CounterexampleSpec,
    bijection_exists,
    build_counterexample,
    check_bijection,
)
from reference import closure, element_order


def num_divisors(n):
    out = 1
    for _, a in factorize(n):
        out *= a + 1
    return out


class TestGenerate:
    def test_empty_gives_trivial(self):
        H = generate(gc.cyclic(12), [])
        assert H.elements() == (0,)

    def test_c12_order3(self):
        H = generate(gc.cyclic(12), [4])
        assert H.elements() == (0, 4, 8)

    def test_s3_full(self):
        S3 = gc.symmetric(3)
        transposition = next(x for x in S3.elements() if element_order(S3, x) == 2)
        three_cycle = next(x for x in S3.elements() if element_order(S3, x) == 3)
        H = generate(S3, [transposition, three_cycle])
        assert H.order == 6

    def test_invalid_encoding(self):
        with pytest.raises(ValueError):
            generate(gc.cyclic(4), [7])

    def test_group_above_closure_cap_is_refused(self):
        class Huge(gc.FiniteGroup):
            order = (1 << 24) + 1
            name = "huge"

        with pytest.raises(ValueError, match="capped at group order 2"):
            generate(Huge(), [1])


def frobenius_with_cofactor(r, q):
    return gc.direct_product([gc.frobenius_field(2, r), gc.cyclic(q)])


class TestGenerateAboveTableCap:
    @pytest.mark.parametrize("make, gens", [
        (lambda: gc.frobenius_field(2, 7), lambda G: [G.encode(0, 1)]),
        (lambda: gc.frobenius_field(2, 7), lambda G: [G.encode(1, 0), G.encode(5, 3)]),
        (lambda: frobenius_with_cofactor(5, 7), lambda G: [G.encode((1, 0))]),
        (lambda: frobenius_with_cofactor(5, 7), lambda G: [G.encode((1, 0)), G.encode((0, 1))]),
        (lambda: gc.symmetric(7), lambda G: [G.order - 1]),
        (lambda: gc.symmetric(7), lambda G: [1, G.order - 1]),
    ], ids=["Frob(2,7)-1", "Frob(2,7)-2", "Frob(2,5)xC7-1", "Frob(2,5)xC7-2", "S7-1", "S7-2"])
    def test_matches_scalar_closure(self, make, gens):
        G = make()
        assert G.order > gc.TABLE_CAP
        gens = gens(G)
        H = generate(G, gens)
        assert H.members == closure(G, gens)
        assert H.generators == tuple(sorted(gens))
        assert not G.tabulated

    def test_counterexample_makes_no_scalar_multiply(self, monkeypatch):
        calls = []
        for cls in (gc.CyclicGroup, gc.PermutationGroup, gc.CayleyTableGroup,
                    gc.FrobeniusFieldGroup, gc.DirectProductGroup):
            def counted(self, a, b, _multiply=cls.multiply):
                calls.append(type(self).__name__)
                return _multiply(self, a, b)
            monkeypatch.setattr(cls, "multiply", counted)
        G, H = build_counterexample(CounterexampleSpec(5, 7))
        assert G.order > gc.TABLE_CAP
        assert H.order == 31 * 7
        assert calls == []


class TestSubgroupConstructor:
    def test_generators_are_not_accepted(self):
        # 1 neither lies in nor generates {0, 2, 4}; the constructor cannot
        # be told otherwise
        with pytest.raises(TypeError):
            Subgroup(gc.cyclic(6), {0, 2, 4}, generators=(1,))

    def test_members_alone_give_no_generators(self):
        assert Subgroup(gc.cyclic(6), {0, 2, 4}).generators == ()

    @pytest.mark.parametrize("members, message", [
        ({2, 4}, "misses the identity"),
        ({0, 6}, "outside the encodings"),
        ({0, 1, 2, 3}, "does not divide"),
        # the product check alone rejects a set whose inverses are missing
        ({0, 1, 2}, "closed under the product"),
    ])
    def test_non_subgroup_rejected(self, members, message):
        with pytest.raises(ValueError, match=message):
            Subgroup(gc.cyclic(6), members)


class TestAllSubgroups:
    def test_c6(self):
        subs = all_subgroups(gc.cyclic(6))
        assert [H.order for H in subs] == [1, 2, 3, 6]

    def test_s3(self):
        subs = all_subgroups(gc.symmetric(3))
        assert sorted(H.order for H in subs) == [1, 2, 2, 2, 3, 6]

    def test_q8(self):
        subs = all_subgroups(gc.quaternion8())
        assert sorted(H.order for H in subs) == [1, 2, 4, 4, 4, 8]

    def test_cyclic_count_is_divisor_count(self):
        for n in range(1, 101):
            assert len(all_subgroups(gc.cyclic(n))) == num_divisors(n)

    def test_every_subgroup_is_closed(self):
        for G in [gc.symmetric(4), gc.dihedral(6), gc.frobenius_field(2, 3)]:
            for H in all_subgroups(G):
                H.check()

    def test_no_duplicates_and_sorted(self):
        subs = all_subgroups(gc.dihedral(4))
        keys = [(H.order, H.elements()) for H in subs]
        assert keys == sorted(keys)
        assert len({H.members for H in subs}) == len(subs)

    def test_cap(self):
        with pytest.raises(ValueError):
            all_subgroups(gc.cyclic(300))


class TestCyclicSeeds:
    def test_power_table_seeds_match_generate(self, catalog100):
        for G in catalog100 + [gc.symmetric(5), gc.dihedral(60), gc.frobenius_field(2, 5)]:
            closures = [generate(G, [x]).members for x in G.elements()]
            smallest = {}
            for x, members in enumerate(closures):
                smallest.setdefault(members, x)
            assert _cyclic_seeds(G).tolist() == list(smallest.values()), G.name
            P, orders = G.power_table(), G.element_orders()
            assert [frozenset(P[:orders[x], x].tolist()) for x in G.elements()] == closures, G.name

    def test_seed_weights_count_generators(self, catalog100):
        # each seed weighs as many elements as generate its cyclic subgroup
        for G in catalog100 + [gc.symmetric(5), gc.dihedral(60), gc.frobenius_field(2, 5)]:
            closures = [generate(G, [y]).members for y in G.elements()]
            counts = Counter(closures)
            seeds, weights = G.cyclic_seeds()
            assert weights.tolist() == [counts[closures[x]] for x in seeds.tolist()], G.name
            assert weights.sum() == G.order, G.name

    def test_extended_power_table(self):
        # the table stops at the largest element order, 18, and is built once
        G = gc.dihedral(18)
        P = G.power_table()
        assert P.shape == (18, 36)
        assert G.power_table() is P
        assert [frozenset(P[:m, x].tolist()) for x, m in enumerate(G.element_orders())] == [
            generate(G, [x]).members for x in G.elements()]


def join_by_generate(G):
    """Reference enumeration: the same seeds, frontier and first-found
    generators as all_subgroups, with every join re-closed from the
    identity by generate."""
    seeds = {}
    for x in G.elements():
        sub = generate(G, [x])
        seeds.setdefault(sub.members, sub.generators)
    known = dict(seeds)
    frontier = list(seeds.items())
    seed_list = list(seeds.items())
    while frontier:
        new_frontier = []
        for members, gens in frontier:
            for s_members, s_gens in seed_list:
                if s_members <= members:
                    continue
                joined = generate(G, gens + s_gens)
                if joined.members not in known:
                    known[joined.members] = joined.generators
                    new_frontier.append((joined.members, joined.generators))
        frontier = new_frontier
    return sorted(known.items(), key=lambda item: (len(item[0]), sorted(item[0])))


def lattice(subs):
    return [(H.members, H.generators) for H in subs]


class TestLatticeOracles:
    def test_catalog_matches_join_by_generate(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            assert lattice(subs) == join_by_generate(G), G.name

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.alternating(5),
        lambda: gc.dihedral(60),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
        lambda: gc.frobenius_field(3, 2),
    ], ids=["S5", "A5", "D60", "Frob(2,3)xC3", "Frob(3,2)"])
    def test_matches_join_by_generate(self, make):
        G = make()
        assert lattice(all_subgroups(G)) == join_by_generate(G)

    @pytest.mark.parametrize("n", range(3, _LATTICE_CAP // 2 + 1))
    def test_dihedral_count(self, n):
        # D_n of order 2n has tau(n) + sigma(n) subgroups: a cyclic one for
        # each divisor d of n, and n/d dihedral ones of order 2d
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(all_subgroups(gc.dihedral(n))) == len(divisors) + sum(divisors)

    @pytest.mark.parametrize("make, count", [
        (lambda: gc.symmetric(4), 30),
        (lambda: gc.symmetric(5), 156),
        (lambda: gc.alternating(5), 59),
    ], ids=["S4", "S5", "A5"])
    def test_known_counts(self, make, count):
        assert len(all_subgroups(make())) == count


class TestLatticeCertificate:
    """Completeness from `generate` alone, sharing no code with the joins or
    the double-coset skip: the found set holds {e} and <K, x> for every
    found K and every x in G. Every subgroup is reached from {e} by adding
    one element at a time, so such a set is the whole lattice."""

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(4),
        lambda: gc.alternating(5),
        lambda: gc.dihedral(12),
        lambda: gc.direct_product([gc.quaternion8(), gc.cyclic(3)]),
        lambda: gc.frobenius_field(2, 3),
        lambda: gc.abelian_of_type({2: [2, 2, 1]}),
    ], ids=["S4", "A5", "D12", "Q8xC3", "Frob(2,3)", "C4xC4xC2"])
    def test_closed_under_adding_an_element(self, make):
        G = make()
        found = {H.members for H in all_subgroups(G)}
        assert generate(G, []).members in found
        for members in found:
            for x in G.elements():
                if x not in members:
                    assert generate(G, [*members, x]).members in found, (G.name, sorted(members), x)


class TestNormality:
    def test_abelian_all_normal(self):
        G = gc.cyclic(12)
        assert all(is_normal(G, H) for H in all_subgroups(G))

    def test_s3(self):
        S3 = gc.symmetric(3)
        for H in all_subgroups(S3):
            expected = H.order != 2  # index-2 and trivial cases are normal
            assert is_normal(S3, H) == expected


class TestQuotient:
    def test_c6_mod_c3(self):
        G = gc.cyclic(6)
        K = generate(G, [2])
        Q = quotient(G, K)
        assert Q.order == 2

    def test_trivial_kernel_reencodes(self):
        G = gc.symmetric(3)
        Q = quotient(G, generate(G, []))
        assert Q.order == 6
        assert sorted(element_order(Q, x) for x in Q.elements()) == sorted(
            element_order(G, x) for x in G.elements()
        )

    def test_frobenius_mod_kernel_is_c7(self):
        G = gc.frobenius_field(2, 3)
        K = Subgroup(G, G.kernel_elements())
        Q = quotient(G, K)
        assert Q.order == 7
        assert Q.is_cyclic()
        # kernel-relative order sum factors through the quotient: 8 * psi(C_7)
        assert psi_relative(G, K) == K.order * psi(Q) == 8 * 43

    def test_non_normal_rejected(self):
        S3 = gc.symmetric(3)
        H = next(H for H in all_subgroups(S3) if H.order == 2)
        with pytest.raises(ValueError, match="not normal"):
            quotient(S3, H)

    def test_normal_kernel_identity_catalog(self, catalog_subgroups_64):
        # |K| * psi(G/K) equals the K-relative order sum for every normal K
        for G, subs in catalog_subgroups_64:
            for K in subs:
                if not is_normal(G, K):
                    continue
                assert psi_relative(G, K) == K.order * psi(quotient(G, K))


class TestIsolated:
    def test_whole_group(self):
        G = gc.cyclic(8)
        assert is_isolated(G, generate(G, [1]))

    def test_frobenius_complement(self):
        G = gc.frobenius_field(2, 3)
        H = generate(G, [G.encode(0, 1)])
        assert is_isolated(G, H)

    def test_c4_subgroup_not_isolated(self):
        G = gc.cyclic(4)
        H = generate(G, [2])
        assert not is_isolated(G, H)

    def test_characterization_on_catalog(self, catalog_subgroups_64):
        # isolated <=> psi_H(G) = |H| + psi(G) - psi(H)
        for G, subs in catalog_subgroups_64:
            psi_g = psi(G)
            for H in subs:
                psi_h_as_group = sum(element_order(G, h) for h in H.elements())
                identity_holds = psi_relative(G, H) == H.order + psi_g - psi_h_as_group
                assert is_isolated(G, H) == identity_holds


class TestConjugateIntersections:
    def test_frobenius_complement(self):
        G = gc.frobenius_field(2, 3)
        H = generate(G, [G.encode(0, 1)])
        assert conjugates_intersect_trivially(G, H)

    def test_normal_proper_nontrivial_fails(self):
        G = gc.symmetric(3)
        H = next(H for H in all_subgroups(G) if H.order == 3)
        assert not conjugates_intersect_trivially(G, H)

    def test_s3_transposition_subgroups(self):
        G = gc.symmetric(3)
        for H in all_subgroups(G):
            if H.order == 2:
                assert conjugates_intersect_trivially(G, H)


@pytest.mark.parametrize("entry_point", [
    is_normal,
    quotient,
    is_isolated,
    conjugates_intersect_trivially,
    relative_orders,
    lambda G, H: lattice_order_sums(G, [generate(G, [2]), H]),
    psi_relative,
    psi_ratio,
    bijection_exists,
    lambda G, H: check_bijection(G, H, BijectionResult(exists=True, witness=tuple(range(G.order)))),
], ids=["is_normal", "quotient", "is_isolated", "conjugates_intersect_trivially",
        "relative_orders", "lattice_order_sums", "psi_relative", "psi_ratio",
        "bijection_exists", "check_bijection"])
def test_subgroup_of_another_group_is_rejected(entry_point):
    # S3 has the order of C6, so its masks index C6 without an IndexError:
    # unchecked, is_normal answered True and quotient failed on its own table
    G = gc.cyclic(6)
    H = generate(gc.symmetric(3), [1])
    with pytest.raises(ValueError, match="^subgroup does not belong to this group$"):
        entry_point(G, H)


def test_subgroup_order_divides_group_order(catalog_subgroups_64):
    for G, subs in catalog_subgroups_64:
        for H in subs:
            assert G.order % H.order == 0
