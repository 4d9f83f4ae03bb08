import random
import time
from collections import Counter

import numpy as np
import pytest

import relpsi.group_core as gc
import reference
from relpsi.classify import _derived_of_members, is_nilpotent, is_solvable
from relpsi.group_core import _greedy_generators
from relpsi.verify import default_catalog


def derived_subgroup(G):
    gens = list(_greedy_generators(G.multiply_array, G.order))
    return _derived_of_members(G, np.arange(G.order), gens)


def all_pairs_derived(G, members):
    """The closure of every commutator a b a^-1 b^-1 of two members, by
    scalar products."""
    inv = {a: reference.inverse(G, a) for a in members}
    commutators = {G.multiply(G.multiply(a, b), G.multiply(inv[a], inv[b]))
                   for a in members for b in members}
    return reference.closure(G, commutators)


class TestDerivedSubgroup:
    def test_abelian_trivial(self):
        assert derived_subgroup(gc.cyclic(30)).order == 1
        assert derived_subgroup(gc.abelian_of_type({2: [1, 1, 1]})).order == 1

    def test_s3(self):
        D = derived_subgroup(gc.symmetric(3))
        assert D.order == 3

    def test_frobenius_kernel(self):
        G = gc.frobenius_field(2, 3)
        D = derived_subgroup(G)
        assert D.members == frozenset(G.encode(a, 0) for a in range(G.q))

    @pytest.mark.parametrize("G", [
        gc.symmetric(4), gc.alternating(5), gc.dihedral(12), gc.frobenius_field(2, 3),
        gc.frobenius_field(3, 2), gc.direct_product([gc.quaternion8(), gc.symmetric(3)]),
    ], ids=lambda g: g.name)
    def test_commutators_with_generators_give_every_commutator(self, G):
        # down two steps of the series: below G the generating set is the
        # commutators that `generate` closed
        D = derived_subgroup(G)
        assert D.members == all_pairs_derived(G, G.elements())
        DD = _derived_of_members(G, np.array(D.elements()), D.generators)
        assert DD.members == all_pairs_derived(G, D.elements())


class TestSolvable:
    @pytest.mark.parametrize(
        "G",
        [gc.symmetric(3), gc.symmetric(4), gc.dihedral(7), gc.quaternion8(),
         gc.frobenius_field(2, 3), gc.alternating(4)],
        ids=lambda g: g.name,
    )
    def test_small_groups_solvable(self, G):
        assert is_solvable(G)

    def test_frobenius_times_c3(self):
        G = gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)])
        assert is_solvable(G)

    def test_a5_not_solvable(self):
        assert not is_solvable(gc.alternating(5))

    def test_everything_below_60(self, catalog100):
        for G in catalog100:
            if G.order < 60:
                assert is_solvable(G), G.name

    def test_derived_series_of_frobenius_2_6(self):
        # 4032 elements: all pairs of members took 0.86 s; as in a scan,
        # is_nilpotent has built the Cayley table first
        G = gc.frobenius_field(2, 6)
        assert not is_nilpotent(G)
        entries = []
        product = G.multiply_array
        G.multiply_array = lambda x, y: entries.append(np.broadcast(x, y).size) or product(x, y)
        start = time.perf_counter()
        assert is_solvable(G)
        assert time.perf_counter() - start < 0.1
        # all pairs took 3 * 4032 products per element; the inverses alone take 24
        assert sum(entries) < 64 * G.order

    def test_refused_above_table_cap_at_once(self):
        G = gc.symmetric(7)
        assert G.order > gc.TABLE_CAP
        start = time.perf_counter()
        with pytest.raises(ValueError, match="classification budget exceeded at order 5040"):
            is_solvable(G)
        assert time.perf_counter() - start < 0.1


class TestNilpotent:
    def test_abelian(self):
        assert is_nilpotent(gc.cyclic(12))

    def test_s3_not(self):
        assert not is_nilpotent(gc.symmetric(3))

    def test_frobenius_not(self):
        assert not is_nilpotent(gc.frobenius_field(2, 3))

    def test_p_groups(self):
        for G in [gc.dihedral(4), gc.quaternion8(), gc.abelian_of_type({2: [2, 2]}),
                  gc.dihedral(8), gc.cyclic(27)]:
            assert is_nilpotent(G), G.name

    def test_nilpotent_implies_solvable(self, catalog100):
        for G in catalog100:
            if G.order <= 128 and is_nilpotent(G):
                assert is_solvable(G), G.name

    def test_multiplicative_over_coprime_products(self):
        cases = [
            (gc.symmetric(3), gc.cyclic(5)),
            (gc.quaternion8(), gc.cyclic(3)),
            (gc.cyclic(4), gc.cyclic(9)),
            (gc.dihedral(4), gc.cyclic(25)),
        ]
        for A, B in cases:
            assert A.order * B.order <= 200
            got = is_nilpotent(gc.direct_product([A, B]))
            assert got == (is_nilpotent(A) and is_nilpotent(B))

    def test_budget(self):
        class Fake(gc.FiniteGroup):
            order = 1 << 17

        with pytest.raises(ValueError, match="budget"):
            is_nilpotent(Fake())

    def test_matches_sylow_closure_reference_on_catalog(self):
        for G in default_catalog(200, include_frobenius=True):
            assert is_nilpotent(G) == reference.is_nilpotent(G), G.name

    @pytest.mark.parametrize("make", [
        lambda: gc.frobenius_field(2, 5),
        lambda: gc.frobenius_field(5, 2),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(5)]),
    ], ids=["Frob(2,5)", "Frob(5,2)", "Frob(2,3)xC3", "Frob(2,3)xC5"])
    def test_matches_sylow_closure_reference_on_frobenius(self, make):
        G = make()
        assert is_nilpotent(G) is reference.is_nilpotent(G) is False


def _sympy_cases():
    from sympy.combinatorics.named_groups import AlternatingGroup, DihedralGroup, SymmetricGroup

    cases = []
    for n in range(1, 7):
        cases.append(pytest.param(lambda n=n: gc.symmetric(n), lambda n=n: SymmetricGroup(n), id=f"S{n}"))
        cases.append(pytest.param(lambda n=n: gc.alternating(n), lambda n=n: AlternatingGroup(n), id=f"A{n}"))
    for n in range(3, 40):
        cases.append(pytest.param(lambda n=n: gc.dihedral(n), lambda n=n: DihedralGroup(n), id=f"D{n}"))
    return cases


class TestAgainstSympy:
    """Differential checks against sympy.combinatorics, which shares no code
    with relpsi: derived-subgroup order (this closes the commutators with
    generate), solvability, nilpotency and the multiset of element orders."""

    @pytest.mark.parametrize("make, make_sympy", _sympy_cases())
    def test_matches_sympy(self, make, make_sympy):
        G, S = make(), make_sympy()
        assert G.order == S.order()
        assert derived_subgroup(G).order == S.derived_subgroup().order()
        assert is_solvable(G) == S.is_solvable
        assert is_nilpotent(G) == S.is_nilpotent
        assert Counter(G.element_orders().tolist()) == Counter(int(p.order()) for p in S.elements)


class TestSeededPermutationCatalog:
    """Subgroups of S7, S8 and the Sylow 2-subgroup of S8 and 3-subgroup of
    S9, of order at most LATTICE_CAP, each generated by one to three seeded
    words in the ambient group's generators, against sympy.combinatorics:
    nilpotency, solvability and element orders agree; psi(G) <= psi(C_n),
    with equality exactly when sympy calls G cyclic; and no subgroup of a
    nilpotent G has a ratio above 1 against the cyclic reference. The
    nilpotent draws reach orders 81 and 128, whose lattices have hundreds of
    subgroups in one round of the search."""

    def test_matches_sympy_and_the_nilpotent_bound(self):
        from sympy.combinatorics import Permutation, PermutationGroup

        from relpsi.budget import LATTICE_CAP
        from relpsi.numtheory import psi_cyclic
        from relpsi.order_sums import psi
        from relpsi.verify import subgroup_ratio_scan

        def perm(degree, *cycles):
            return Permutation([list(c) for c in cycles], size=degree)

        ambients = {  # name: (generators, draws)
            "Syl2(S8)": ([perm(8, (0, 1)), perm(8, (0, 2), (1, 3)),
                          perm(8, (0, 4), (1, 5), (2, 6), (3, 7))], 120),
            "Syl3(S9)": ([perm(9, (0, 1, 2)), perm(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))], 120),
            "S7": ([perm(7, (0, 1)), perm(7, tuple(range(7)))], 480),
            "S8": ([perm(8, (0, 1)), perm(8, tuple(range(8)))], 480),
        }
        seen, kinds = set(), Counter()
        for name, (gens, draws) in ambients.items():
            rng = random.Random(f"perm-catalog/{name}")
            for _ in range(draws):
                words = []
                for _ in range(rng.randint(1, 3)):
                    word = Permutation(gens[0].size - 1)
                    for _ in range(rng.randint(1, 12)):
                        word *= rng.choice(gens)
                    words.append(word)
                S = PermutationGroup(words)
                if S.order() > LATTICE_CAP:
                    continue
                elements = frozenset(tuple(p.array_form) for p in S.elements)
                if elements in seen:
                    continue
                seen.add(elements)
                G = gc.PermutationGroup(elements, name=f"<{name} draw>")
                nilpotent = S.is_nilpotent
                assert G.order == S.order()
                assert is_nilpotent(G) == nilpotent
                assert is_solvable(G) == S.is_solvable
                assert Counter(G.element_orders().tolist()) == Counter(int(p.order()) for p in S.elements)
                assert psi(G) <= psi_cyclic(G.order)
                assert (psi(G) == psi_cyclic(G.order)) == S.is_cyclic
                if nilpotent:
                    records = subgroup_ratio_scan(G)
                    assert not any(rec.is_violation for rec in records), G.order
                    kinds["nilpotent", G.order, len(records)] += 1
                else:
                    kinds["not nilpotent", G.order, S.is_solvable] += 1
        assert ("nilpotent", 128, 576) in kinds and ("nilpotent", 81, 50) in kinds, kinds
        assert ("not nilpotent", 168, False) in kinds and sum(k[0] == "not nilpotent" for k in kinds) >= 5, kinds
