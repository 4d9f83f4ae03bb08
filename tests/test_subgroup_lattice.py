import sys
from collections import Counter
from itertools import product
from math import prod

import numpy as np
import pytest

import relpsi as rp
import relpsi.group_core as gc
from relpsi import order_sums
from relpsi.budget import LATTICE_CAP
from relpsi.numtheory import factorize
from relpsi.order_sums import lattice_order_sums, psi, psi_ratio, psi_relative, relative_orders
from relpsi.subgroup_lattice import (
    Subgroup,
    _abelian_masks,
    _CosetWalk,
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
from reference import canonical_generators, closure, element_order


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

        with pytest.raises(ValueError, match="exceeds the brute-force budget 2\\^24"):
            generate(Huge(), [1])

    @pytest.mark.parametrize("make, gens", [
        (lambda: gc.cyclic(12), lambda G: [4]),
        (lambda: gc.symmetric(4), lambda G: [1, 5]),
        (lambda: frobenius_with_cofactor(5, 7), lambda G: [G.encode((1, 0)), G.encode((0, 1))]),
    ], ids=["C12", "S4", "Frob(2,5)xC7"])
    def test_hands_over_its_mask_and_sorted_members(self, make, gens):
        G = make()
        H = generate(G, gens(G))
        rebuilt = Subgroup(G, H.members)
        assert H.elements() == rebuilt.elements() == tuple(sorted(H.members))
        assert np.array_equal(H.mask(), rebuilt.mask())
        assert not H.mask().flags.writeable

    def test_keeps_only_its_mask_until_its_members_are_read(self):
        # the brute force reads the mask alone, so a closure of millions of
        # members builds no member set or tuple unless asked, and keeps none
        # when asked: a subgroup holds its members as its mask alone
        assert Subgroup.__slots__ == ("parent", "order", "_generators", "_mask")
        G = frobenius_with_cofactor(5, 7)
        H = generate(G, [G.encode((1, 0)), G.encode((0, 1))])
        assert H.order == H.mask().sum() == 31 * 7
        assert H.index == 32
        assert G.encode((1, 0)) in H
        assert H.members == frozenset(np.flatnonzero(H.mask()).tolist())
        assert H == Subgroup(G, H.members) and hash(H) == hash(Subgroup(G, H.members))


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

    @pytest.mark.parametrize("members", [
        [0, 2.7, 4.2], ["0", "3"], [0, 3.0], [0, None],
    ], ids=["floats", "strings", "integral-float", "None"])
    def test_members_are_encodings_not_coerced(self, members):
        # each member goes through check_encoding, as each generator of
        # `generate` does, so 2.7 is never read as 2
        with pytest.raises(ValueError, match="^subgroup member outside the encodings of C6$"):
            Subgroup(gc.cyclic(6), members)
        with pytest.raises(ValueError, match="not a valid element encoding of C6"):
            generate(gc.cyclic(6), members)

    def test_numpy_integers_are_encodings(self):
        H = Subgroup(gc.cyclic(6), np.array([0, 3, 3]))
        assert H.elements() == (0, 3) and H.order == 2


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
        # C_n has one subgroup of each order d dividing n, the multiples of
        # n/d, whose smallest generator is n/d, or the identity 0 for d = 1
        for n in range(1, LATTICE_CAP + 1):
            subs = all_subgroups(gc.cyclic(n))
            assert len(subs) == num_divisors(n)
            assert [(H.elements(), H.generators) for H in subs] == [
                (tuple(range(0, n, n // d)), (n // d,) if d > 1 else (0,))
                for d in range(1, n + 1) if n % d == 0], n

    def test_every_subgroup_is_closed(self):
        for G in [gc.symmetric(4), gc.dihedral(6), gc.frobenius_field(2, 3)]:
            for H in all_subgroups(G):
                H.check()

    @staticmethod
    def assert_sorted_once(subs):
        """Each subgroup's elements() are its members sorted, its mask is
        read-only, and the keys (order, elements()) strictly increase, so
        none repeats."""
        for H in subs:
            assert H.elements() == tuple(sorted(H.members))
            assert not H.mask().flags.writeable
        keys = [(H.order, H.elements()) for H in subs]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_no_duplicates_and_sorted(self):
        for G in [gc.dihedral(4), relabelled_copy(gc.symmetric(5), 5)]:
            self.assert_sorted_once(all_subgroups(G))

    def test_catalog_no_duplicates_and_sorted(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            self.assert_sorted_once(subs)

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
            assert G.cyclic_seeds()[0].tolist() == list(smallest.values()), G.name
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
    """Reference enumeration: the member sets of every subgroup, sorted by
    (order, element tuple), found by joining every found subgroup with every
    cyclic subgroup until nothing new appears, each join closed afresh from
    the identity by generate."""
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
    return sorted(known, key=lambda members: (len(members), sorted(members)))


def lattice(subs):
    return [H.members for H in subs]


def gaussian_binomial(n, k, p):
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def conjugate(partition, length):
    """The first ``length`` parts of the conjugate partition, zero-padded."""
    return [sum(part > i for part in partition) for i in range(length)]


def subgroup_types(p, lam):
    """(mu, number of subgroups of type mu) for every partition mu inside
    lam, zero-padded to its length, in the abelian p-group of type lam. It
    has prod_i p^(mu'_(i+1) (lambda'_i - mu'_i))
    [lambda'_i - mu'_(i+1) choose mu'_i - mu'_(i+1)]_p subgroups of type mu,
    primes ' the conjugate partitions (S. Delsarte, Ann. of Math. 49, 1948;
    L. M. Butler, Mem. AMS 539, 1994)."""
    lam = sorted(lam, reverse=True)
    columns = lam[0]
    lam_c = conjugate(lam, columns)
    for mu in product(*(range(part + 1) for part in lam)):
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue
        mu_c = conjugate(mu, columns + 1)
        count = 1
        for i in range(columns):
            count *= (p ** (mu_c[i + 1] * (lam_c[i] - mu_c[i]))
                      * gaussian_binomial(lam_c[i] - mu_c[i + 1], mu_c[i] - mu_c[i + 1], p))
        yield mu, count


def abelian_subgroup_counts(type_map):
    """{order: number of subgroups} of the abelian group of type ``type_map``
    ({p: partition}), in closed form, sharing no code with the lattice; the
    count is multiplicative over the primes."""
    counts = {1: 1}
    for p, lam in type_map.items():
        at_p = Counter()
        for mu, count in subgroup_types(p, lam):
            at_p[p ** sum(mu)] += count
        counts = {a * b: ca * cb for a, ca in counts.items() for b, cb in at_p.items()}
    return counts


def abelian_psi_h(type_map):
    """Counter of (|H|, psi_H, largest relative order) over every subgroup H
    of the abelian group of type ``type_map``, in closed form, sharing no
    code with the lattice, the power table or `quotient`. By duality as many
    H have G/H of type nu as there are subgroups of type nu. psi_H is
    |H| * psi(G/H) and the largest relative order is the exponent of G/H; a
    p-group of type nu has prod_i p^min(nu_i, k) elements of order dividing
    p^k. Orders, psi and exponents are multiplicative over the primes."""
    triples = Counter({(1, 1, 1): 1})
    for p, lam in type_map.items():
        at_p = Counter()
        for nu, count in subgroup_types(p, lam):
            top = max(nu)
            dividing = [0] + [prod(p ** min(part, k) for part in nu) for k in range(top + 1)]
            psi_nu = sum((dividing[k + 1] - dividing[k]) * p ** k for k in range(top + 1))
            at_p[p ** (sum(lam) - sum(nu)), psi_nu, p ** top] += count
        joined = Counter()
        for (h, s, e), c in triples.items():
            for (h_p, s_p, e_p), c_p in at_p.items():
                joined[h * h_p, s * s_p, e * e_p] += c * c_p
        triples = joined
    return Counter({(h, h * s, e): c for (h, s, e), c in triples.items()})


def lattice_psi_h(G, subs):
    """Counter of (|H|, psi_H, largest relative order) over ``subs``, from
    `lattice_order_sums`."""
    sums, largest = lattice_order_sums(G, subs)
    return Counter(zip((H.order for H in subs), sums, largest))


def abelian_type(G):
    """{p: partition} of a catalog group built from cyclic factors, else None."""
    factors = G.factors if isinstance(G, gc.DirectProductGroup) else [G]
    if not all(isinstance(C, gc.CyclicGroup) for C in factors):
        return None
    type_map = {}
    for C in factors:
        for p, a in factorize(C.order):
            type_map.setdefault(p, []).append(a)
    return type_map


def relabelled_copy(G, seed):
    """G rebuilt by from_cayley_table with its elements renamed by a seeded
    permutation that keeps the identity at 0."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    table = G.cayley_table()
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return gc.from_cayley_table(relabelled)


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

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.dihedral(60),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
        lambda: gc.frobenius_field(3, 2),
    ], ids=["S5", "D60", "Frob(2,3)xC3", "Frob(3,2)"])
    def test_relabelled_matches_join_by_generate(self, make):
        # renaming the elements by a permutation that fixes the identity 0
        # reorders the seeds and so the generator tuples tried, and the walks
        # and their shortcuts run in orders the constructors never give
        G = make()
        R = relabelled_copy(G, G.order)
        assert lattice(all_subgroups(R)) == join_by_generate(R)

    @pytest.mark.parametrize("type_map", [
        {2: [1] * 5},
        {2: [2, 2, 1]},
        {2: [1, 1], 3: [1], 5: [1]},
    ], ids=["C2^5", "C4xC4xC2", "C2xC2xC3xC5"])
    def test_relabelled_abelian_matches_join_by_generate(self, type_map):
        # a relabelled abelian table takes the layered search with its seeds,
        # coset labels and join rows in orders the constructors never give
        G = relabelled_copy(gc.abelian_of_type(type_map), 34)
        subs = all_subgroups(G)
        assert lattice(subs) == join_by_generate(G)
        assert Counter(H.order for H in subs) == abelian_subgroup_counts(type_map)

    @pytest.mark.parametrize("n", range(3, LATTICE_CAP // 2 + 1))
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


class TestCanonicalGenerators:
    """Each subgroup of a lattice reports the generators that
    `reference.canonical_generators` picks with scalar closures alone, they
    generate it, and they are read off its mask only when asked for."""

    @staticmethod
    def assert_canonical(G, subs):
        for H in subs:
            assert H.generators == canonical_generators(G, H.members), (G.name, H.elements())
            assert generate(G, H.generators) == H, (G.name, H.elements())

    def test_catalog(self, catalog_subgroups):
        for G, subs in catalog_subgroups:
            self.assert_canonical(G, subs)

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.dihedral(60),
        lambda: relabelled_copy(gc.symmetric(5), 5),
        lambda: gc.abelian_of_type({2: [1] * 5}),
    ], ids=["S5", "D60", "S5-relabelled", "C2^5"])
    def test_named_groups(self, make):
        G = make()
        self.assert_canonical(G, all_subgroups(G))

    def test_read_on_first_use_with_one_walk_per_subgroup(self):
        G = gc.symmetric(5)
        subs = all_subgroups(G)
        assert all(H._generators is None for H in subs)
        walks = 0

        def profile(frame, event, arg):
            nonlocal walks
            walks += event == "call" and frame.f_code is _CosetWalk.join.__code__

        sys.setprofile(profile)
        try:
            first = {H: H.generators for H in reversed(subs)}
        finally:
            sys.setprofile(None)
        # each prefix is closed once, and is a different subgroup other than {e}
        assert 0 < walks < len(subs)
        assert all(H.generators is first[H] for H in subs)

    @pytest.mark.parametrize("make, searched", [
        (lambda: gc.symmetric(5), True),
        (lambda: gc.frobenius_field(2, 3), True),
        (lambda: gc.abelian_of_type({2: [1] * 5}), False),
    ], ids=["S5", "Frob(2,3)", "C2^5"])
    def test_one_walker_per_group(self, make, searched, monkeypatch):
        # the class search keeps its walker on G for the reads; an abelian
        # lattice walks nothing, and its first read builds the walker
        G = make()
        subs = all_subgroups(G)
        assert isinstance(getattr(G, "_generators_cache", None), _CosetWalk) is searched
        built, init = [], _CosetWalk.__init__
        monkeypatch.setattr(_CosetWalk, "__init__", lambda walk, G: built.append(G) or init(walk, G))
        self.assert_canonical(G, subs)
        assert built == ([] if searched else [G])


def nested_code(function):
    """The code objects of the functions nested in ``function``, by name."""
    return {c.co_name: c for c in function.__code__.co_consts if hasattr(c, "co_name")}


def lattice_with_search_counts(G):
    """all_subgroups(G), the calls of its coset walk `_CosetWalk.join`,
    restarts included, the conjugacy classes its nested `listed` found new,
    and the rows of the join masks that the nested `joins` of
    `_abelian_masks` built, all counted by a profile hook."""
    join, listed = _CosetWalk.join.__code__, nested_code(all_subgroups)["listed"]
    joins = nested_code(_abelian_masks)["joins"]
    calls = classes = built = 0

    def profile(frame, event, arg):
        nonlocal calls, classes, built
        calls += event == "call" and frame.f_code is join
        classes += event == "return" and frame.f_code is listed and arg is True
        built += len(arg) if event == "return" and frame.f_code is joins else 0

    sys.setprofile(profile)
    try:
        subs = all_subgroups(G)
    finally:
        sys.setprofile(None)
    return subs, calls, classes, built


def prime_index_inclusions(subs):
    """The index p of every inclusion H < J of prime index among ``subs``,
    the edges of their Hasse diagram when ``subs`` is a whole lattice of
    an abelian group, read off the member masks alone."""
    masks = np.array([H.mask() for H in subs], dtype=np.int64)
    orders = masks.sum(axis=1)
    inside = masks @ (1 - masks).T == 0  # inside[h, j]: H lies in J
    index = orders[None, :] // orders[:, None]
    return [int(p) for p in index[inside] if p > 1 and all(p % d for d in range(2, p))]


def assert_joins_bounded_by_the_hasse_diagram(subs, built):
    """Each join the layered search builds is a prime-index inclusion
    K < K<s>, and it builds each one from at least one and at most all of
    the p - 1 cosets K*s other than K in K<s>: exactly once each when every
    index is 2."""
    indices = prime_index_inclusions(subs)
    assert len(indices) <= built <= sum(p - 1 for p in indices)


def conjugacy_classes(G, subs):
    """The number of classes of ``subs`` under conjugation, from the Cayley
    table and the inverses, sharing no code with the search."""
    table, inv = G.cayley_table(), G.inverses()
    seen, classes = set(), 0
    for H in subs:
        if H.members in seen:
            continue
        classes += 1
        hs = np.array(H.elements())
        seen.update(frozenset(table[table[g, hs], inv[g]].tolist()) for g in G.elements())
    return classes


class TestJoinCount:
    """The calls of `_CosetWalk.join` in `all_subgroups`, restarts included,
    the conjugacy classes of subgroups it lists, and the joins the layered
    search of an abelian group builds, pinned per group. Which seeds each
    representative is joined with, where a walk starts, when it restarts
    and when a join is answered with no walk each move the first count,
    even where they leave the lattice found the same. The second is the
    number of conjugacy classes of subgroups other than G, which the
    lattice itself gives; a cyclic group lists none, and an abelian one
    walks no join and lists no class. The third lies between the number of
    prime-index inclusions of the lattice and their sum of p - 1, and
    equals the first on a 2-group."""

    @pytest.mark.parametrize("make, calls, classes, built", [
        (lambda: gc.symmetric(5), 239, 18, 0),
        (lambda: gc.dihedral(60), 489, 31, 0),
        (lambda: gc.abelian_of_type({2: [2, 2, 1]}), 0, 0, 141),
        (lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]), 116, 11, 0),
        (lambda: gc.cyclic(120), 0, 0, 0),
        (lambda: gc.abelian_of_type({2: [1, 1, 1, 1, 1]}), 0, 0, 2077),
        (lambda: gc.abelian_of_type({3: [1, 1, 1]}), 0, 0, 129),
    ], ids=["S5", "D60", "C4xC4xC2", "Frob(2,3)xC3", "C120", "C2^5", "C3^3"])
    def test_join_calls_are_pinned(self, make, calls, classes, built):
        G = make()
        subs, *counts = lattice_with_search_counts(G)
        assert counts == [calls, classes, built]
        if built:
            assert_joins_bounded_by_the_hasse_diagram(subs, built)
        else:
            assert classes == (0 if G.is_cyclic() else conjugacy_classes(G, subs) - 1)


class TestCyclicLattice:
    """A group with an element of order |G| is cyclic, so every subgroup is
    one of the seeds <x> and the lattice needs no join, however the group
    is built; an abelian group of the same order with no such element
    still builds joins, by prime index."""

    @pytest.mark.parametrize("make", [
        lambda: gc.direct_product([gc.cyclic(3), gc.cyclic(4), gc.cyclic(5)]),
        lambda: gc.abelian_of_type({2: [3], 3: [1], 5: [1]}),
        lambda: relabelled_copy(gc.cyclic(60), 60),
    ], ids=["C3xC4xC5", "C8xC3xC5", "C60-relabelled"])
    def test_no_join_and_the_reference_lattice(self, make):
        G = make()
        subs, calls, classes, built = lattice_with_search_counts(G)
        assert calls == classes == built == 0
        assert lattice(subs) == join_by_generate(G)

    @pytest.mark.parametrize("make", [
        lambda: gc.abelian_of_type({2: [1, 1], 3: [1], 5: [1]}),
        lambda: gc.abelian_of_type({2: [2, 1], 3: [1], 5: [1]}),
    ], ids=["C2xC2xC3xC5", "C4xC2xC3xC5"])
    def test_non_cyclic_of_the_same_order_joins(self, make):
        G = make()
        subs, calls, classes, built = lattice_with_search_counts(G)
        assert calls == classes == 0 and built > 0
        assert_joins_bounded_by_the_hasse_diagram(subs, built)
        assert lattice(subs) == join_by_generate(G)


class TestSmallBlocks:
    """With group_core._BLOCK cut to a few dozen entries each frontier round
    is labelled one subgroup a block, each round of an abelian group joins
    one subgroup a block, and each power-table doubling reads one row a
    block; at 2^14 a label block holds up to 2^11 / |G| members, several
    small subgroups, a round of C2^5 joins 16 subgroups a block, and a
    round spans many blocks, whose joins the round must make distinct
    across them. Every result stays as with the default blocks."""

    @pytest.mark.parametrize("block", [48, 1 << 14])
    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.dihedral(60),
        lambda: gc.abelian_of_type({2: [1] * 5}),
    ], ids=["S5", "D60", "C2^5"])
    def test_lattice_and_join_calls_unchanged(self, make, block, monkeypatch):
        def run():
            subs, *counts = lattice_with_search_counts(make())
            return [(H.elements(), H.generators) for H in subs], counts

        default = run()
        monkeypatch.setattr(gc, "_BLOCK", block)
        assert run() == default

    def test_catalog_power_tables_unchanged(self, catalog100, monkeypatch):
        def tables(groups):
            return [(G.power_table().tolist(), G.element_orders().tolist(),
                     [a.tolist() for a in G.cyclic_seeds()]) for G in groups]

        default = tables(catalog100)
        monkeypatch.setattr(gc, "_BLOCK", 48)
        assert tables(rp.default_catalog(100, include_frobenius=True)) == default


class TestAbelianSubgroupCounts:
    """The lattice of an abelian group against Delsarte's closed-form count of
    its subgroups of each order."""

    @pytest.mark.parametrize("type_map, total", [
        ({2: [1] * 5}, 374),
        ({2: [1] * 6}, 2825),
        ({2: [2, 2, 1, 1]}, 249),
        ({3: [1] * 4}, 212),
        ({5: [1] * 3}, 64),
        ({2: [3, 1, 1]}, 38),
        ({2: [2, 1], 3: [1, 1]}, 48),
        ({3: [2, 1]}, 10),
        ({2: [2, 1]}, 8),
        ({5: [1, 1]}, 8),
    ], ids=["C2^5", "C2^6", "C4^2xC2^2", "C3^4", "C5^3", "C8xC2^2", "C4xC2xC3^2", "C9xC3", "C4xC2",
            "C5^2"])
    def test_named_groups(self, type_map, total):
        counts = abelian_subgroup_counts(type_map)
        assert sum(counts.values()) == total
        assert Counter(H.order for H in all_subgroups(gc.abelian_of_type(type_map))) == counts

    def test_catalog_abelian_groups(self, catalog_subgroups):
        abelian = [(G, subs, abelian_type(G)) for G, subs in catalog_subgroups
                   if abelian_type(G) is not None]
        assert len(abelian) == 123  # C1..C100 and 23 non-cyclic abelian groups
        for G, subs, type_map in abelian:
            assert Counter(H.order for H in subs) == abelian_subgroup_counts(type_map), G.name


class TestAbelianPsiH:
    """psi_H and the largest relative order over the whole lattice of an
    abelian group against their closed form."""

    @pytest.mark.parametrize("type_map", [{2: [1] * 5}, {2: [2, 2, 1, 1]}, {3: [1] * 4}],
                             ids=["C2^5", "C4^2xC2^2", "C3^4"])
    def test_named_groups(self, type_map, monkeypatch):
        # small blocks, so the gather runs in several, the last one short
        monkeypatch.setattr(order_sums, "_BLOCK", 1 << 10)
        G = gc.abelian_of_type(type_map)
        assert lattice_psi_h(G, all_subgroups(G)) == abelian_psi_h(type_map)

    def test_catalog_abelian_groups(self, catalog_subgroups):
        abelian = [(G, subs, abelian_type(G)) for G, subs in catalog_subgroups
                   if abelian_type(G) is not None]
        assert len(abelian) == 123
        for G, subs, type_map in abelian:
            assert lattice_psi_h(G, subs) == abelian_psi_h(type_map), G.name


class TestConjugationInvariance:
    """psi_H and the largest relative order over the lattice of a
    non-abelian group against conjugation: x -> gxg^-1 is an automorphism
    of G carrying H onto gHg^-1, so the conjugate is found too, with the
    same pair."""

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.alternating(5),
        lambda: gc.dihedral(60),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
        lambda: gc.frobenius_field(3, 2),
    ], ids=["S5", "A5", "D60", "Frob(2,3)xC3", "Frob(3,2)"])
    def test_conjugates_carry_the_same_pair(self, make, monkeypatch):
        # small blocks, so the gather runs in several, the last one short
        monkeypatch.setattr(order_sums, "_BLOCK", 1 << 10)
        G = make()
        subs = all_subgroups(G)
        sums, largest = lattice_order_sums(G, subs)
        assert len(sums) == len(largest) == len(subs)
        pairs = {H.members: pair for H, pair in zip(subs, zip(sums, largest))}
        table, inv = G.cayley_table(), G.inverses()
        moved = 0
        for g in gc._greedy_generators(G.multiply_array, G.order):
            for H in subs:
                hs = np.array(H.elements())
                conjugate = frozenset(table[table[g, hs], inv[g]].tolist())
                assert pairs.get(conjugate) == pairs[H.members], (G.name, g, H.elements())
                moved += conjugate != H.members
        assert moved  # some subgroup is not normal


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
        lambda: gc.direct_product([gc.cyclic(3), gc.cyclic(4), gc.cyclic(5)]),
    ], ids=["S4", "A5", "D12", "Q8xC3", "Frob(2,3)", "C4xC4xC2", "C3xC4xC5"])
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
        K = Subgroup(G, [G.encode(a, 0) for a in range(G.q)])
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
