import tracemalloc
from collections import Counter
from math import gcd

import numpy as np
import pytest

import relpsi as rp
import relpsi.group_core as gc
from relpsi.group_core import CayleyTableError
from relpsi.numtheory import psi_cyclic
from relpsi.order_sums import relative_orders
from relpsi.verify import CounterexampleSpec, build_counterexample
from reference import closure, element_order, power, validate


SMALL_GROUPS = [
    gc.cyclic(1),
    gc.cyclic(12),
    gc.dihedral(4),
    gc.dihedral(6),
    gc.symmetric(3),
    gc.symmetric(4),
    gc.alternating(4),
    gc.quaternion8(),
    gc.frobenius_field(2, 3),
    gc.frobenius_field(3, 2),
    gc.abelian_of_type({2: [2, 1], 3: [1]}),
    gc.direct_product([gc.cyclic(2), gc.cyclic(3)]),
]


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.name)
def test_axioms(G):
    validate(G)


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.name)
def test_elements_enumeration(G):
    els = list(G.elements())
    assert els[0] == G.identity == 0
    assert els == sorted(set(els))
    assert len(els) == G.order


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.name)
def test_lagrange_on_element_orders(G):
    for x in G.elements():
        assert G.order % element_order(G, x) == 0


class TestElementOrder:
    def test_identity(self):
        G = gc.cyclic(12)
        assert G.element_orders()[0] == 1 == element_order(G, 0)

    def test_c12(self):
        G = gc.cyclic(12)
        assert G.element_orders()[2] == 6 == element_order(G, 2)

    def test_frobenius_complement_generator(self):
        G = gc.frobenius_field(2, 3)
        x = G.encode(0, 1)
        assert G.element_orders()[x] == 7 == element_order(G, x)

    def test_generic_matches_cyclic_shortcut(self):
        # element k of C_n has order n // gcd(n, k); the reference divisor
        # scan must agree
        for n in range(1, 120):
            G = gc.cyclic(n)
            for k in range(n):
                assert element_order(G, k) == n // gcd(n, k)

    def test_cyclic_sum_matches_closed_form(self):
        for n in range(1, 501):
            orders = gc.cyclic(n).element_orders().tolist()
            assert orders == [n // gcd(n, k) for k in range(n)]
            assert sum(orders) == psi_cyclic(n)


class TestConstructors:
    def test_symmetric3_order_profile(self):
        S3 = gc.symmetric(3)
        counts = Counter(element_order(S3, x) for x in S3.elements())
        assert counts == {1: 1, 2: 3, 3: 2}

    def test_dihedral4(self):
        assert gc.dihedral(4).order == 8

    @pytest.mark.parametrize("n", [3, 4, 97, 512])
    def test_dihedral_is_generated_by_a_rotation_and_a_reflection(self, n):
        G = gc.dihedral(n)
        rot = G.perms.index(tuple((i + 1) % n for i in range(n)))
        ref = G.perms.index(tuple(-i % n for i in range(n)))
        assert closure(G, [rot, ref]) == frozenset(range(2 * n)) == frozenset(G.elements())
        validate(G)

    def test_alternating5(self):
        assert gc.alternating(5).order == 60

    def test_permutations_not_closed_are_rejected(self):
        # (1,0,2) * (0,2,1) = (1,2,0) is missing
        with pytest.raises(ValueError, match="not closed under composition"):
            gc.PermutationGroup([(0, 1, 2), (1, 0, 2), (0, 2, 1)])
        # {e, s, g, g*s} with s = (2 3), g = (0 1 2): right multiplication by
        # s, the first generator, keeps the set; by g, the second, does not
        with pytest.raises(ValueError, match=r"\(0, 1, 3, 2\) \* \(1, 2, 0, 3\) is not a member"):
            gc.PermutationGroup([(0, 1, 2, 3), (0, 1, 3, 2), (1, 2, 0, 3), (1, 2, 3, 0)])

    @pytest.mark.parametrize("perms, message", [
        ([], "no permutations given"),
        ([(0, 1, 2), (0, 1)], r"^\(0, 1, 2\) is not a permutation of \[0, 2\), as \(0, 1\) is$"),
        ([(0, 1), (1, 0), (0, 1, 2)], r"^\(0, 1, 2\) is not a permutation of \[0, 2\)"),
        ([(0, 1, 2), (1, 2)], r"^\(1, 2\) is not a permutation of \[0, 3\)"),
        # unchecked, {(0, 1), (1, 1)} passed as a group with table [[0, 1], [1, 1]]
        ([(0, 1), (1, 1)], r"^\(1, 1\) is not a permutation of \[0, 2\)"),
        ([(0, 1), (5, 7)], r"^\(5, 7\) is not a permutation of \[0, 2\)"),
    ], ids=["empty", "longer-first", "longer-last", "shorter", "repeated-point", "outside-points"])
    def test_tuples_that_are_not_permutations_of_one_degree_are_rejected(self, perms, message):
        with pytest.raises(ValueError, match=message):
            gc.PermutationGroup(perms)

    @pytest.mark.parametrize("make, k", [
        *((gc.symmetric, d) for d in range(1, 9)),
        *((gc.alternating, d) for d in range(1, 9)),
        *((gc.dihedral, n) for n in (3, 60, 512)),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_closed_permutation_groups_build(self, make, k):
        # every product names the composition (a*b)[i] = a[b[i]] itself: the
        # whole table up to TABLE_CAP, a seeded sample of pairs above it
        G = make(k)
        perms = np.array(G.perms).reshape(G.order, G.degree)
        if G.tabulated:
            table = G.cayley_table()
            for a in G.elements():
                assert (perms[table[a]] == perms[a][perms]).all(), a
        else:
            x, y = np.random.default_rng(1).integers(0, G.order, size=(2, 2000))
            composed = np.take_along_axis(perms[x], perms[y], axis=1)
            assert (perms[G.multiply_array(x, y)] == composed).all()

    def test_quaternion8_profile(self):
        Q8 = gc.quaternion8()
        counts = Counter(element_order(Q8, x) for x in Q8.elements())
        assert counts == {1: 1, 2: 1, 4: 6}

    def test_frobenius_order56_profile(self):
        G = gc.frobenius_field(2, 3)
        assert G.order == 56
        counts = Counter(element_order(G, x) for x in G.elements())
        assert counts == {1: 1, 2: 7, 7: 48}

    def test_abelian_of_type(self):
        G = gc.abelian_of_type({2: [2, 1], 3: [1]})
        assert G.order == 24
        assert max(element_order(G, x) for x in G.elements()) == 12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gc.symmetric(9)
        with pytest.raises(ValueError):
            gc.dihedral(2)
        with pytest.raises(ValueError):
            gc.dihedral(513)
        with pytest.raises(ValueError):
            gc.cyclic(0)
        with pytest.raises(ValueError):
            gc.frobenius_field(2, 21)


class TestDirectProduct:
    def test_c2_x_c3_is_c6(self):
        G = gc.direct_product([gc.cyclic(2), gc.cyclic(3)])
        assert G.order == 6
        assert element_order(G, G.encode((1, 1))) == 6

    def test_single_factor(self):
        G = gc.direct_product([gc.symmetric(3)])
        base = gc.symmetric(3)
        for a in G.elements():
            for b in G.elements():
                assert G.multiply(a, b) == base.multiply(a, b)

    def test_frobenius_times_c3(self):
        G = gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)])
        assert G.order == 168

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gc.direct_product([])

    def test_identity_packs_to_zero(self):
        G = gc.direct_product([gc.cyclic(4), gc.dihedral(3)])
        assert G.encode((0, 0)) == 0
        assert G.decode(0) == (0, 0)

    def test_factors_build_no_table_for_their_parent(self):
        # Frob(2,5) (992 elements) is under the table cap, but a product of
        # the 6944-element parent must not build its 992 x 992 table
        G, H = build_counterexample(CounterexampleSpec(5, 7))
        assert relative_orders(G, H).sum() == CounterexampleSpec(5, 7).psi_h
        assert [getattr(f, "_table_cache", None) for f in G.factors] == [None, None]

    def test_tabulated_product_keeps_its_factors_untabulated(self):
        G = gc.direct_product([gc.quaternion8(), gc.symmetric(3), gc.cyclic(5)])
        assert G.cayley_table().tolist() == [[G.multiply(a, b) for b in G.elements()]
                                             for a in G.elements()]
        assert getattr(G.factors[1], "_table_cache", None) is None
        assert getattr(G.factors[2], "_table_cache", None) is None


@pytest.mark.parametrize("G", [
    gc.quaternion8(),
    gc.from_cayley_table(gc.symmetric(4).cayley_table(), name="S4-table"),
    gc.from_cayley_table(gc.frobenius_field(2, 3).cayley_table(), name="Frob(2,3)-table"),
], ids=lambda g: g.name)
def test_cayley_table_group_product_reads_its_table(G):
    x = np.arange(G.order)
    product = G._product_array(x[:, None], x)
    assert product.dtype == np.int64
    assert np.array_equal(product, G.cayley_table())


class TestCayleyIngestion:
    def test_trivial(self):
        G = gc.from_cayley_table([[0]])
        assert G.order == 1

    def test_c3_table(self):
        table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        G = gc.from_cayley_table(table)
        assert sorted(element_order(G, x) for x in G.elements()) == [1, 3, 3]

    def test_non_square(self):
        with pytest.raises(CayleyTableError, match="square"):
            gc.from_cayley_table([[0, 1], [1, 0], [0, 1]])

    def test_non_latin(self):
        with pytest.raises(CayleyTableError, match="Latin"):
            gc.from_cayley_table([[0, 0], [1, 1]])

    def test_missing_identity(self):
        with pytest.raises(CayleyTableError, match="identity"):
            gc.from_cayley_table([[1, 0], [0, 1]])

    def test_associativity_failure(self):
        # rows/columns are Latin and 0 is a two-sided identity, but the
        # operation is not associative (order-5 loop that is not a group)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(CayleyTableError, match="associativity"):
            gc.from_cayley_table(table)

    def test_out_of_range_entries(self):
        with pytest.raises(CayleyTableError, match="entries"):
            gc.from_cayley_table([[0, 1], [1, 5]])

    @pytest.mark.parametrize("n, bump", [(3, 256), (300, 65536)], ids=["C3+256", "C300+65536"])
    def test_entries_that_wrap_in_the_compact_dtype_rejected(self, n, bump):
        # 256 and 65536 wrap to a valid entry in uint8 and uint16, the dtypes
        # the table is kept in, so the range check comes before the cast
        table = gc.cyclic(n).cayley_table()
        table[1, 1] += bump
        with pytest.raises(CayleyTableError, match=r"^table entries must lie in \[0, n\)$"):
            gc.from_cayley_table(table)

    @pytest.mark.parametrize("make", [gc.from_cayley_table, gc.CayleyTableGroup])
    def test_float_entries_rejected(self, make):
        # once truncated to C2 by the constructor
        with pytest.raises(CayleyTableError, match="^table entries must be integers$"):
            make([[0.0, 1.5], [1.5, 0.2]])

    def test_compact_input_array_is_copied(self):
        table = gc.cyclic(5).cayley_table().astype(np.uint8)
        G = gc.from_cayley_table(table)
        table[1] = table[2]
        assert G._table_cache.dtype == np.uint8
        assert np.array_equal(G.cayley_table(), gc.cyclic(5).cayley_table())

    def test_associativity_failure_above_order_512(self):
        # C2^11 with one intercalate swapped: still a Latin square with
        # identity 0, but with a few non-associative triples; sampling 10^5
        # random triples misses them, the exact test does not
        n = 1 << 11
        table = np.arange(n)[:, None] ^ np.arange(n)[None, :]
        table[1, [4, 7]] = table[1, [7, 4]]
        table[2, [4, 7]] = table[2, [7, 4]]
        with pytest.raises(CayleyTableError, match="associativity"):
            gc.from_cayley_table(table)


@pytest.mark.parametrize("make", [lambda: gc.symmetric(5), lambda: gc.dihedral(60),
                                  lambda: gc.frobenius_field(2, 5)], ids=["S5", "D60", "Frob(2,5)"])
def test_greedy_generators_match_closures_from_the_identity(make):
    # each generator is the least element outside the scalar closure of the
    # ones before it, that closure taken afresh from the identity
    G = make()
    want = []
    while len(reached := closure(G, want)) < G.order:
        want.append(min(set(G.elements()) - reached))
    assert list(gc._greedy_generators(G.multiply_array, G.order)) == want


def test_frobenius_kernel_and_complement_structure():
    G = gc.frobenius_field(2, 3)
    kernel = G.kernel_elements()
    comp = G.complement_elements()
    assert len(kernel) == 8 and len(comp) == 7
    # kernel is elementary abelian: every non-identity element has order 2
    assert all(element_order(G, x) == 2 for x in kernel if x != 0)
    # complement is cyclic of order 7
    assert sorted(element_order(G, x) for x in comp) == [1] + [7] * 6


def test_validate_is_exact_up_to_table_cap():
    # order 992 went through sampled associativity before; now it is exact
    validate(gc.frobenius_field(2, 5))
    G = gc.frobenius_field(2, 7)
    assert G.order == 16256
    with pytest.raises(ValueError, match="cap"):
        validate(G)


def test_cayley_table_materialization_matches_multiply():
    G = gc.symmetric(3)
    table = G.cayley_table()
    for a in G.elements():
        for b in G.elements():
            assert table[a, b] == G.multiply(a, b)
    assert table.dtype == np.int64


DIFFERENTIAL_GROUPS = rp.default_catalog(100, include_frobenius=True) + [
    gc.symmetric(5),
    gc.dihedral(60),
    gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
]


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS, ids=lambda g: g.name)
def test_vectorised_table_matches_scalar_multiply(G):
    expected = [[G.multiply(a, b) for b in G.elements()] for a in G.elements()]
    table = G.cayley_table()
    assert table.dtype == np.int64
    assert table.tolist() == expected


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS, ids=lambda g: g.name)
def test_element_orders_match_scalar_element_order(G):
    assert G.element_orders().tolist() == [element_order(G, x) for x in G.elements()]


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS + [gc.frobenius_field(2, 5), gc.cyclic(4096)],
                         ids=lambda g: g.name)
def test_power_table_matches_scalar_power(G):
    P, orders = G.power_table(), G.element_orders()
    assert orders.tolist() == [element_order(G, x) for x in G.elements()]
    assert P.shape == (orders.max(), G.order)
    assert not P.flags.writeable and P is G.power_table()
    # C4096 has 4096 rows; every 257th column stands for the rest
    cols = range(0, G.order, 257 if G.order > 1000 else 1)
    expected = [[power(G, x, k + 1) for x in cols] for k in range(len(P))]
    assert P[:, cols].tolist() == expected


def test_power_table_stays_within_one_cayley_table():
    # C4096 has an element of order 4096, so its power table is as large as
    # its Cayley table; building it may allocate little more than that
    G = gc.cyclic(4096)
    table = G._table()
    tracemalloc.start()
    try:
        P = G.power_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.nbytes == table.nbytes
    assert peak < 1.25 * table.nbytes


ABOVE_TABLE_CAP = [
    gc.frobenius_field(2, 7),
    gc.direct_product([gc.frobenius_field(2, 5), gc.cyclic(11)]),
    gc.direct_product([gc.cyclic(4096), gc.cyclic(2)]),
    gc.frobenius_field(3, 4),
    gc.symmetric(7),
]


@pytest.mark.parametrize("G", ABOVE_TABLE_CAP, ids=lambda g: g.name)
def test_multiply_array_matches_scalar_multiply_above_table_cap(G):
    assert G.order > gc.TABLE_CAP
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, G.order, size=(2, 3000))
    expected = [G.multiply(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert G.multiply_array(x, y).tolist() == expected


@pytest.mark.parametrize("G", ABOVE_TABLE_CAP + [
    gc.cyclic(65536),
    gc.symmetric(5),
    gc.quaternion8(),
    gc.frobenius_field(3, 2),
    gc.from_cayley_table(gc.frobenius_field(2, 3).cayley_table(), name="Frob(2,3)-table"),
], ids=lambda g: g.name)
def test_inverses_above_table_cap_match_scalar_inverse(G):
    # the same square-and-multiply pass runs on either side of the table cap;
    # a table group's scalar inverse reads inverses(), so check x * x^-1 too
    inv = G.inverses()
    assert inv.tolist() == [G.inverse(a) for a in G.elements()]
    assert not G.multiply_array(np.arange(G.order), inv).any()
