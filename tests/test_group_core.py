import ast
import random
import tracemalloc
import warnings
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import relpsi as rp
import relpsi.group_core as gc
from relpsi.budget import LATTICE_CAP
from relpsi.group_core import CayleyTableError
from relpsi.numtheory import psi_cyclic
from relpsi.order_sums import cyclic_orders, relative_orders
from relpsi.verify import CounterexampleSpec, build_counterexample
from reference import check_table_axioms, closure, element_order, power, validate


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


# rows and columns are Latin and 0 is a two-sided identity, but the
# operation is not associative: an order-5 loop that is not a group
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def table_outcome(check, table):
    """(error type, message) from ``check(table)``, or None if it passes."""
    try:
        check(table)
    except ValueError as err:
        return type(err).__name__, str(err)
    return None


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
        with pytest.raises(CayleyTableError, match="associativity"):
            gc.from_cayley_table(LOOP5)

    @pytest.mark.parametrize("table, message", [
        ([[0, 1, 2], [1, 0, 2], [2, 0, 1]], "column 1 is not a permutation (not a Latin square)"),
        ([[1, 0], [1, 0]], "column 0 is not a permutation (not a Latin square)"),
        ([[0, 0], [1, 1]], "row 0 is not a permutation (not a Latin square)"),
        ([[0, 1], [1, 1]], "row 1 is not a permutation (not a Latin square)"),
        ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
        (LOOP5, "associativity fails at (1,1,2)"),
        ([[0, 1], [1, 2]], "table entries must lie in [0, n)"),
        ([[0, 1, 2], [1, 2, 0]], "table is not square: shape (2, 3)"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], None),
    ], ids=["latin-rows-identity", "latin-rows", "row-0", "row-1", "identity", "loop",
            "range", "non-square", "C3"])
    def test_errors_keep_their_precedence(self, table, message):
        # rows, then columns, then identity, then associativity, although the
        # columns are sorted only once the identity or associativity fails;
        # the first table has permutation rows and a two-sided identity
        assert table_outcome(check_table_axioms, table) == (
            None if message is None else ("CayleyTableError", message))
        assert table_outcome(gc.from_cayley_table, table) == table_outcome(check_table_axioms, table)

    @pytest.mark.parametrize("name, make", [
        ("S3", lambda: gc.symmetric(3).cayley_table()),
        ("Q8", lambda: gc.quaternion8().cayley_table()),
        ("C6", lambda: gc.cyclic(6).cayley_table()),
        ("D5", lambda: gc.dihedral(5).cayley_table()),
        ("loop5", lambda: np.array(LOOP5)),
    ], ids=["S3", "Q8", "C6", "D5", "loop5"])
    def test_seeded_corruptions_match_the_reference(self, name, make):
        # a swap inside one row keeps the rows Latin and breaks two columns;
        # a swap inside one column does the reverse; a swap anywhere and an
        # overwrite with an encoding usually break both
        table = make()
        n, seen = len(table), Counter()
        for seed in range(60):
            rng = random.Random(f"{name}/{seed}")
            bad = table.copy()
            r, c, r2, c2 = (rng.randrange(n) for _ in range(4))
            kind = seed % 4
            if kind == 3:
                bad[r, c] = rng.randrange(n)
            else:
                r2 = r if kind == 0 else r2
                c2 = c if kind == 1 else c2
                bad[[r, r2], [c, c2]] = bad[[r2, r], [c2, c]]
            want = table_outcome(check_table_axioms, bad)
            assert table_outcome(gc.from_cayley_table, bad) == want, (name, seed, bad.tolist())
            seen[want[1].split()[0] if want else None] += 1
        assert seen["row"] and seen["column"], seen

    def test_latin_checks_in_blocks_name_the_first_bad_line(self, monkeypatch):
        # rows, and columns behind good rows, checked in blocks of 3 of D5's
        # 10 (blocks hold _BLOCK / 8 entries): a bad row or column past the
        # first block is named by its index in the table, as the reference
        # names it
        monkeypatch.setattr(gc, "_BLOCK", 240)
        table, seen = gc.dihedral(5).cayley_table(), Counter()
        for seed in range(60):
            rng = random.Random(f"blocks/{seed}")
            bad = table.copy()
            r, c, c2 = rng.randrange(3, 10), rng.randrange(10), rng.randrange(10)
            if seed % 2:
                bad[[r, r], [c, c2]] = bad[[r, r], [c2, c]]  # columns c and c2
            else:
                bad[r, c] = bad[r, c2]  # row r, unless c == c2
            want = table_outcome(check_table_axioms, bad)
            assert table_outcome(gc.from_cayley_table, bad) == want, (seed, bad.tolist())
            if want:
                seen[want[1].split()[0], int(want[1].split()[1]) >= 3] += 1
        assert seen["row", True] and seen["column", True], seen

    @pytest.mark.parametrize("make", [gc.from_cayley_table, gc.CayleyTableGroup])
    def test_empty_table_rejected(self, make):
        # refused before the range check, whose min() has no value on it
        with pytest.raises(CayleyTableError, match="^table is empty: a group has an identity$"):
            make(np.zeros((0, 0), dtype=np.int64))

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
    kernel = [G.encode(a, 0) for a in range(G.q)]
    comp = [G.encode(0, k) for k in range(G.q - 1)]
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


# C_n for every n up to LATTICE_CAP, past the catalog's C1..C100, and C4096
CYCLIC_PAST_CATALOG = [gc.cyclic(n) for n in range(101, LATTICE_CAP + 1)] + [gc.cyclic(4096)]


@pytest.mark.parametrize("G", DIFFERENTIAL_GROUPS + [gc.frobenius_field(2, 5)] + CYCLIC_PAST_CATALOG,
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


@pytest.mark.parametrize("n", [*range(1, LATTICE_CAP + 1), 4096])
def test_cyclic_power_table_matches_doubling_and_sieve(n):
    # the arithmetic rows k*x mod n against the doubling through C_n's own
    # table, taken as a table group, and the divisor sieve of cyclic_orders
    G, doubled = gc.cyclic(n), gc.CayleyTableGroup(gc.cyclic(n).cayley_table())
    P, orders = G.power_table(), G.element_orders()
    assert P.dtype == doubled.power_table().dtype
    assert np.array_equal(P, doubled.power_table())
    assert np.array_equal(orders, doubled.element_orders())
    assert np.array_equal(orders, cyclic_orders(n))
    assert getattr(G, "_table_cache", None) is None


@pytest.mark.parametrize("n", [*range(1, LATTICE_CAP + 1), 4096])
def test_cyclic_seeds_in_closed_form_match_the_power_table(n):
    # C_n's seeds n/d and weights phi(d), built with no power table, against
    # the generic minimum over the power table's generator entries
    G = gc.cyclic(n)
    seeds, weights = G.cyclic_seeds()
    assert getattr(G, "_power_cache", None) is None
    expected = gc.FiniteGroup.cyclic_seeds(gc.cyclic(n))
    for got, want in zip((seeds, weights), expected):
        assert got.dtype == want.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)
    assert G.cyclic_seeds()[0] is seeds


@pytest.mark.parametrize("n", [*range(1, LATTICE_CAP + 1), 4096])
def test_cyclic_seed_powers_build_no_power_table(n):
    # C_n's rows k*x mod n at its seeds alone, against the generic columns
    # of the power table that doubling through C_n's own table builds
    G = gc.cyclic(n)
    P = G.seed_powers()
    assert getattr(G, "_power_cache", None) is None
    assert getattr(G, "_table_cache", None) is None
    assert not P.flags.writeable and G.seed_powers() is P
    doubled = gc.CayleyTableGroup(gc.cyclic(n).cayley_table())
    expected = doubled.power_table()[:, G.cyclic_seeds()[0]]
    assert P.dtype == expected.dtype and np.array_equal(P, expected)
    assert np.array_equal(gc.FiniteGroup.seed_powers(doubled), expected)


@pytest.mark.parametrize("n", [*range(1, LATTICE_CAP + 1), 4096, 5040])
def test_cyclic_element_orders_by_the_sieve(n):
    # the divisor sieve against the doubling through C_n's own table, and
    # above TABLE_CAP against the generic power pass
    G = gc.cyclic(n)
    orders = G.element_orders()
    assert getattr(G, "_power_cache", None) is None
    assert getattr(G, "_table_cache", None) is None
    assert orders.dtype == np.int64 and not orders.flags.writeable
    assert G.element_orders() is orders
    if n <= gc.TABLE_CAP:
        expected = gc.CayleyTableGroup(gc.cyclic(n).cayley_table()).element_orders()
    else:
        expected = gc.FiniteGroup.element_orders(gc.cyclic(n))
    assert np.array_equal(orders, expected)


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
    gc.direct_product([gc.direct_product([gc.frobenius_field(2, 5), gc.cyclic(3)]), gc.cyclic(5)]),
    gc.direct_product([gc.symmetric(5), gc.cyclic(41)]),
    gc.direct_product([gc.frobenius_field(3, 4), gc.cyclic(2)]),
]


@pytest.mark.parametrize("G", ABOVE_TABLE_CAP, ids=lambda g: g.name)
def test_join_inverts_split_above_table_cap(G):
    x = np.arange(G.order)
    coords = G._split(x)
    assert len(coords) == G._width
    assert np.array_equal(G._join(coords), x)


def test_each_group_class_has_one_product():
    # FiniteGroup alone defines the product on encodings, as join, product
    # and split; every other class defines its product on coordinates only
    tree = ast.parse(Path(gc.__file__).read_text())
    methods = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert not [name for name, defs in methods.items() if {"_product_array", "_product"} <= defs]
    assert [name for name, defs in methods.items() if "_product_array" in defs] == ["FiniteGroup"]
    assert [name for name, defs in methods.items() if "_product" in defs] == [
        "CyclicGroup", "CayleyTableGroup", "PermutationGroup", "FrobeniusFieldGroup",
        "DirectProductGroup"]


def test_first_powers_in_has_one_product_path():
    # every group runs the pass on its own coordinates and product, which for
    # a table group is already its table read
    tree = ast.parse(Path(gc.__file__).read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "first_powers_in")
    read = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    read |= {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert not read & {"tabulated", "_table", "_table_cache"}


@pytest.mark.parametrize("n", [1, 2, 3, 127, (1 << 31) - 1, 1 << 62])
def test_reduce_is_s_mod_n(n):
    # every s in [0, 2n): the ends of both halves and random points, on an
    # int64 array and one 0-d input at a time; a wrap that warned would fail
    rng = random.Random(n)
    points = [0, n - 1, n, 2 * n - 1] + [rng.randrange(2 * n) for _ in range(60)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduced = gc._reduce(np.array(points, dtype=np.int64), n)
        assert reduced.dtype == np.int64
        assert reduced.tolist() == [s % n for s in points]
        for s in points:
            one = gc._reduce(np.int64(s), n)
            assert one.dtype == np.int64 and int(one) == s % n
            assert int(gc._reduce(np.array(s, dtype=np.int64), n)) == s % n


def test_first_powers_in_holds_one_array_over_the_group(monkeypatch):
    # the int64 result is the pass's one array over G: each block's elements
    # outside H come from the mask, and small blocks keep the rest small
    monkeypatch.setattr(gc, "_BLOCK", 1 << 12)
    G, H = build_counterexample(CounterexampleSpec(7, 3))
    assert G.order > gc.TABLE_CAP
    relative_orders(G, H)  # builds H's mask
    tracemalloc.start()
    try:
        relative_orders(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * G.order


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
    # inverses are unique, so x * inv[x] = identity under the scalar multiply,
    # which reads no inverse, pins every entry
    inv = G.inverses()
    assert all(G.multiply(x, y) == G.identity for x, y in enumerate(inv.tolist()))
    assert not G.multiply_array(np.arange(G.order), inv).any()
