import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy

import relpsi.group_core as gc
from relpsi.classify import is_nilpotent
from relpsi.numtheory import frobenius_ratio_closed_form, psi_cyclic
from relpsi.order_sums import psi, psi_ratio, psi_relative, relative_orders
from relpsi.subgroup_lattice import generate
from relpsi.verify import (
    CounterexampleSpec,
    ViolationRecord,
    bijection_exists,
    build_counterexample,
    check_bijection,
    default_catalog,
    frobenius_ratio_table,
    scan_catalog,
    subgroup_count_mismatch,
    subgroup_ratio_scan,
)
from reference import inverse, relative_order


def corrupt_witness(G, H, res):
    """``res`` with two images swapped so that an element of relative order
    above 1 maps to 0, of relative order 1 in C_n."""
    witness = list(res.witness)
    x = int(relative_orders(G, H).argmax())
    y = witness.index(0)
    witness[x], witness[y] = witness[y], witness[x]
    return replace(res, witness=tuple(witness))


class TestSubgroupRatioScan:
    def test_cyclic_all_ratios_one(self):
        for rec in subgroup_ratio_scan(gc.cyclic(24)):
            assert rec.ratio == 1
            assert not rec.is_violation

    def test_s3_no_violations(self):
        records = subgroup_ratio_scan(gc.symmetric(3))
        assert not any(rec.is_violation for rec in records)
        trivial = next(rec for rec in records if rec.subgroup_order == 1)
        assert trivial.ratio == Fraction(13, 21)

    def test_frobenius_violators_are_the_complement_conjugates(self):
        records = subgroup_ratio_scan(gc.frobenius_field(2, 3))
        violations = [rec for rec in records if rec.is_violation]
        # exactly the 8 conjugates of the order-7 complement
        assert len(violations) == 8
        assert all(rec.subgroup_order == 7 for rec in violations)
        assert all(rec.ratio == Fraction(45, 43) for rec in violations)
        assert all(not rec.nilpotent and rec.solvable for rec in violations)


class TestSubgroupCountMismatch:
    """Frobenius (1895): for each p^k dividing |G|, G has 1 mod p subgroups
    of order p^k; the first count of a lattice that breaks this is named."""

    def test_every_catalog_lattice_passes(self, catalog_subgroups):
        for G, subgroups in catalog_subgroups:
            assert subgroup_count_mismatch(G.order, (H.order for H in subgroups)) is None, G.name

    def test_counts(self):
        message = "the lattice has {} subgroups of order {}, not 1 mod {} as Frobenius' theorem requires"
        assert subgroup_count_mismatch(1, [1]) is None
        # S3: three subgroups of order 2 and one of order 3
        assert subgroup_count_mismatch(6, [1, 2, 2, 2, 3, 6]) is None
        assert subgroup_count_mismatch(6, [1, 2, 2, 3, 6]) == message.format(2, 2, 2)
        assert subgroup_count_mismatch(6, [1, 2, 2, 2, 6]) == message.format(0, 3, 3)
        # C8 lacks no order but 4; the whole group counts at p^a
        assert subgroup_count_mismatch(8, [1, 2, 8]) == message.format(0, 4, 2)
        assert subgroup_count_mismatch(8, [1, 2, 4]) == message.format(0, 8, 2)


class TestViolationRecord:
    def test_keyword_record_and_report_keys(self):
        # the scan's byte-identical reports rest on this key order; the
        # record keeps its subgroup and reports the subgroup's generators
        H = generate(gc.frobenius_field(2, 3), [2, 1])
        assert (H.order, H.generators) == (7, (1, 2))
        rec = ViolationRecord(group="G", group_order=56, subgroup=H, psi_h=90,
                              cyclic_reference=86, nilpotent=False, solvable=True)
        assert rec.ratio == Fraction(45, 43)
        assert rec.is_violation and rec.subgroup_order == 7
        assert list(rec.to_json_dict().items()) == [
            ("group", "G"),
            ("group_order", 56),
            ("subgroup_order", 7),
            ("subgroup_generators", [1, 2]),
            ("psi_h", "90"),
            ("cyclic_reference", "86"),
            ("ratio", {"num": "45", "den": "43"}),
            ("is_violation", True),
            ("nilpotent", False),
            ("solvable", True),
        ]
        equal = ViolationRecord(group="G", group_order=56, subgroup=H, psi_h=86,
                                cyclic_reference=86, nilpotent=False, solvable=True)
        assert equal.ratio == 1 and not equal.is_violation


class TestCounterexampleSpec:
    def test_valid_specs(self):
        CounterexampleSpec(3).validate()
        CounterexampleSpec(3, 3).validate()
        CounterexampleSpec(5, 11).validate()

    def test_non_mersenne_r(self):
        with pytest.raises(ValueError, match="not prime"):
            CounterexampleSpec(4).validate()

    def test_even_cofactor(self):
        with pytest.raises(ValueError, match="odd"):
            CounterexampleSpec(3, 2).validate()

    def test_cofactor_dividing(self):
        with pytest.raises(ValueError, match="divides"):
            CounterexampleSpec(3, 7).validate()

    def test_composite_cofactor(self):
        with pytest.raises(ValueError, match="prime"):
            CounterexampleSpec(3, 9).validate()

    def test_orders(self):
        spec = CounterexampleSpec(3, 3)
        assert spec.group_order == 168
        assert spec.subgroup_order == 21

    def test_value_semantics(self):
        spec = CounterexampleSpec(7)
        assert repr(spec) == "CounterexampleSpec(r=7, q=0)"
        assert spec == CounterexampleSpec(7, 0) == CounterexampleSpec(r=7, q=0)
        assert spec != CounterexampleSpec(7, 3) and spec != CounterexampleSpec(5)
        assert hash(spec) == hash(CounterexampleSpec(7, 0))
        assert len({spec, CounterexampleSpec(7, 0), CounterexampleSpec(7, 3)}) == 2
        with pytest.raises(AttributeError):
            spec.r = 5
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert (spec.r, spec.q) == (7, 0)


class TestBuildCounterexample:
    def test_plain_r3(self):
        G, H = build_counterexample(CounterexampleSpec(3))
        assert G.order == 56 and H.order == 7
        assert psi_ratio(G, H) == Fraction(45, 43)

    def test_with_cofactor(self):
        G, H = build_counterexample(CounterexampleSpec(3, 3))
        assert G.order == 168 and H.order == 21
        assert psi_ratio(G, H) == Fraction(45, 43)

    @pytest.mark.parametrize("r", [3, 5])
    def test_brute_force_matches_closed_form(self, r):
        G, H = build_counterexample(CounterexampleSpec(r))
        assert psi_ratio(G, H) == frobenius_ratio_closed_form(r)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            build_counterexample(CounterexampleSpec(6))

    def test_brute_force_builds_no_table(self):
        # Frob(2,5) x C3 has 2976 elements, under TABLE_CAP: the closure and
        # the relative-order pass multiply on coordinates all the same
        spec = CounterexampleSpec(5, 3)
        G, H = build_counterexample(spec)
        assert G.order == 2976 <= gc.TABLE_CAP
        assert getattr(G, "_table_cache", None) is None
        assert psi_relative(G, H) == spec.psi_h
        assert [getattr(X, "_table_cache", None) for X in (G, *G.factors)] == [None] * 3


class TestBijection:
    def test_cyclic_always_true(self):
        for n in (1, 6, 12, 36):
            G = gc.cyclic(n)
            for d in range(1, n + 1):
                if n % d:
                    continue
                H = generate(G, [n // d]) if d > 1 else generate(G, [])
                res = bijection_exists(G, H)
                assert res.exists

    def test_frobenius_complement_negative(self):
        G = gc.frobenius_field(2, 3)
        H = generate(G, [G.encode(0, 1)])
        res = bijection_exists(G, H)
        assert not res.exists
        # 42 elements of relative order 7 have nowhere to go: no relative
        # order in C_56 over its order-7 subgroup is divisible by 7
        assert res.deficient_values == {7: 42}
        assert res.neighborhood_values == {}
        assert res.deficiency() == 42

    def test_s3_trivial_subgroup_positive(self):
        G = gc.symmetric(3)
        res = bijection_exists(G, generate(G, []))
        assert res.exists

    def test_witness_is_valid(self):
        from math import gcd

        G = gc.symmetric(4)
        H = generate(G, [])
        res = bijection_exists(G, H)
        assert res.exists
        witness = res.witness
        n = G.order
        assert sorted(witness) == list(range(n))  # bijection onto C_n
        for x in G.elements():
            left = relative_order(G, H, x)
            right = n // gcd(n, witness[x])  # relative order in C_n, trivial H
            assert right % left == 0

    def test_boolean_independent_of_enumeration_order(self):
        # re-encode S3 by conjugating the element labels; result must agree
        G = gc.frobenius_field(2, 3)
        H = generate(G, [G.encode(0, 1)])
        base = bijection_exists(G, H).exists
        conjugates = [generate(G, [G.multiply(G.multiply(g, G.encode(0, 1)), inverse(G, g))])
                      for g in list(G.elements())[:10]]
        for Hc in conjugates:
            assert bijection_exists(G, Hc).exists == base

    def test_ratio_above_one_forces_no_bijection(self, catalog_subgroups_64):
        for G, subs in catalog_subgroups_64:
            for H in subs:
                if psi_ratio(G, H) > 1:
                    assert not bijection_exists(G, H).exists

    def test_every_catalog_certificate_checks(self, catalog_subgroups_64):
        decisions = set()
        for G, subs in catalog_subgroups_64:
            for H in subs:
                res = bijection_exists(G, H)
                assert check_bijection(G, H, res) is None, (G.name, H)
                decisions.add(res.exists)
        assert decisions == {True, False}

    def test_witness_images_ascend_within_each_value(self, catalog_subgroups_64):
        # the tie-break, which no flow decides: of the elements whose images
        # share a relative order in C_n, the larger element gets the larger image
        pairs = 0
        for G, subs in catalog_subgroups_64:
            for H in subs:
                res = bijection_exists(G, H)
                if not res.exists:
                    continue
                q = G.order // H.order
                witness = np.array(res.witness)
                image_rel = q // np.gcd(q, witness)
                for w in np.unique(image_rel):
                    assert np.all(np.diff(witness[image_rel == w]) > 0), (G.name, H.generators, w)
                pairs += 1
        assert pairs > 1000  # 1345 catalog pairs have a bijection

    def test_corrupted_witness_is_caught(self):
        G = gc.symmetric(4)
        H = generate(G, [1])
        res = bijection_exists(G, H)
        assert res.exists and check_bijection(G, H, res) is None
        bad = corrupt_witness(G, H, res)
        assert "maps to" in check_bijection(G, H, bad)
        repeated = replace(res, witness=res.witness[:-1] + res.witness[:1])
        assert check_bijection(G, H, repeated) == "the witness is not a permutation of C_n"
        assert check_bijection(G, H, replace(res, witness=res.witness[:-1])) is not None

    def test_corrupted_deficiency_is_caught(self):
        G = gc.frobenius_field(2, 3)
        H = generate(G, [G.encode(0, 1)])
        res = bijection_exists(G, H)
        assert not res.exists and check_bijection(G, H, res) is None
        # {7: 42} reaches no value of C_56; adding 1 and 7 claims more
        miscounted = replace(res, deficient_values={7: 41})
        assert "do not count" in check_bijection(G, H, miscounted)
        unreached = replace(res, neighborhood_values={1: 7})
        assert "not those divisible" in check_bijection(G, H, unreached)
        no_violation = replace(res, deficient_values={1: 7, 7: 42},
                               neighborhood_values={1: 7, 2: 7, 4: 14, 8: 28})
        assert "not more than" in check_bijection(G, H, no_violation)
        empty = replace(res, deficient_values={}, neighborhood_values={})
        assert "not more than" in check_bijection(G, H, empty)

    def test_cap(self):
        class Fake(gc.FiniteGroup):
            order = 20_000

        with pytest.raises(ValueError, match="capped"):
            bijection_exists(Fake(), generate(gc.cyclic(2), []))


class TestScanCatalog:
    def test_empty(self):
        report = scan_catalog([])
        assert report.results == [] and report.total_violations == 0

    def test_up_to_63_no_violations(self):
        groups = [G for G in default_catalog(63)]
        report = scan_catalog(groups)
        assert report.total_violations == 0
        assert not report.errors
        for res in report.results:
            assert res.psi_value <= psi_cyclic(res.group_order)

    def test_summary_is_psi_of_the_group_and_of_c_n(self, catalog100):
        # read off the trivial subgroup's record, against psi(G) and the
        # closed form psi(C_n) computed here
        report = scan_catalog(catalog100)
        assert not report.errors
        groups = {G.name: G for G in catalog100}
        assert len(report.results) == len(groups)
        for res in report.results:
            G = groups[res.group]
            assert res.psi_value == psi(G)
            assert res.psi_cyclic_value == psi_cyclic(G.order)

    def test_cyclic_groups_build_no_table(self):
        # C_n reads its power table off k*x mod n, and its lattice off the
        # seed columns of that table
        catalog = default_catalog(100, include_frobenius=True)
        scan_catalog(catalog)
        cyclic = [G for G in catalog if isinstance(G, gc.CyclicGroup)]
        assert len(cyclic) == 100
        assert [getattr(G, "_table_cache", None) for G in cyclic] == [None] * 100

    def test_catalog_with_frobenius_flags_exactly_one_group(self):
        report = scan_catalog(default_catalog(56, include_frobenius=True))
        assert report.flagged_groups == ["Frob(2,3)"]

    def test_violations_are_listed_once(self):
        res = scan_catalog([gc.frobenius_field(2, 3)]).results[0]
        assert res.violations is res.violations
        assert res.violations == [rec for rec in res.records if rec.ratio > 1]
        assert len(res.violations) == 8

    def test_errors_collected_and_scan_continues(self):
        class Broken(gc.FiniteGroup):
            order = 4
            name = "broken"

            def multiply(self, a, b):
                raise RuntimeError("boom")

        report = scan_catalog([Broken(), gc.cyclic(3)])
        assert report.errors == [
            ("broken", "AttributeError: 'Broken' object has no attribute '_product'")
        ]
        assert [r.group for r in report.results] == ["C3"]


class TestRatioTable:
    def test_r3_single_row(self):
        rows = frobenius_ratio_table(3)
        assert rows == [(3, Fraction(45, 43), True, True)]

    def test_r5(self):
        rows = frobenius_ratio_table(5)
        assert [r for r, *_ in rows] == [3, 4, 5]
        assert rows[1][2] is False  # 2^4 - 1 = 15 composite
        assert rows[2][1] == Fraction(933, 683)

    def test_all_rows_below_three_halves(self):
        for _, ratio, _, below in frobenius_ratio_table(20):
            assert below and ratio < Fraction(3, 2)


class TestDefaultCatalog:
    def test_orders_respected(self):
        assert all(G.order <= 64 for G in default_catalog(64, include_frobenius=True))

    def test_names_unique(self):
        names = [G.name for G in default_catalog(200, include_frobenius=True)]
        assert len(names) == len(set(names)) == 242

    def test_abelian_groups_of_each_order_up_to_32(self):
        # one abelian group for each choice of a partition of every exponent
        # a_i of n = prod p_i^(a_i); abelian groups of one order are
        # isomorphic iff they have the same multiset of element orders
        catalog = default_catalog(32)
        for n in range(1, 33):
            abelian = [G for G in catalog if G.order == n
                       and (G.cayley_table() == G.cayley_table().T).all()]
            expected = math.prod(sympy.partition(a) for a in sympy.factorint(n).values())
            assert len(abelian) == expected, n
            orders = {tuple(sorted(Counter(G.element_orders().tolist()).items())) for G in abelian}
            assert len(orders) == expected, n
            assert len({G.name for G in abelian}) == expected, n
        # the catalog lists them by partition, largest first part first
        assert [G.name for G in catalog if G.order == 16 and G.name != "C16"][:4] == [
            "C8xC2", "C4xC4", "C4xC2xC2", "C2xC2xC2xC2"]

    def test_frobenius_groups_opt_in(self):
        plain = {G.name for G in default_catalog(100)}
        full = {G.name for G in default_catalog(100, include_frobenius=True)}
        assert full - plain == {"Frob(2,3)", "Frob(3,2)"}

    def test_contains_nilpotent_and_non_nilpotent(self, catalog100):
        flags = {is_nilpotent(G) for G in catalog100 if G.order <= 64}
        assert flags == {True, False}
