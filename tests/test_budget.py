"""The budget table: every size cap is stated once, in `relpsi.budget`, and
each is checked before the work it bounds. For every cap, one past it is
refused with the work patched to fail, so the refusal provably comes first;
at the cap the input answers, where that takes under about a second, and
is otherwise shown to get past the check. The command-line edges of the
lattice, bijection and `psi-cyclic --brute-force` caps are in test_cli.py."""

import ast
import math
import re
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import relpsi
import relpsi.group_core as gc
from relpsi import order_sums, subgroup_lattice, verify
from relpsi.budget import (
    BIJECTION_CAP,
    DEGREE_CAP,
    DIHEDRAL_CAP,
    ELEMENT_CAP,
    ENCODING_CAP,
    FIELD_SIZE_CAP,
    LATTICE_CAP,
    QUOTIENT_INDEX_CAP,
    RATIO_TABLE_CAP,
    TABLE_CAP,
    power_text,
)
from relpsi.cli import main
from relpsi.classify import is_nilpotent
from relpsi.finite_field import FiniteField
from relpsi.order_sums import cyclic_orders, psi, relative_orders
from relpsi.subgroup_lattice import (
    Subgroup,
    _closed,
    all_subgroups,
    conjugates_intersect_trivially,
    generate,
    is_normal,
    quotient,
)
from relpsi.verify import bijection_exists, frobenius_ratio_table

SRC = Path(relpsi.__file__).resolve().parent


class Reached(Exception):
    """Raised by patched-in work, to show that a call got past its check."""


def refuse(*args, **kwargs):
    raise AssertionError("work started before the cap was checked")


def reached(*args, **kwargs):
    raise Reached


def exactly(message):
    return f"^{re.escape(message)}$"


def module_level_targets(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            yield node.target


def budget_caps():
    tree = ast.parse((SRC / "budget.py").read_text())
    return {target.id for target in module_level_targets(tree)
            if isinstance(target, ast.Name) and target.id.endswith("_CAP")}


def test_only_the_budget_module_defines_caps():
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [target.id for target in module_level_targets(tree)
                 if isinstance(target, ast.Name) and target.id.endswith("_CAP")]
        if names:
            defined[path.name] = names
    assert list(defined) == ["budget.py"]
    assert "TABLE_CAP" in defined["budget.py"]


def test_every_cap_is_read_by_another_module():
    caps = budget_caps()
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "budget.py":
            imported.update(alias.name for node in ast.walk(ast.parse(path.read_text()))
                            if isinstance(node, ast.ImportFrom) and node.module == "budget"
                            for alias in node.names)
    assert caps and caps <= imported


def test_every_cap_is_read_by_a_test_here():
    # read inside a test of this file, not only imported, so no cap lands
    # without its edge test
    tests = [node for node in ast.parse(Path(__file__).read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith(("test_", "Test"))]
    read = {node.id for test in tests for node in ast.walk(test) if isinstance(node, ast.Name)}
    assert budget_caps() <= read


def test_budget_module_imports_nothing():
    tree = ast.parse((SRC / "budget.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_power_text():
    assert power_text(ELEMENT_CAP) == "2^24"
    assert power_text(1) == "2^0"


class TestElementCap:
    """ELEMENT_CAP bounds every array over the elements of a group."""

    @pytest.fixture
    def huge(self, monkeypatch):
        """C65536 x C512, of order 2^25, and its trivial subgroup, with every
        product and factorisation patched to fail."""
        G = gc.direct_product([gc.cyclic(65536), gc.cyclic(512)])
        assert G.order == 2 * ELEMENT_CAP
        monkeypatch.setattr(G, "multiply_array", refuse)
        monkeypatch.setattr(G, "_product_array", refuse)
        monkeypatch.setattr(G, "_product", refuse)
        monkeypatch.setattr(gc, "divisors", refuse)
        trivial = np.zeros(G.order, dtype=bool)
        trivial[G.identity] = True
        return G, _closed(G, trivial, 1)

    @pytest.mark.parametrize("entry_point", [
        lambda G, H: G.element_orders(),
        lambda G, H: G.is_cyclic(),
        lambda G, H: G.inverses(),
        lambda G, H: gc.first_powers_in(G, H.mask()),
        lambda G, H: is_normal(G, H),
        lambda G, H: conjugates_intersect_trivially(G, H),
        lambda G, H: psi(G),
        lambda G, H: relative_orders(G, H),
        lambda G, H: Subgroup(G, [G.identity]),
        lambda G, H: is_nilpotent(G),
    ], ids=["element_orders", "is_cyclic", "inverses", "first_powers_in", "is_normal",
            "conjugates_intersect_trivially", "psi", "relative_orders", "Subgroup",
            "is_nilpotent"])
    def test_refused_before_any_per_element_work(self, huge, entry_point):
        G, H = huge
        message = f"group of order {G.order} exceeds the brute-force budget 2^24"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                entry_point(G, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most a boolean mask over G, one byte per element, was built first
        assert peak < 2 * G.order

    @pytest.mark.parametrize("entry_point", [
        lambda G: G.element_orders(),
        lambda G: psi(G),
        lambda G: G.is_cyclic(),
        lambda G: Subgroup(G, [G.identity]),
        lambda G: is_nilpotent(G),
        lambda G: generate(G, []),
    ], ids=["element_orders", "psi", "is_cyclic", "Subgroup", "is_nilpotent", "generate"])
    def test_refused_before_allocating(self, entry_point):
        # C65536^3 is far too large for any array over its elements, so one
        # built before the check raises MemoryError, not the budget's message
        G = gc.direct_product([gc.cyclic(1 << 16)] * 3)
        with pytest.raises(ValueError, match=exactly(
                f"group of order {2 ** 48} exceeds the brute-force budget 2^24")):
            entry_point(G)

    def test_closure_edge(self, monkeypatch):
        class Edge(gc.FiniteGroup):
            order = ELEMENT_CAP

        class Past(gc.FiniteGroup):
            order = ELEMENT_CAP + 1
            name = "past"

        monkeypatch.setattr(subgroup_lattice, "_close_right", reached)
        with pytest.raises(Reached):
            generate(Edge(), [1])
        with pytest.raises(ValueError, match=exactly(
                f"group of order {ELEMENT_CAP + 1} exceeds the brute-force budget 2^24")):
            generate(Past(), [1])

    def test_cyclic_orders_past_cap(self, monkeypatch):
        monkeypatch.setattr(order_sums, "isqrt", refuse)
        n = ELEMENT_CAP + 1
        with pytest.raises(ValueError, match=exactly(f"need 1 <= n <= 2^24, got {n}")):
            cyclic_orders(n)


def test_table_cap_edge(monkeypatch):
    assert gc.cyclic(TABLE_CAP).cayley_table().shape == (TABLE_CAP, TABLE_CAP)
    past = gc.cyclic(TABLE_CAP + 1)
    assert not past.tabulated
    monkeypatch.setattr(past, "_product_array", refuse)
    n = TABLE_CAP + 1
    for refused in (past.cayley_table, past.power_table):
        with pytest.raises(ValueError, match=exactly(
                f"refusing to materialize {n}x{n} table (cap 4096)")):
            refused()


def test_encoding_cap_edge(monkeypatch):
    # exact at the top: the exponent sum 2^63 - 2 fits an int64
    top = ENCODING_CAP - 1
    C = gc.cyclic(ENCODING_CAP)
    assert int(C.multiply_array(top, top)) == C.multiply(top, top) == top - 1
    half = gc.cyclic(1 << 31)
    G = gc.direct_product([half, half])
    assert G.order == ENCODING_CAP
    assert int(G.multiply_array(top, top)) == G.multiply(top, top) == G.encode(((1 << 31) - 2,) * 2)
    monkeypatch.setattr(gc, "itertools", SimpleNamespace(accumulate=refuse))
    with pytest.raises(ValueError, match=exactly(
            f"cyclic order must be in [1, 2^62], got {ENCODING_CAP + 1}")):
        gc.cyclic(ENCODING_CAP + 1)
    # C65536^4 and C2^31 x C(2^31 + 1): their encodings would pass 2^62
    for factors in ([gc.cyclic(1 << 16)] * 4, [half, gc.cyclic((1 << 31) + 1)]):
        order = math.prod(g.order for g in factors)
        with pytest.raises(ValueError, match=exactly(
                f"direct product of order {order} exceeds the encoding cap 2^62")):
            gc.direct_product(factors)


def test_frobenius_brute_force_is_bounded_by_the_element_cap_alone(capsys):
    # Frob(2,3) x C65537, 3 670 072 elements, well inside ELEMENT_CAP
    assert main(["frobenius", "--r", "3", "--q", "65537", "--brute-force"]) == 0
    assert "psi_H (brute force)  = 20644155 OK" in capsys.readouterr().out


def test_lattice_cap_edge(monkeypatch):
    # C_n has one subgroup per divisor of n
    assert len(all_subgroups(gc.cyclic(LATTICE_CAP))) == 12
    past = gc.cyclic(LATTICE_CAP + 1)
    monkeypatch.setattr(past, "_table", refuse)
    with pytest.raises(ValueError, match=exactly(
            f"subgroup enumeration capped at order 200, group has {LATTICE_CAP + 1}")):
        all_subgroups(past)


def test_abelian_lattice_peaks_within_a_few_mask_matrices(monkeypatch):
    # C2^6 with blocks of one subgroup: the 2825 subgroups as returned hold
    # about 4.2 times their 180 800-byte mask matrix (the matrix, and one
    # Subgroup and one row view each), the sort about 3 more; a search
    # that joined a whole round at once peaked at 28 times the matrix
    G = gc.abelian_of_type({2: [1] * 6})
    G.power_table(), G.cyclic_seeds()
    monkeypatch.setattr(gc, "_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        subs = all_subgroups(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subs) == 2825
    assert peak < 10 * len(subs) * G.order


def test_canonical_generators_peak_within_a_few_mask_matrices():
    # every canonical tuple of C2^6 read once: the coset walk's memo of
    # prefix closures, one mask per subgroup of the lattice, and the tuples
    # peak at about 5.5 times the 180 800-byte mask matrix; a memo of
    # frozensets in place of masks peaked at 13 to 14 times it
    G = gc.abelian_of_type({2: [1] * 6})
    subs = all_subgroups(G)
    tracemalloc.start()
    try:
        gens = [H.generators for H in subs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subs) == len(set(gens)) == 2825
    assert peak < 8 * len(subs) * G.order


def test_scan_past_lattice_cap_refused_before_the_catalog(monkeypatch, capsys):
    monkeypatch.setattr(verify, "default_catalog", refuse)
    assert main(["scan", "--max-order", str(LATTICE_CAP + 1)]) == 1
    assert capsys.readouterr() == ("", f"error: --max-order {LATTICE_CAP + 1} exceeds the "
                                       "subgroup enumeration cap 200\n")


def test_quotient_index_checked_before_normality(monkeypatch):
    C = gc.cyclic(QUOTIENT_INDEX_CAP)
    assert quotient(C, generate(C, [])).order == QUOTIENT_INDEX_CAP
    monkeypatch.setattr(subgroup_lattice, "is_normal", refuse)
    for index in (QUOTIENT_INDEX_CAP + 1, 2 * QUOTIENT_INDEX_CAP):
        past = gc.cyclic(index)
        with pytest.raises(ValueError, match=exactly(f"quotient index {index} exceeds cap 512")):
            quotient(past, generate(past, []))


def test_bijection_cap_edge(monkeypatch):
    # a whole order-10 000 table file is 10^8 entries, so the edge is only
    # shown to pass the check: the relative orders are its first work
    class Fake(gc.FiniteGroup):
        def __init__(self, order):
            self.order = order

    H = generate(gc.cyclic(2), [])
    monkeypatch.setattr(verify, "relative_orders", reached)
    with pytest.raises(Reached):
        bijection_exists(Fake(BIJECTION_CAP), H)
    with pytest.raises(ValueError, match=exactly("bijection decision capped at order 10000")):
        bijection_exists(Fake(BIJECTION_CAP + 1), H)


def test_field_size_cap_edge():
    assert 2 ** 20 == FIELD_SIZE_CAP
    # 1021^2 = 1 042 441 is the largest p^2 under the cap, 1 048 573 the
    # largest prime; each builds in about 0.3 s
    for p, r in [(2, 20), (1021, 2), (1048573, 1)]:
        started = time.perf_counter()
        F = FiniteField(p, r)
        assert time.perf_counter() - started < 1.0
        assert np.array_equal(np.sort(F._exp), np.arange(1, F.size))
    for p, r in [(2, 21), (1031, 2), (2, 10 ** 9)]:
        with pytest.raises(ValueError, match=exactly(f"field size {p}^{r} exceeds cap 2^20")):
            FiniteField(p, r)


def test_dihedral_cap_edge(monkeypatch):
    assert gc.dihedral(DIHEDRAL_CAP).order == 2 * DIHEDRAL_CAP
    monkeypatch.setattr(gc, "PermutationGroup", refuse)
    with pytest.raises(ValueError, match=exactly(
            f"dihedral parameter must be in [3, 512], got {DIHEDRAL_CAP + 1}")):
        gc.dihedral(DIHEDRAL_CAP + 1)


def test_degree_cap_edge(monkeypatch):
    assert gc.symmetric(DEGREE_CAP).order == 40320
    assert gc.alternating(DEGREE_CAP).order == 20160
    monkeypatch.setattr(gc, "itertools", SimpleNamespace(permutations=refuse))
    for make, kind in [(gc.symmetric, "symmetric"), (gc.alternating, "alternating")]:
        with pytest.raises(ValueError, match=exactly(
                f"{kind} degree must be in [1, 8], got {DEGREE_CAP + 1}")):
            make(DEGREE_CAP + 1)


def test_ratio_table_cap_edge(monkeypatch):
    assert [row[0] for row in frobenius_ratio_table(RATIO_TABLE_CAP)] == list(range(3, 65))
    monkeypatch.setattr(verify, "frobenius_ratio_closed_form", refuse)
    with pytest.raises(ValueError, match=exactly(
            f"need 3 <= r_max <= 64, got {RATIO_TABLE_CAP + 1}")):
        frobenius_ratio_table(RATIO_TABLE_CAP + 1)
