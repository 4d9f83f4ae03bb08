"""Scalar reference arithmetic for the tests.

Powers, element orders, relative orders, subgroup closure, the canonical
generators of a subgroup, nilpotency and the group-axiom check, each built on a group's scalar `multiply` alone and never
on `multiply_array`, the power table or `first_powers_in`. The program
computes these quantities with its vectorised engine only, so the tests
compare that engine against this independent one. One inverse, a^(|G| - 1),
serves every group class. A reader of the table file format, on string
methods alone, stands beside the program's loader in the same way.
"""

import weakref
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from relpsi.group_core import CayleyTableError, _validate_table


def power(G, a, e):
    """a^e for e >= 0, by square-and-multiply."""
    result = G.identity
    while e:
        if e & 1:
            result = G.multiply(result, a)
        a = G.multiply(a, a)
        e >>= 1
    return result


def inverse(G, a):
    """a^-1 = a^(|G| - 1), by Lagrange."""
    return power(G, a, G.order - 1)


@lru_cache(maxsize=None)
def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def element_order(G, a):
    """Smallest m >= 1 with a^m = identity; scans the divisors of |G|."""
    for d in _divisors(G.order):
        if power(G, a, d) == G.identity:
            return d
    raise AssertionError("element order must divide group order")


def relative_order(G, H, x):
    """Smallest m >= 1 with x^m in H, one product per step; a member set
    in which no power up to the index lands raises ValueError."""
    if x in H:
        return 1
    y = x
    for m in range(2, H.index + 1):
        y = G.multiply(y, x)
        if y in H:
            return m
    raise ValueError(
        f"no power x^m with 1 <= m <= {H.index} of element {x} lies in the subgroup; "
        "its members do not form a subgroup"
    )


# group -> {x: members of <x>}; entries go with their group
_CYCLES = weakref.WeakKeyDictionary()


def cyclic_subgroup(G, x):
    """The members of <x>, stepped out from x by scalar products; built once
    per group and element."""
    cycles = _CYCLES.setdefault(G, {})
    if x not in cycles:
        members, y = {G.identity}, x
        while y != G.identity:
            members.add(y)
            y = G.multiply(y, x)
        cycles[x] = frozenset(members)
    return cycles[x]


def relative_order_by_cyclic_intersection(G, H, x):
    """|<x>| / |<x> meet H|, from the explicit cyclic subgroup: independent
    of any walk of the powers of x into H."""
    cycle = cyclic_subgroup(G, x)
    return len(cycle) // len(cycle & H.members)


def closure(G, gens):
    """The closure of the identity under right multiplication by ``gens``,
    one scalar `multiply` per product."""
    members, todo = {G.identity}, [G.identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = G.multiply(x, g)
            if y not in members:
                members.add(y)
                todo.append(y)
    return frozenset(members)


def canonical_generators(G, members):
    """The generators a subgroup with these members reports: repeatedly the
    least member of largest order outside the closure of those taken
    before, (identity,) for the trivial subgroup; each order is the size
    of the member's closure, and each closure is taken afresh by `closure`."""
    members = frozenset(members)
    orders = {x: len(closure(G, [x])) for x in members}
    gens, closed = [], closure(G, [])
    while closed != members:
        gens.append(min(members - closed, key=lambda x: (-orders[x], x)))
        closed = closure(G, gens)
    return tuple(gens) or (G.identity,)


def validate(G):
    """Check the group axioms exactly on G's Cayley table (so only up to
    TABLE_CAP), and that `inverses()` inverts every element under it."""
    table = G.cayley_table()
    _validate_table(table)
    bad = np.flatnonzero(table[G.inverses(), np.arange(G.order)] != G.identity)
    if bad.size:
        raise CayleyTableError(f"inverses() disagrees with the table at {int(bad[0])}")


def check_table_axioms(table):
    """The group axioms of a Cayley table, checked on Python lists in the
    order rows, columns, identity, associativity: raises CayleyTableError
    with the message of the first that fails. Associativity is Light's test
    over the same greedy generating set as the program's, built here by
    scalar closures, so a failure names the same first triple."""
    table = np.asarray(table)
    if table.dtype.kind not in "iu":
        raise CayleyTableError("table entries must be integers")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise CayleyTableError(f"table is not square: shape {table.shape}")
    n, rows = table.shape[0], table.tolist()
    if any(not 0 <= v < n for row in rows for v in row):
        raise CayleyTableError("table entries must lie in [0, n)")
    everything = list(range(n))
    for what, lines in (("row", rows), ("column", list(map(list, zip(*rows))))):
        for i, line in enumerate(lines):
            if sorted(line) != everything:
                raise CayleyTableError(f"{what} {i} is not a permutation (not a Latin square)")
    if rows[0] != everything or [row[0] for row in rows] != everything:
        raise CayleyTableError("element 0 is not a two-sided identity")
    magma, gens = SimpleNamespace(identity=0, multiply=lambda a, b: rows[a][b]), []
    while len(reached := closure(magma, gens)) < n:
        b = min(set(everything) - reached)
        for a in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise CayleyTableError(f"associativity fails at ({a},{b},{c})")
        gens.append(b)


def read_table_text(text):
    """The rows of a Cayley table file's text, read by the README's "Cayley
    table file format" with string methods alone: once stripped, blank lines
    and lines starting with ``#`` are skipped; the first other line is one
    positive order n, and exactly n lines of n integer tokens follow, each
    digits after at most one sign. Raises ValueError on any other text; the
    entry range and the group axioms are left to `check_table_axioms`."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
    if not lines or len(lines[0].split()) != 1 or _integer(lines[0]) < 1:
        raise ValueError("the first data line is not one positive order")
    n = _integer(lines[0])
    rows = [[_integer(token) for token in line.split()] for line in lines[1:]]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"the table is not {n} rows of {n} entries")
    return rows


def _integer(token):
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not digits or any(c not in "0123456789" for c in digits):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def is_nilpotent(G):
    """Every Sylow subgroup is normal: for each p^a exactly dividing |G|, the
    elements of p-power order number exactly p^a and are closed under the
    scalar `multiply`, so they are the one Sylow p-subgroup."""
    n, orders = G.order, [element_order(G, x) for x in G.elements()]
    for p in (d for d in _divisors(n)[1:] if _divisors(d) == [1, d]):
        p_part = p
        while n % (p_part * p) == 0:
            p_part *= p
        sylow = [x for x, m in zip(G.elements(), orders) if p_part % m == 0]
        if len(sylow) != p_part:
            return False
        members = set(sylow)
        if any(G.multiply(x, y) not in members for x in sylow for y in sylow):
            return False
    return True
