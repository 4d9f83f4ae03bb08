"""Scalar reference arithmetic for the tests.

Powers, element orders, relative orders, subgroup closure, nilpotency and the
group-axiom check, each built on a group's scalar `multiply`/`inverse` alone
and never on `multiply_array`, the power table or `first_powers_in`. The
program computes these quantities with its vectorised engine only, so the
tests compare that engine against this independent one.
"""

import weakref
from functools import lru_cache

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


def validate(G):
    """Check the group axioms exactly on G's Cayley table (so only up to
    TABLE_CAP), and that the scalar `inverse` agrees with the table."""
    table = G.cayley_table()
    _validate_table(table)
    inv = np.array([G.inverse(a) for a in G.elements()], dtype=np.int64)
    bad = np.flatnonzero(table[inv, np.arange(G.order)] != G.identity)
    if bad.size:
        raise CayleyTableError(f"inverse() disagrees with the table at {int(bad[0])}")


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
