"""Nilpotency and solvability tests for catalog groups."""

from __future__ import annotations

import numpy as np

from .group_core import TABLE_CAP, FiniteGroup, _greedy_generators, row_blocks
from .numtheory import factorize
from .subgroup_lattice import Subgroup, generate

__all__ = ["is_solvable", "is_nilpotent"]

_CLASSIFY_CAP = 1 << 16


def _derived_of_members(G: FiniteGroup, members: np.ndarray, gens) -> Subgroup:
    """The derived subgroup [K, K] of the subgroup K with these members and
    generating set ``gens``: the closure of the commutators
    [a, s] = a s a^-1 s^-1 with a in K and s in ``gens``. It holds every
    [a, b]: [a, bt] = [a, b] * b[a, t]b^-1 and b[a, t]b^-1 = [ba, t][b, t]^-1."""
    inv = G.inverses()
    gens = np.asarray(gens, dtype=np.int64)
    commutators = np.zeros(G.order, dtype=bool)
    for rows in row_blocks(members, len(gens)):
        ab = G.multiply_array(rows, gens)
        commutators[G.multiply_array(ab, G.multiply_array(inv[rows], inv[gens]))] = True
    return generate(G, np.flatnonzero(commutators).tolist())


def is_solvable(G: FiniteGroup) -> bool:
    """Derived series reaches the trivial subgroup. Each step takes the
    commutators of the members with a generating set: a greedy one for G,
    the commutators that generated the step before below it."""
    if G.order > TABLE_CAP:
        raise ValueError(f"classification budget exceeded at order {G.order}")
    members = np.arange(G.order)
    gens = list(_greedy_generators(G.multiply_array, G.order))
    # the series strictly decreases, so log2(n) steps suffice
    for _ in range(G.order.bit_length() + 1):
        if len(members) == 1:
            return True
        nxt = _derived_of_members(G, members, gens)
        if nxt.order == len(members):
            return False
        members, gens = np.array(nxt.elements()), nxt.generators
    raise AssertionError("derived series failed to stabilize")


def is_nilpotent(G: FiniteGroup) -> bool:
    """True iff every Sylow subgroup is normal. For p^a exactly dividing n,
    the Sylow p-subgroup is unique iff exactly p^a elements have order
    dividing p^a: two Sylow p-subgroups would hold more between them."""
    if G.order > _CLASSIFY_CAP:
        raise ValueError(f"classification budget exceeded at order {G.order}")
    orders = G.element_orders()
    # element orders divide n, so the p-power orders are those dividing p^a
    return all(np.count_nonzero(p ** a % orders == 0) == p ** a for p, a in factorize(G.order))
