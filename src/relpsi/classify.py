"""Nilpotency and solvability tests for catalog groups."""

from __future__ import annotations

import numpy as np

from .group_core import FiniteGroup, row_blocks
from .numtheory import factorize
from .subgroup_lattice import Subgroup, generate

__all__ = ["is_solvable", "is_nilpotent"]

_CLASSIFY_CAP = 1 << 16


def _derived_of_members(G: FiniteGroup, members: np.ndarray) -> Subgroup:
    """The derived subgroup of the subgroup with these members: the closure
    of all commutators a b a^-1 b^-1 of two members."""
    inv = G.inverses()
    commutators = np.zeros(G.order, dtype=bool)
    for rows in row_blocks(members, len(members)):
        ab = G.multiply_array(rows, members)
        commutators[G.multiply_array(ab, G.multiply_array(inv[rows], inv[members]))] = True
    return generate(G, np.flatnonzero(commutators).tolist())


def is_solvable(G: FiniteGroup) -> bool:
    """Derived series reaches the trivial subgroup."""
    if G.order > _CLASSIFY_CAP:
        raise ValueError(f"classification budget exceeded at order {G.order}")
    members = np.arange(G.order)
    # the series strictly decreases, so log2(n) steps suffice
    for _ in range(G.order.bit_length() + 1):
        if len(members) == 1:
            return True
        nxt = _derived_of_members(G, members)
        if nxt.order == len(members):
            return False
        members = np.array(nxt.elements())
    raise AssertionError("derived series failed to stabilize")


def is_nilpotent(G: FiniteGroup) -> bool:
    """True iff for every prime p | n the elements of p-power order form a
    subgroup of full p-part size (unique Sylow subgroup criterion)."""
    if G.order > _CLASSIFY_CAP:
        raise ValueError(f"classification budget exceeded at order {G.order}")
    n = G.order
    orders = G.element_orders()
    for p, a in factorize(n):
        p_part = p ** a
        # element orders divide n, so p-power orders are those dividing p^a
        p_elements = np.flatnonzero(p_part % orders == 0)
        if len(p_elements) != p_part:
            return False
        inside = np.zeros(n, dtype=bool)
        inside[p_elements] = True
        for rows in row_blocks(p_elements, len(p_elements)):
            if not inside[G.multiply_array(rows, p_elements)].all():
                return False
    return True
