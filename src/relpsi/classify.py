"""Nilpotency from element orders alone: the check of the flag that
`verify.subgroup_ratio_scan` reads off the lattice."""

from __future__ import annotations

import numpy as np

from .group_core import FiniteGroup
from .numtheory import factorize

__all__ = ["is_nilpotent"]


def is_nilpotent(G: FiniteGroup) -> bool:
    """True iff every Sylow subgroup is normal. For p^a exactly dividing n,
    the Sylow p-subgroup is unique iff exactly p^a elements have order
    dividing p^a: two Sylow p-subgroups would hold more between them. A
    group above ELEMENT_CAP is refused by `element_orders`, before any array."""
    orders = G.element_orders()
    # element orders divide n, so the p-power orders are those dividing p^a
    return all(np.count_nonzero(p ** a % orders == 0) == p ** a for p, a in factorize(G.order))
