"""Relative element orders and their sums.

For a subgroup H of G, the relative order of x is the smallest m >= 1 with
x^m in H. Summing over G gives psi_relative(G, H); with H trivial this is the
plain sum of element orders psi(G). The ratio of psi_relative(G, H) to the
matching cyclic reference |H| * psi_cyclic(|G|/|H|) is the central quantity:
it is 1 for cyclic groups, at most 1 for nilpotent ones, and exceeds 1 for
the affine Frobenius groups over GF(2^r) with 2^r - 1 prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .budget import ELEMENT_CAP, power_text
from .group_core import _BLOCK, FiniteGroup, check_element_budget, first_powers_in
from .numtheory import factorize, is_prime, psi_cyclic
from .subgroup_lattice import Subgroup, _check_parent

__all__ = [
    "IndexRatioBounds",
    "relative_orders",
    "lattice_order_sums",
    "psi_relative",
    "psi",
    "cyclic_reference",
    "cyclic_orders",
    "psi_ratio",
    "psi_relative_frobenius_formula",
    "psi_relative_upper_bound",
    "ratio_bounds_for_index",
]


def relative_orders(G: FiniteGroup, H: Subgroup) -> np.ndarray:
    """Relative order of every element of G over H, indexed by encoding.

    One `first_powers_in` pass over the divisors of |G| up to H.index, the
    same for every group. An element that no such divisor's power puts in H
    raises ValueError, which only a member set that is not a subgroup can
    cause. A group above ELEMENT_CAP is refused before H is looked at.
    """
    check_element_budget(G.order, "; use a closed form instead")
    _check_parent(G, H)
    return first_powers_in(G, H.mask())


def lattice_order_sums(G: FiniteGroup, subgroups) -> tuple[list[int], list[int]]:
    """psi_relative(G, H) and the largest relative order over H, for every H
    in ``subgroups``, from one pass over the seed columns of the power table
    of a tabulated G, `seed_powers`.

    Every generator y of a cyclic subgroup <x> has the relative order of x,
    since y^m and x^m generate the same subgroup for every m. So the pass
    reads only the seed columns of the power table P, one per cyclic
    subgroup, and weights each seed's relative order by its number of
    generators. The relative order of x over H divides the order of x, and
    each divisor d of that order is the order of a power of x, so the pass
    reads only the rows x^d of P at the element orders d of G: the least d
    with x^d in H is the relative order of x. Row y of the transposed
    membership matrix marks the subgroups that hold y, so gathering its rows
    at the powers x^d marks, for each subgroup and seed, the d to take the
    least of. The masks are stacked, and gathered, in blocks of subgroups
    of at most _BLOCK entries. The subgroups must be closed, as
    ``all_subgroups`` and ``generate`` build them: unlike `relative_orders`
    this pass does not check that each is a subgroup.
    """
    _check_parent(G, *subgroups)
    seeds, weights = G.cyclic_seeds()
    # every element order is at most |G| <= TABLE_CAP, so int16 holds the gathered orders
    ds = np.flatnonzero(np.bincount(G.element_orders()[seeds])).astype(np.int16)
    powers = G.seed_powers().take(ds - 1, axis=0)
    step = max(1, _BLOCK // max(powers.size, G.order))
    sums, largest = [], []
    for lo in range(0, len(subgroups), step):
        masks = np.array([H.mask() for H in subgroups[lo:lo + step]])
        holders = masks.T.copy()  # row y marks the subgroups that hold y
        rel = np.where(holders.take(powers, axis=0), ds[:, None, None], G.order).min(axis=0)
        sums += (weights @ rel).tolist()
        largest += rel.max(axis=0).tolist()
    return sums, largest


def psi_relative(G: FiniteGroup, H: Subgroup) -> int:
    """Exact sum of relative orders over all of G, by enumeration."""
    return int(relative_orders(G, H).sum())


def psi(G: FiniteGroup) -> int:
    """Sum of element orders of G (relative order against the trivial
    subgroup); `element_orders` refuses a group above ELEMENT_CAP."""
    return int(G.element_orders().sum())


def cyclic_reference(n: int, m: int) -> int:
    """Relative order sum of C_n over its unique subgroup of order m, via the
    closed form m * psi_cyclic(n/m); never brute-forced."""
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    return m * psi_cyclic(n // m)


def cyclic_orders(n: int, dtype=np.int32) -> np.ndarray:
    """Element orders of C_n as an array of ``dtype``, int32 unless given:
    k has order n / gcd(n, k).
    gcd(n, k) is the largest divisor d of n that divides k, so writing n // d
    at every multiple of d, divisors ascending, leaves each k its own order
    with no division per element. The divisors come from trial division, not
    `factorize`, so this stays independent of the closed form psi_cyclic."""
    if not 1 <= n <= ELEMENT_CAP:
        raise ValueError(f"need 1 <= n <= {power_text(ELEMENT_CAP)}, got {n}")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    orders = np.empty(n, dtype=dtype)
    for d in small + [n // d for d in reversed(small) if d * d != n]:
        orders[::d] = n // d
    return orders


def psi_ratio(G: FiniteGroup, H: Subgroup) -> Fraction:
    """psi_relative(G, H) over the cyclic reference, exactly reduced."""
    return Fraction(psi_relative(G, H), cyclic_reference(G.order, H.order))


def psi_relative_frobenius_formula(p: int, r: int) -> int:
    """(p^r - 1) * (psi_cyclic(p^r - 1) + p): the relative order sum of the
    affine Frobenius group over GF(p^r) with respect to its complement,
    obtained from the isolated-subgroup identity."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    q = p ** r
    return (q - 1) * (psi_cyclic(q - 1) + p)


def psi_relative_upper_bound(m: int, q: int) -> int:
    """m * (q^2 - q + 1): upper bound for the relative order sum over any
    subgroup of order m and index q (each term outside H is at most q)."""
    if m < 1 or q < 1:
        raise ValueError("need m, q >= 1")
    return m * (q * q - q + 1)


@dataclass(frozen=True)
class IndexRatioBounds:
    """Upper bounds on the psi ratio in terms of the primes dividing the index.

    ``product`` = prod (p_i + 1)/p_i and ``spread`` = (p_k + 1)/p_1 are both
    proved strict bounds.
    """

    product: Fraction
    spread: Fraction


def ratio_bounds_for_index(q: int) -> IndexRatioBounds:
    if q < 2:
        raise ValueError(f"index {q} carries no bound claims: need q >= 2")
    primes = [p for p, _ in factorize(q)]
    product = Fraction(1)
    for p in primes:
        product *= Fraction(p + 1, p)
    spread = Fraction(primes[-1] + 1, primes[0])
    return IndexRatioBounds(product=product, spread=spread)

