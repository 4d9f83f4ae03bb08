"""Subgroups: closure generation, full enumeration, normality, quotients,
and the isolated/malnormal tests used by the Frobenius construction."""

from __future__ import annotations

import math

import numpy as np

from .group_core import CayleyTableGroup, FiniteGroup, _close_right, row_blocks

__all__ = [
    "Subgroup",
    "generate",
    "all_subgroups",
    "is_normal",
    "quotient",
    "is_isolated",
    "conjugates_intersect_trivially",
]

_LATTICE_CAP = 200
_CLOSURE_CAP = 1 << 24
_QUOTIENT_INDEX_CAP = 512


class Subgroup:
    """Immutable element set inside a parent group.

    The constructor checks that ``members`` form a subgroup of ``parent``
    and raises ValueError otherwise; closures built here skip that check.
    Only ``generate`` and ``all_subgroups`` record ``generators``; a
    subgroup built from its members alone has none.
    """

    __slots__ = ("parent", "members", "_sorted", "generators", "_mask")

    def __init__(self, parent: FiniteGroup, members):
        _fill(self, parent, frozenset(map(int, members)), ())
        self.check()

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x) -> bool:
        return x in self.members

    def elements(self) -> tuple[int, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.members))
        return self._sorted

    def mask(self) -> np.ndarray:
        """Read-only boolean membership array over the parent's encodings."""
        if self._mask is None:
            mask = np.zeros(self.parent.order, dtype=bool)
            mask[list(self.members)] = True
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def check(self) -> None:
        """Exhaustive identity/encoding/order/closure check; raises
        ValueError on the first that fails. A finite set closed under the
        product holds each inverse x^-1 = x^(k-1), k the order of x."""
        G = self.parent
        if G.identity not in self.members:
            raise ValueError("subgroup misses the identity")
        elems = self.elements()
        if elems[0] < 0 or elems[-1] >= G.order:
            raise ValueError(f"subgroup member outside the encodings of {G.name}")
        if G.order % self.order != 0:
            raise ValueError("subgroup order does not divide group order")
        inside, elems = self.mask(), np.array(elems)
        for rows in row_blocks(elems, len(elems)):
            if not inside[G.multiply_array(rows, elems)].all():
                raise ValueError("subgroup not closed under the product")

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"<Subgroup of {self.parent.name}, order {self.order}>"


def _fill(sub: Subgroup, parent: FiniteGroup, members: frozenset, generators: tuple) -> Subgroup:
    sub.parent = parent
    sub.members = members
    sub.generators = generators
    sub._sorted = None
    sub._mask = None
    return sub


def _closed(parent: FiniteGroup, members: frozenset, generators: tuple = ()) -> Subgroup:
    """A Subgroup from a frozenset of ints already known to be closed and
    its ascending generator tuple, both kept as given; no check."""
    return _fill(Subgroup.__new__(Subgroup), parent, members, generators)


def generate(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing ``gens``, closed by vectorised steps
    over a member mask of G; refuses a G of more than 2^24 elements."""
    gens = list(gens)
    for g in gens:  # in the order given, so an error names the first bad one
        G.check_encoding(g)
    gens = sorted(set(map(int, gens)))
    if G.order > _CLOSURE_CAP:
        raise ValueError(f"subgroup closure capped at group order 2^24, {G.name} has {G.order}")
    members = np.flatnonzero(_close_right(G.multiply_array, G.order, gens))
    return _closed(G, frozenset(members.tolist()), tuple(gens))


def _check_lattice_order(n: int) -> None:
    """Raise ValueError for a group order above the enumeration cap."""
    if n > _LATTICE_CAP:
        raise ValueError(f"subgroup enumeration capped at order {_LATTICE_CAP}, group has {n}")


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, each exactly once, sorted by (order, element tuple).

    Seeds with the distinct cyclic subgroups <x>, each under its smallest
    generator x, read from the power table, and repeatedly joins each new
    subgroup K other than G with the seeds until a fixpoint; correct because
    every subgroup is a join of cyclic ones. Since <K, y> = <K, x> for every
    y in the double coset KxK, K is joined only with the first seed of each
    double coset other than K itself: any other seed could only find a
    subgroup already known. So the double cosets are labelled, by their
    least element, at the seeds alone. Each generator tuple is joined at
    most once.
    """
    _check_lattice_order(G.order)
    n = G.order
    table = G._table()
    cols = table.T.tolist()  # cols[g][x] = x*g
    powers, orders = G.power_table(), G.element_orders().tolist()
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    # the largest proper subgroup order that k divides, for each divisor k of n
    largest = {k: max((d for d in divisors[:-1] if d % k == 0), default=0) for k in divisors}
    whole = frozenset(G.elements())

    def cyclic(x: int) -> frozenset:
        return frozenset(powers[:orders[x], x].tolist())

    def join(base: frozenset, gens: tuple, k: int) -> frozenset:
        """The subgroup J generated by ``gens`` and its subgroup ``base``,
        where k divides |J|.

        J is a union of right cosets B*r of B = ``base``: from r = identity,
        each product r*t with a generator t that is not yet a member adds its
        whole coset B*(r*t). Since r*t lies in J, a walk that meets an r*t of
        order above |B| restarts over the larger B = <r*t>, which has fewer
        cosets. By Lagrange |J| is a multiple of lcm(k, orders of the r*t)
        and at least the members found, so once no proper subgroup order
        fits both, J is G.
        """
        inside = set(base)
        reps = [G.identity]
        for r in reps:
            for t in gens:
                rt = cols[t][r]
                if rt in inside:
                    continue
                if orders[rt] > len(base):
                    return join(cyclic(rt), gens, math.lcm(k, orders[rt]))
                col = cols[rt]
                inside.update([col[a] for a in base])
                k = math.lcm(k, orders[rt])
                if len(inside) > largest[k]:
                    return whole
                reps.append(rt)
        return frozenset(inside)

    seeds = _cyclic_seeds(G)
    seed_rows = table[seeds]  # seed_rows[i, g] = seeds[i] * g
    seeds = seeds.tolist()
    known: dict[frozenset, tuple] = {cyclic(x): (x,) for x in seeds}
    frontier = list(known.items())
    tried = set()
    while frontier:
        new_frontier = []
        for members, gens in frontier:
            if len(members) == n:
                continue
            ks = np.fromiter(members, dtype=np.int64, count=len(members))
            # the least element of KxK for every seed x: min over x*K of the
            # least element of each right coset K*y
            labels = table[ks].min(axis=0)[seed_rows[:, ks]].min(axis=1)
            # the identity 0 labels K itself, whose seeds add nothing
            seen = {0}
            for x, label in zip(seeds, labels.tolist()):
                if label in seen:
                    continue
                seen.add(label)
                joined_gens = tuple(sorted(gens + (x,)))
                if joined_gens in tried:
                    continue
                tried.add(joined_gens)
                joined = join(members, joined_gens, len(members))
                if joined not in known:
                    known[joined] = joined_gens
                    new_frontier.append((joined, joined_gens))
        frontier = new_frontier
    subs = [_closed(G, m, g) for m, g in known.items()]
    subs.sort(key=lambda s: (s.order, s.elements()))
    return subs


def _cyclic_seeds(G: FiniteGroup) -> np.ndarray:
    """The smallest generator of each distinct cyclic subgroup of G, in
    ascending order; see FiniteGroup.cyclic_seeds."""
    return G.cyclic_seeds()[0]


def _check_parent(G: FiniteGroup, *subgroups: Subgroup) -> None:
    """Raise ValueError unless every one of ``subgroups`` was built on G
    itself; every function of G and a subgroup calls it first, or one that does."""
    if any(H.parent is not G for H in subgroups):
        raise ValueError("subgroup does not belong to this group")


def _conjugates(G: FiniteGroup, gs: np.ndarray, H: Subgroup):
    """g*h*g^-1 for g in gs and h in H, in blocks of rows (one per g)."""
    hs, inv = np.array(H.elements()), G.inverses()
    for rows in row_blocks(gs, len(hs)):
        yield G.multiply_array(G.multiply_array(rows, hs), inv[rows])


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    _check_parent(G, H)
    inside = H.mask()
    return all(inside[c].all() for c in _conjugates(G, np.arange(G.order), H))


def quotient(G: FiniteGroup, K: Subgroup) -> CayleyTableGroup:
    """G/K as an explicit Cayley-table group; cosets are ordered by their
    minimal element encoding, which puts the identity coset first."""
    if not is_normal(G, K):
        raise ValueError(f"subgroup of order {K.order} is not normal in {G.name}")
    index = G.order // K.order
    if index > _QUOTIENT_INDEX_CAP:
        raise ValueError(f"quotient index {index} exceeds cap {_QUOTIENT_INDEX_CAP}")
    ks = np.array(K.elements())
    rep = np.concatenate([G.multiply_array(rows, ks).min(axis=1)
                          for rows in row_blocks(np.arange(G.order), len(ks))])
    reps = np.unique(rep)
    coset = np.searchsorted(reps, rep)
    table = coset[G.multiply_array(reps[:, None], reps)]
    return CayleyTableGroup(table, name=f"{G.name}/{K.order}")


def is_isolated(G: FiniteGroup, H: Subgroup) -> bool:
    """True iff every element of G either lies in H or generates a cyclic
    subgroup meeting H only in the identity, i.e. iff every x outside H has
    relative order equal to its element order."""
    from .order_sums import relative_orders  # order_sums imports this module

    inside = H.mask()
    return bool((relative_orders(G, H) == G.element_orders())[~inside].all())


def conjugates_intersect_trivially(G: FiniteGroup, H: Subgroup) -> bool:
    """Malnormality: H meets each conjugate g*H*g^-1 with g outside H only in
    the identity."""
    _check_parent(G, H)
    inside = H.mask()
    outside = np.flatnonzero(~inside)
    return not any((inside[c] & (c != G.identity)).any() for c in _conjugates(G, outside, H))
