"""Subgroups: closure generation, full enumeration, normality, quotients,
and the isolated/malnormal tests used by the Frobenius construction."""

from __future__ import annotations

import numpy as np

from .group_core import CayleyTableGroup, FiniteGroup, first_powers_in, row_blocks

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
_QUOTIENT_INDEX_CAP = 512


class Subgroup:
    """Immutable element set inside a parent group."""

    __slots__ = ("parent", "members", "_sorted", "generators", "_mask")

    def __init__(self, parent: FiniteGroup, members, generators=()):
        self.parent = parent
        self.members = frozenset(map(int, members))
        self.generators = tuple(sorted(set(map(int, generators))))
        self._sorted = None
        self._mask = None

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

    def is_trivial(self) -> bool:
        return self.order == 1

    def check(self) -> None:
        """Exhaustive closure/identity/inverse check."""
        G = self.parent
        if G.identity not in self.members:
            raise AssertionError("subgroup misses the identity")
        if G.order % self.order != 0:
            raise AssertionError("subgroup order does not divide group order")
        inside, elems = self.mask(), np.array(self.elements())
        if not inside[G.inverses()[elems]].all():
            raise AssertionError("subgroup not closed under inverse")
        for rows in row_blocks(elems, len(elems)):
            if not inside[G.multiply_array(rows, elems)].all():
                raise AssertionError("subgroup not closed under the product")

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


def generate(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing ``gens``: closure of the identity
    under right multiplication by the generators, read from the Cayley
    table's columns when G is tabulated."""
    gens = sorted(set(int(g) for g in gens))
    for g in gens:
        G.check_encoding(g)
    cols = [G.column(g) for g in gens]
    members = {G.identity}
    frontier = [G.identity]
    while frontier:
        x = frontier.pop()
        for col in cols:
            y = col[x]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return Subgroup(G, members, generators=gens)


def all_subgroups(G: FiniteGroup, cap: int = _LATTICE_CAP) -> list[Subgroup]:
    """Every subgroup of G, each exactly once, sorted by (order, element tuple).

    Seeds with the cyclic subgroups and repeatedly joins known subgroups with
    cyclic seeds until a fixpoint; correct because every subgroup is a join of
    cyclic ones.
    """
    if G.order > cap:
        raise ValueError(f"subgroup enumeration capped at order {cap}, group has {G.order}")
    seeds: dict[frozenset, tuple] = {}
    for x in G.elements():
        sub = generate(G, [x])
        seeds.setdefault(sub.members, sub.generators)
    known: dict[frozenset, tuple] = dict(seeds)
    frontier = list(seeds.items())
    seed_list = list(seeds.items())
    while frontier:
        new_frontier = []
        for members, gens in frontier:
            for s_members, s_gens in seed_list:
                if s_members <= members:
                    continue
                joined = generate(G, gens + s_gens)
                if joined.members not in known:
                    known[joined.members] = joined.generators
                    new_frontier.append((joined.members, joined.generators))
        frontier = new_frontier
    subs = [Subgroup(G, m, generators=g) for m, g in known.items()]
    subs.sort(key=lambda s: (s.order, s.elements()))
    return subs


def _conjugates(G: FiniteGroup, gs: np.ndarray, H: Subgroup):
    """g*h*g^-1 for g in gs and h in H, in blocks of rows (one per g)."""
    hs, inv = np.array(H.elements()), G.inverses()
    for rows in row_blocks(gs, len(hs)):
        yield G.multiply_array(G.multiply_array(rows, hs), inv[rows])


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    inside = H.mask()
    return all(inside[c].all() for c in _conjugates(G, np.arange(G.order), H))


def quotient(G: FiniteGroup, K: Subgroup, name: str | None = None) -> CayleyTableGroup:
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
    qname = name or f"{G.name}/{K.order}"
    return CayleyTableGroup(table, name=qname, validate=True)


def is_isolated(G: FiniteGroup, H: Subgroup) -> bool:
    """True iff every element of G either lies in H or generates a cyclic
    subgroup meeting H only in the identity, i.e. iff every x outside H has
    relative order equal to its element order."""
    inside = H.mask()
    relative = first_powers_in(G, inside, H.index)
    return bool((relative == G.element_orders())[~inside].all())


def conjugates_intersect_trivially(G: FiniteGroup, H: Subgroup) -> bool:
    """Malnormality: H meets each conjugate g*H*g^-1 with g outside H only in
    the identity."""
    inside = H.mask()
    outside = np.flatnonzero(~inside)
    return not any((inside[c] & (c != G.identity)).any() for c in _conjugates(G, outside, H))
