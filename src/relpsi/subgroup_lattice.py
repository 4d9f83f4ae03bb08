"""Subgroups: closure generation, full enumeration, normality, quotients,
and the isolated/malnormal tests used by the Frobenius construction."""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from . import group_core
from .budget import LATTICE_CAP, QUOTIENT_INDEX_CAP
from .group_core import CayleyTableGroup, FiniteGroup, _close_right, check_element_budget, row_blocks
from .numtheory import divisors

__all__ = [
    "Subgroup",
    "generate",
    "all_subgroups",
    "is_normal",
    "quotient",
    "is_isolated",
    "conjugates_intersect_trivially",
]


class Subgroup:
    """Immutable element set inside a parent group.

    The constructor checks that ``members`` form a subgroup of ``parent``
    and raises ValueError otherwise; closures built here skip that check.
    Only ``generate`` and ``all_subgroups`` record ``generators``; a
    subgroup built from its members alone has none. A subgroup that
    ``generate`` closes keeps only its member mask and its order, and
    builds ``members`` and ``elements()`` from the mask on first use.
    """

    __slots__ = ("parent", "order", "_members", "_sorted", "generators", "_mask")

    def __init__(self, parent: FiniteGroup, members):
        self.parent, self._members, self.generators = parent, frozenset(map(int, members)), ()
        self.order, self._sorted, self._mask = len(self._members), None, None
        self.check()

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self.elements())
        return self._members

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x) -> bool:
        return x in self.members

    def elements(self) -> tuple[int, ...]:
        if self._sorted is None:
            # a closure from `generate` has only its mask to read them from
            if self._mask is None:
                self._sorted = tuple(sorted(self._members))
            else:
                self._sorted = tuple(np.flatnonzero(self._mask).tolist())
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
        product holds each inverse x^-1 = x^(k-1), k the order of x. A
        parent above ELEMENT_CAP is refused before the member mask is built."""
        G = self.parent
        if G.identity not in self.members:
            raise ValueError("subgroup misses the identity")
        elems = self.elements()
        if elems[0] < 0 or elems[-1] >= G.order:
            raise ValueError(f"subgroup member outside the encodings of {G.name}")
        if G.order % self.order != 0:
            raise ValueError("subgroup order does not divide group order")
        check_element_budget(G.order)
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


def _closed(parent: FiniteGroup, members: frozenset | None, generators: tuple = (),
            elements: tuple | None = None, mask: np.ndarray | None = None) -> Subgroup:
    """A Subgroup already known to be closed, from its ascending generator
    tuple and either a frozenset of its member ints or its read-only member
    mask, with, if known, its members sorted; all kept as given, no check."""
    sub = Subgroup.__new__(Subgroup)
    sub.parent, sub._members, sub.generators = parent, members, generators
    sub._sorted, sub._mask = elements, mask
    sub.order = len(members) if members is not None else int(np.count_nonzero(mask))
    return sub


def generate(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing ``gens``, closed by vectorised steps
    over a member mask of G, which the subgroup keeps in place of its
    members; refuses a G of more than ELEMENT_CAP elements."""
    gens = list(gens)
    for g in gens:  # in the order given, so an error names the first bad one
        G.check_encoding(g)
    gens = sorted(set(map(int, gens)))
    check_element_budget(G.order)
    mask = _close_right(G.multiply_array, G.order, gens)
    mask.setflags(write=False)
    return _closed(G, None, tuple(gens), mask=mask)


def _double_coset_labels(table: np.ndarray, seed_cols: np.ndarray, frontier):
    """Yield (K, generators, labels) for each (K, generators) of a frontier
    round, in order, where labels[i] is the least element of the double
    coset KxK of the i-th seed x, and ``seed_cols[g, i]`` = x * g.

    The round is labelled in blocks of K whose member lists, concatenated,
    hold about _BLOCK / (8 |G|) entries, so a block's int64 index array has
    at most about _BLOCK / 8 entries; a block holds at least one K.
    """
    limit = max(1, (group_core._BLOCK >> 3) // table.shape[0])
    block, size = [], 0
    for entry in frontier:
        if block and size + len(entry[0]) > limit:
            yield from _label_block(table, seed_cols, block, size)
            block, size = [], 0
        block.append(entry)
        size += len(entry[0])
    yield from _label_block(table, seed_cols, block, size)


def _label_block(table: np.ndarray, seed_cols: np.ndarray, block: list, size: int):
    """The labels of `_double_coset_labels` for one block of ``size``
    members in all. One gather of the members' table rows and one reduceat
    over each K's segment give the least element of every right coset K*y;
    one gather of those minima at every x*k, k in K, and a second reduceat
    give the least element of KxK, the minimum of K*(x*k) over k."""
    n = table.shape[0]
    sizes = [len(members) for members, _ in block]
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    ks = np.fromiter(itertools.chain.from_iterable(members for members, _ in block),
                     dtype=np.intp, count=size)
    coset_min = np.minimum.reduceat(table[ks], starts, axis=0)
    # row j of coset_min starts at j * n in its flat view
    at = np.repeat(np.arange(0, n * len(block), n), sizes)[:, None] + seed_cols[ks]
    labels = np.minimum.reduceat(coset_min.ravel()[at], starts, axis=0)
    for (members, gens), row in zip(block, labels.tolist()):
        yield members, gens, row


def _check_lattice_order(n: int) -> None:
    """Raise ValueError for a group order above the enumeration cap."""
    if n > LATTICE_CAP:
        raise ValueError(f"subgroup enumeration capped at order {LATTICE_CAP}, group has {n}")


def _sorted_lattice(G: FiniteGroup, known: dict) -> list[Subgroup]:
    """The subgroups of ``known`` ({members: generators}), sorted by
    (order, element tuple); each element tuple is built once, as the
    subgroup's ``elements()``."""
    subs = [_closed(G, m, g, tuple(sorted(m))) for m, g in known.items()]
    subs.sort(key=lambda s: (s.order, s._sorted))
    return subs


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, each exactly once, sorted by (order, element tuple).

    Seeds with the distinct cyclic subgroups <x>, each under its smallest
    generator x, read from the power table. When some element has order
    |G|, G is cyclic, so is every subgroup, and the seeds are the whole
    lattice: they are returned, each with generators (x,), and no join runs.

    Otherwise repeatedly joins each new subgroup K other than G with the
    seeds until a fixpoint; correct because every subgroup is a join of
    cyclic ones. Since <K, y> = <K, x> for every y in the double coset KxK,
    K is joined only with the first seed of each double coset other than K
    itself: any other seed could only find a subgroup already known. So the
    double cosets are labelled, by their least element, at the seeds alone,
    for all the K of one round of the search together, in blocks of a few
    numpy calls each (see `_double_coset_labels`). Each generator tuple is
    joined at most once.

    A join <K, x> is walked from the larger of K and <x>, B, and is G with
    no walk when B is strictly inside it and no proper subgroup order
    above |B| is a multiple of k = lcm(|K|, |<x>|): by Lagrange |<K, x>|
    is such a multiple, and it exceeds |B|.
    """
    _check_lattice_order(G.order)
    n = G.order
    powers, orders = G.power_table(), G.element_orders().tolist()
    cyclics: dict[int, frozenset] = {}

    def cyclic(x: int) -> frozenset:
        if x not in cyclics:
            cyclics[x] = frozenset(powers[:orders[x], x].tolist())
        return cyclics[x]

    seeds = G.cyclic_seeds()[0]
    known: dict[frozenset, tuple] = {cyclic(x): (x,) for x in seeds.tolist()}
    if max(orders) == n:
        return _sorted_lattice(G, known)

    table = G._table()
    cols = table.T.tolist()  # cols[g][x] = x*g
    ds = divisors(n)
    # the largest proper subgroup order that k divides, for each divisor k of n
    largest = {k: max((d for d in ds[:-1] if d % k == 0), default=0) for k in ds}
    whole = frozenset(G.elements())

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
        coset = operator.itemgetter(*base)  # base is never trivial: this gives tuples
        reps = [G.identity]
        for r in reps:
            for t in gens:
                rt = cols[t][r]
                if rt in inside:
                    continue
                if orders[rt] > len(base):
                    return join(cyclic(rt), gens, math.lcm(k, orders[rt]))
                inside.update(coset(cols[rt]))
                k = math.lcm(k, orders[rt])
                if len(inside) > largest[k]:
                    return whole
                reps.append(rt)
        return frozenset(inside)

    seed_cols = np.ascontiguousarray(table[seeds].T)  # seed_cols[g, i] = seeds[i] * g
    seeds = seeds.tolist()
    frontier = list(known.items())  # G is not cyclic, so no seed is G
    tried = set()
    while frontier:
        new_frontier = []
        for members, gens, labels in _double_coset_labels(table, seed_cols, frontier):
            # the identity 0 labels K itself, whose seeds add nothing
            seen = {0}
            for x, label in zip(seeds, labels):
                if label in seen:
                    continue
                seen.add(label)
                joined_gens = tuple(sorted(gens + (x,)))
                if joined_gens in tried:
                    continue
                tried.add(joined_gens)
                base, k = members, math.lcm(len(members), orders[x])
                # x lies outside K, so K is strictly inside the join, and
                # <x> is unless it holds K, which the generators of K tell
                strict = True
                if orders[x] > len(members):
                    base = cyclic(x)
                    strict = not all(g in base for g in gens)
                if strict and largest[k] <= len(base):
                    joined = whole
                else:
                    joined = join(base, joined_gens, k)
                if joined not in known:
                    known[joined] = joined_gens
                    if len(joined) < n:
                        new_frontier.append((joined, joined_gens))
        frontier = new_frontier
    return _sorted_lattice(G, known)


def _check_parent(G: FiniteGroup, *subgroups: Subgroup) -> None:
    """Raise ValueError unless every one of ``subgroups`` was built on G
    itself; every function of G and a subgroup calls it first, or one that does."""
    if any(H.parent is not G for H in subgroups):
        raise ValueError("subgroup does not belong to this group")


def _conjugates(G: FiniteGroup, H: Subgroup, outside: bool = False):
    """g*h*g^-1 for h in H and every g in G, or every g outside H, in
    blocks of rows (one per g). The inverses come first, so a G above
    ELEMENT_CAP is refused before any array over its elements is built."""
    hs, inv = np.array(H.elements()), G.inverses()
    gs = np.flatnonzero(~H.mask()) if outside else np.arange(G.order)
    return (G.multiply_array(G.multiply_array(rows, hs), inv[rows])
            for rows in row_blocks(gs, len(hs)))


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    _check_parent(G, H)
    inside = H.mask()
    return all(inside[c].all() for c in _conjugates(G, H))


def quotient(G: FiniteGroup, K: Subgroup) -> CayleyTableGroup:
    """G/K as an explicit Cayley-table group; cosets are ordered by their
    minimal element encoding, which puts the identity coset first. The
    index is checked against its cap before the normality test."""
    index = G.order // K.order
    if index > QUOTIENT_INDEX_CAP:
        raise ValueError(f"quotient index {index} exceeds cap {QUOTIENT_INDEX_CAP}")
    if not is_normal(G, K):
        raise ValueError(f"subgroup of order {K.order} is not normal in {G.name}")
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
    return not any((inside[c] & (c != G.identity)).any()
                   for c in _conjugates(G, H, outside=True))
