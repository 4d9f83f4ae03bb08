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
from .numtheory import divisors, factorize, is_prime

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
    """Immutable subgroup of a parent group, held as one read-only boolean
    member mask over the parent's encodings; ``members``, ``elements()``,
    ``in``, ``==`` and ``hash`` are read off that mask.

    The constructor checks that ``members`` form a subgroup of ``parent``
    and raises ValueError otherwise, each member through
    ``parent.check_encoding`` and a parent above ELEMENT_CAP before the mask
    is built; closures built here skip that check.

    ``generators``: a subgroup from ``generate`` keeps the ascending tuple
    it was given, and one built from its members alone has none. Every
    other subgroup, each of ``all_subgroups``, reads its generators off its
    mask on the first read and keeps them: repeatedly the least element of
    largest order outside the closure of those before, so they depend on
    the subgroup alone; the trivial subgroup has (0,).
    """

    __slots__ = ("parent", "order", "_generators", "_mask")

    def __init__(self, parent: FiniteGroup, members):
        members = list(members)
        try:
            for x in members:
                parent.check_encoding(x)
        except ValueError as exc:
            raise ValueError(f"subgroup member outside the encodings of {parent.name}") from exc
        check_element_budget(parent.order)
        mask = np.zeros(parent.order, dtype=bool)
        mask[np.array(members, dtype=np.int64)] = True
        mask.setflags(write=False)
        self.parent, self.order, self._generators, self._mask = (
            parent, int(np.count_nonzero(mask)), (), mask)
        self.check()

    @property
    def generators(self) -> tuple[int, ...]:
        if self._generators is None:
            walk = getattr(self.parent, "_generators_cache", None)
            if walk is None:
                walk = self.parent._generators_cache = _CosetWalk(self.parent)
            self._generators = walk.generators(self._mask, self.order)
        return self._generators

    @property
    def members(self) -> frozenset:
        return frozenset(self.elements())

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x) -> bool:
        return isinstance(x, (int, np.integer)) and 0 <= x < self.parent.order and bool(self._mask[x])

    def elements(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._mask).tolist())

    def mask(self) -> np.ndarray:
        """Read-only boolean membership array over the parent's encodings."""
        return self._mask

    def check(self) -> None:
        """Exhaustive identity/order/closure check; raises ValueError on the
        first that fails. A finite set closed under the product holds each
        inverse x^-1 = x^(k-1), k the order of x."""
        G, inside = self.parent, self._mask
        if not inside[G.identity]:
            raise ValueError("subgroup misses the identity")
        if G.order % self.order != 0:
            raise ValueError("subgroup order does not divide group order")
        elems = np.flatnonzero(inside)
        for rows in row_blocks(elems, len(elems)):
            if not inside[G.multiply_array(rows, elems)].all():
                raise ValueError("subgroup not closed under the product")

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and np.array_equal(other._mask, self._mask))

    def __hash__(self):
        return hash((id(self.parent), self._mask.tobytes()))

    def __repr__(self):
        return f"<Subgroup of {self.parent.name}, order {self.order}>"


def _closed(parent: FiniteGroup, mask: np.ndarray, order: int, generators: tuple | None = None) -> Subgroup:
    """A Subgroup already known to be closed, from its read-only member mask,
    its order and its generator tuple, all kept as given, or with its
    canonical generators read off the mask when first asked; no check."""
    sub = Subgroup.__new__(Subgroup)
    sub.parent, sub.order, sub._generators, sub._mask = parent, order, generators, mask
    return sub


class _CosetWalk:
    """The coset walk `join` in one tabulated group G and what it reads:
    the table's columns, the element orders and powers, the Lagrange bound
    ``largest`` and the cyclic subgroups met so far. One is kept on G, by
    `all_subgroups`, which joins with it, or by the first generator read.

    Those generators are read from a subgroup's mask and order: the
    elements ranked by descending order, least encoding first within one
    order, are read in that rank, and each one outside the closure of those
    taken before is taken next. The closure of every generator prefix taken
    is kept as a mask by its tuple. A prefix of a subgroup's tuple is the
    tuple of its own closure, since its closure holds each element the rank
    met before, so every kept closure is a different subgroup, and a
    lattice's tuples take at most one join per subgroup.
    """

    def __init__(self, G: FiniteGroup):
        n = G.order
        self.cols = G._table().T.tolist()  # cols[g][x] = x*g
        self.powers, self.orders = G.power_table(), G.element_orders().tolist()
        ds = divisors(n)
        # the largest proper subgroup order that k divides, for each divisor k of n
        self.largest = {k: max((d for d in ds[:-1] if d % k == 0), default=0) for k in ds}
        self.whole = frozenset(G.elements())
        self.cyclics: dict[int, frozenset] = {}
        self.ranked = np.argsort(-G.element_orders(), kind="stable")
        trivial = np.zeros(n, dtype=bool)
        trivial[G.identity] = True
        self.closures = {(): (trivial, 1)}

    def cyclic(self, x: int) -> frozenset:
        if x not in self.cyclics:
            self.cyclics[x] = frozenset(self.powers[:self.orders[x], x].tolist())
        return self.cyclics[x]

    def join(self, base, gens: tuple, k: int) -> frozenset:
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
        cols, orders, largest = self.cols, self.orders, self.largest
        inside = set(base)
        coset = operator.itemgetter(*base)  # base is never trivial: this gives tuples
        reps = [0]
        for r in reps:
            for t in gens:
                rt = cols[t][r]
                if rt in inside:
                    continue
                if orders[rt] > len(base):
                    return self.join(self.cyclic(rt), gens, math.lcm(k, orders[rt]))
                inside.update(coset(cols[rt]))
                k = math.lcm(k, orders[rt])
                if len(inside) > largest[k]:
                    return self.whole
                reps.append(rt)
        return frozenset(inside)

    def generators(self, mask: np.ndarray, order: int) -> tuple[int, ...]:
        """The canonical generators of the subgroup with this member mask
        and order; each new prefix is closed by `join` from the larger of
        the closure before it and the new element's cyclic subgroup."""
        gens, (closed, size) = (), self.closures[()]
        for x in self.ranked[mask[self.ranked]].tolist():
            if size == order:
                break
            if not closed[x]:
                gens += (x,)
                if gens not in self.closures:
                    m = self.orders[x]
                    base = self.cyclic(x) if m > size else np.flatnonzero(closed).tolist()
                    members = self.join(base, gens, math.lcm(size, m))
                    inside = np.zeros(len(closed), dtype=bool)
                    inside[list(members)] = True
                    self.closures[gens] = inside, len(members)
                closed, size = self.closures[gens]
        return gens or (0,)


def generate(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing ``gens``, closed by vectorised steps
    over a member mask of G, which the subgroup keeps; refuses a G of more
    than ELEMENT_CAP elements."""
    gens = list(gens)
    for g in gens:  # in the order given, so an error names the first bad one
        G.check_encoding(g)
    gens = sorted(set(map(int, gens)))
    check_element_budget(G.order)
    mask = _close_right(G.multiply_array, G.order, gens)
    mask.setflags(write=False)
    return _closed(G, mask, int(np.count_nonzero(mask)), tuple(gens))


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


def _abelian_masks(G: FiniteGroup, seeds: np.ndarray) -> np.ndarray:
    """The member masks of every subgroup of the non-cyclic abelian group
    G, as the rows of one subgroups x |G| boolean matrix, found in layers by
    prime index: layer r holds the subgroups whose order has r prime
    factors, counted with multiplicity, and layer r + 1 is every join K<s>
    of a K of layer r with a seed s of prime relative order over K (see
    `all_subgroups`). Of the Omega(|G|) + 1 layers only the middle ones are
    joined. Layer 0 is the trivial subgroup. Layer 1 is one row per seed of
    prime order, marked from its `seed_powers` column: a subgroup of prime
    order is cyclic, so it is <s> for exactly one seed s. Layer Omega(|G|)
    is G alone, and no join is made from it. A non-cyclic G has Omega(|G|)
    at least 2, and one of 2 joins nothing.

    A round goes in blocks of at most _BLOCK / (|G| s) of its subgroups, s
    the number of seeds, so no array of a block has more than _BLOCK
    entries: one per (K, power, seed), (member of K, seed) or (join,
    element). The joins of every block are packed eight members a byte, and
    the round keeps one of each."""
    n = G.order
    table, orders = G._table(), G.element_orders()
    seed_powers, seed_rows = G.seed_powers(), table[:, seeds]  # x^(k+1) and g*x
    prime = np.array([is_prime(m) for m in range(len(seed_powers) + 1)])

    def joins(masks: np.ndarray) -> np.ndarray:
        """The mask of K<s>, one row each, for every K of ``masks`` and the
        first seed s of each coset K*s whose relative order p over K is
        prime.

        The relative orders are the first powers of each seed in each K,
        one gather of the masks at the seed columns of the power table.
        Each coset K*s is labelled by its least element, a minimum over K's
        members in one `reduceat`. K<s> is the union of the cosets K*s^j,
        j < p, so g lies in it when g*s^-j lies in K for some j: p - 1
        gathers of K's mask along table rows, with s^-j = s^(m - j), m the
        order of s, read off the seed columns of the power table."""
        rel = masks[:, seed_powers].argmax(axis=1).ravel() + 1
        rows, members = np.nonzero(masks)
        starts = np.searchsorted(rows, np.arange(len(masks)))
        labels = np.minimum.reduceat(seed_rows[members], starts, axis=0).ravel()
        live = np.flatnonzero(prime[rel])
        # live ascends, so the first of each (K, label) has the least seed
        _, first = np.unique(live // len(seeds) * n + labels[live], return_index=True)
        ks, at = np.divmod(live[first], len(seeds))
        ms, ps = orders[seeds[at]], rel[live[first]]
        out = masks[ks]
        for j in range(1, ps.max(initial=1)):
            i = np.flatnonzero(ps > j)
            inverse = seed_powers[ms[i] - j - 1, at[i]]  # s^-j = s^(m - j)
            out[i] |= masks[ks[i, None], table[inverse]]
        return out

    step = max(1, group_core._BLOCK // (n * len(seeds)))
    trivial = np.zeros((1, n), dtype=bool)
    trivial[0, G.identity] = True
    # row i marks <s> for the i-th seed s of prime order
    at = np.flatnonzero(prime[orders[seeds]])
    layer = np.zeros((len(at), n), dtype=bool)
    layer[np.arange(len(at))[:, None], seed_powers[:, at].T] = True
    layers = [trivial, layer]
    for _ in range(sum(a for _, a in factorize(n)) - 2):
        words = np.concatenate([np.packbits(joins(layer[lo:lo + step]), axis=1)
                                for lo in range(0, len(layer), step)])
        layer = np.unpackbits(_distinct_rows(words), axis=1, count=n).view(bool)
        layers.append(layer)
    layers.append(np.ones((1, n), dtype=bool))
    return np.concatenate(layers)


def _distinct_rows(bits: np.ndarray) -> np.ndarray:
    """The distinct rows of a uint8 matrix, in some order: one `lexsort` of
    its rows as 64-bit words, and one row of each run of equal ones."""
    words = np.zeros((len(bits), -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    words = words[order]
    keep = np.ones(len(words), dtype=bool)
    keep[1:] = (words[1:] != words[:-1]).any(axis=1)
    return bits[order[keep]]


def _check_lattice_order(n: int) -> None:
    """Raise ValueError for a group order above the enumeration cap."""
    if n > LATTICE_CAP:
        raise ValueError(f"subgroup enumeration capped at order {LATTICE_CAP}, group has {n}")


def _sorted_lattice(G: FiniteGroup, masks: np.ndarray) -> list[Subgroup]:
    """The subgroups whose masks are the rows of ``masks``, sorted by
    (order, element tuple), their masks the rows of one read-only matrix. Of
    two sets of one size, the one whose sorted tuple comes first holds the
    smaller element where they differ, so its complement row sorts first
    as bytes."""
    n = G.order
    sizes = np.count_nonzero(masks, axis=1).tolist()
    outside = (~masks).tobytes()
    keys = sorted(zip(sizes, (outside[i:i + n] for i in range(0, len(outside), n)), itertools.count()))
    masks = masks[[i for _, _, i in keys]]
    masks.setflags(write=False)
    return [_closed(G, mask, m) for (m, _, _), mask in zip(keys, masks)]


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, each exactly once, sorted by (order, element tuple).

    Seeds with the distinct cyclic subgroups <x>, each under its smallest
    generator x, read from the power table. When some element has order
    |G|, G is cyclic, so is every subgroup, and the seeds are the whole
    lattice: they are returned, and no join runs. Each is marked from its
    column of `seed_powers`, and a cyclic group has exactly one subgroup of
    each order dividing |G|, so one argsort of the seeds' orders sorts them
    by (order, element tuple), as every other lattice is sorted.

    An abelian G that is not cyclic, whose table equals its transpose, is
    searched by prime index (`_abelian_masks`), in layers by the number r
    of prime factors of the subgroup order, counted with multiplicity. The
    layers r = 0, 1 and Omega(|G|) are written with no join, and each
    layer between is joined from the one before. This is exact. The trivial
    subgroup is the only one of order 1 and G the only one of order |G|;
    a subgroup of prime order p is cyclic, generated by each of its p - 1
    elements other than the identity, so it is <s> for exactly one seed s,
    and every seed of prime order gives one. Each maximal subgroup K of an
    abelian J has prime index p, since J/K is abelian with no proper
    subgroup other than 1. So J = K<s> for any s in J outside K, and for
    the seed of <s> in particular, which has relative order p over K. By
    induction on r, every J of layer r + 1 is such a join K<s> with K in
    layer r. Conversely, a seed s of prime relative order p over K gives
    |K<s>| = p|K|, a subgroup of layer r + 1: every join found lies in the
    next layer, so a subgroup is found again only within its own layer,
    whose round keeps one of each. Since K<y> = K<s> for every y in the
    coset K*s, K is joined only with the first seed of each coset.

    Any other G joins one representative K of each conjugacy class of
    subgroups other than G with the seeds, until no join finds a new class
    (after Neubüser, Numer. Math. 2, 1960). This is exact. Every subgroup J
    that is not cyclic is <K', x'> for a smaller subgroup K' and some x',
    and K' = gKg^-1 for a representative K found before, by induction on
    |J|. Then g^-1 J g = <K, g^-1 x' g> = <K, s>, where s is the seed of the
    cyclic subgroup <g^-1 x' g>: joining every representative with every
    seed reaches a conjugate of every subgroup. So each subgroup found that
    is not yet known is a new class, and it becomes the class's
    representative: one gather of the conjugation table conj[g, h] =
    g*h*g^-1 at its members gives every conjugate as a row, and once each
    row is sorted, one row of each distinct conjugate is listed as known. A
    normal subgroup, which one mask test finds, is its own class.

    Since <K, y> = <K, x> for every y in the double coset KxK, K is joined
    only with the first seed of each double coset other than K itself: any
    other seed could only find the same subgroup. So the double cosets are
    labelled, by their least element, at the seeds alone, for all the K of
    one round of the search together, in blocks of a few numpy calls each
    (see `_double_coset_labels`).

    A join <K, x> is walked from the larger of K and <x>, B, and is G with
    no walk when B is strictly inside it and no proper subgroup order
    above |B| is a multiple of k = lcm(|K|, |<x>|): by Lagrange |<K, x>|
    is such a multiple, and it exceeds |B|.
    """
    _check_lattice_order(G.order)
    n = G.order
    seeds = G.cyclic_seeds()[0]
    if G.is_cyclic():
        # row i marks <x> for the i-th seed x: every power of x lies in it
        masks = np.zeros((len(seeds), n), dtype=bool)
        masks[np.arange(len(seeds))[:, None], G.seed_powers().T] = True
        sizes = G.element_orders()[seeds]  # |<x>| is the order of x
        order = np.argsort(sizes)
        masks = masks[order]
        masks.setflags(write=False)
        return [_closed(G, mask, m) for mask, m in zip(masks, sizes[order].tolist())]

    orders = G.element_orders().tolist()
    table = G._table()
    if np.array_equal(table, table.T):
        return _sorted_lattice(G, _abelian_masks(G, seeds))
    # the canonical generators are read with this walker too
    walk = G._generators_cache = _CosetWalk(G)
    largest, cyclic, join = walk.largest, walk.cyclic, walk.join
    conj = table[table, G.inverses()[:, None]]
    known = {walk.whole}  # every subgroup of a listed class

    def listed(members: frozenset) -> bool:
        """Whether the subgroup with these members is new, listing its whole
        conjugacy class as known when it is."""
        if members in known:
            return False
        ks = np.fromiter(members, dtype=np.intp, count=len(members))
        conjugates = conj[:, ks]  # row g holds g*K*g^-1
        inside = np.zeros(n, dtype=bool)
        inside[ks] = True
        if not inside[conjugates].all():
            conjugates.sort(axis=1)
            rows, width = conjugates.tobytes(), conjugates.itemsize * len(ks)
            # one row of each conjugate, told apart by its sorted members
            distinct = {rows[i:i + width]: g for g, i in enumerate(range(0, len(rows), width))}
            known.update(map(frozenset, conjugates[list(distinct.values())].tolist()))
            return True
        known.add(members)
        return True

    seed_cols = np.ascontiguousarray(table[seeds].T)  # seed_cols[g, i] = seeds[i] * g
    seeds = seeds.tolist()
    # G is not cyclic, so no seed is G
    frontier = [(cyclic(x), (x,)) for x in seeds if listed(cyclic(x))]
    while frontier:
        new_frontier = []
        for members, gens, labels in _double_coset_labels(table, seed_cols, frontier):
            # the identity 0 labels K itself, whose seeds add nothing
            seen = {0}
            for x, label in zip(seeds, labels):
                if label in seen:
                    continue
                seen.add(label)
                base, k = members, math.lcm(len(members), orders[x])
                # x lies outside K, so K is strictly inside the join, and
                # <x> is unless it holds K, which the generators of K tell
                strict = True
                if orders[x] > len(members):
                    base = cyclic(x)
                    strict = not all(g in base for g in gens)
                if strict and largest[k] <= len(base):
                    continue  # the join is G
                joined_gens = tuple(sorted(gens + (x,)))
                joined = join(base, joined_gens, k)
                if len(joined) < n and listed(joined):
                    new_frontier.append((joined, joined_gens))
        frontier = new_frontier
    sizes = [len(members) for members in known]
    masks = np.zeros((len(sizes), n), dtype=bool)
    masks[np.repeat(np.arange(len(sizes)), sizes),
          np.fromiter(itertools.chain.from_iterable(known), dtype=np.intp, count=sum(sizes))] = True
    return _sorted_lattice(G, masks)


def _check_parent(G: FiniteGroup, *subgroups: Subgroup) -> None:
    """Raise ValueError unless every one of ``subgroups`` was built on G
    itself; every function of G and a subgroup calls it first, or one that does."""
    if any(H.parent is not G for H in subgroups):
        raise ValueError("subgroup does not belong to this group")


def _conjugates(G: FiniteGroup, H: Subgroup, outside: bool = False):
    """g*h*g^-1 for h in H and every g in G, or every g outside H, in
    blocks of rows (one per g). The inverses come first, so a G above
    ELEMENT_CAP is refused before any array over its elements is built."""
    hs, inv = np.flatnonzero(H.mask()), G.inverses()
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
    ks = np.flatnonzero(K.mask())
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
