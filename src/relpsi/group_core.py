"""Finite groups on integer encodings.

Every group fixes a deterministic bijection between its elements and
[0, order), with the identity at encoding 0. Each class defines an array
product on int64 arrays, and the Cayley table, inverses, element orders and
power table all come from it. A group of order at most TABLE_CAP builds one
compact Cayley table on first use, from the array product, and caches it;
`multiply_array` then reads that table, and the subgroup, classification and
order-sum loops run on it. Above the cap `multiply_array` computes products
arithmetically, so no table is built. A direct product combines its
factors' array products, so a factor never builds a table for its parent.
`first_powers_in` gives relative orders, and element orders above the cap,
in one pass over the divisors of the group order up to the index, each
power formed from stored squares. Each class also keeps a scalar
`multiply`/`inverse` that the program does not call: the tests check the
array product against them and build their reference powers, element orders
and relative orders on them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .finite_field import FiniteField
from .numtheory import factorize, is_prime

__all__ = [
    "FiniteGroup",
    "CyclicGroup",
    "CayleyTableGroup",
    "PermutationGroup",
    "FrobeniusFieldGroup",
    "DirectProductGroup",
    "CayleyTableError",
    "cyclic",
    "abelian_of_type",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion8",
    "frobenius_field",
    "direct_product",
    "from_cayley_table",
]

TABLE_CAP = 4096
_ORDER_CAP = 1 << 16
# entries per temporary array when a loop covers all pairs of two element sets
_BLOCK = 1 << 20


class CayleyTableError(ValueError):
    """Raised when ingested Cayley-table data fails validation."""


def row_blocks(rows: np.ndarray, width: int):
    """Split ``rows`` into column vectors of at most about _BLOCK / width
    entries, so a product against ``width`` columns stays small."""
    step = max(1, _BLOCK // max(width, 1))
    for lo in range(0, len(rows), step):
        yield rows[lo:lo + step, None]


class FiniteGroup:
    """Abstract finite group; concrete classes define the array product
    `_product_array` (a table group reads its table) and multiply/inverse."""

    order: int
    name: str = "G"
    identity: int = 0

    @property
    def tabulated(self) -> bool:
        """True when products are read from the cached Cayley table."""
        return self.order <= TABLE_CAP or getattr(self, "_table_cache", None) is not None

    def multiply_array(self, x, y) -> np.ndarray:
        """Elementwise products of two broadcastable int64 encoding arrays."""
        if self.tabulated:
            return self._table()[x, y].astype(np.int64)
        return self._product_array(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))

    def _table(self) -> np.ndarray:
        """The cached Cayley table in the smallest unsigned dtype that holds
        an encoding; built in row blocks from the array product."""
        table = getattr(self, "_table_cache", None)
        if table is None:
            n = self.order
            if n > TABLE_CAP:
                raise ValueError(f"refusing to materialize {n}x{n} table (cap {TABLE_CAP})")
            table = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
            cols = np.arange(n, dtype=np.int64)
            for rows in row_blocks(cols, n):
                table[rows[:, 0]] = self._product_array(rows, cols)
            self._table_cache = table
        return table

    def cayley_table(self) -> np.ndarray:
        """The Cayley table as a new int64 array: entry (a, b) is a*b."""
        return self._table().astype(np.int64)

    def inverses(self) -> np.ndarray:
        """Inverse of every element, as an int64 array indexed by encoding."""
        inv = getattr(self, "_inverse_cache", None)
        if inv is None:
            # x^(|G|-1) = x^-1 by Lagrange, for every x at once by
            # square-and-multiply: at most 2 * bit_length(|G|) products
            inv = np.zeros(self.order, dtype=np.int64)
            base, e = np.arange(self.order, dtype=np.int64), self.order - 1
            while e:
                if e & 1:
                    inv = self.multiply_array(inv, base)
                e >>= 1
                if e:
                    base = self.multiply_array(base, base)
            inv.setflags(write=False)
            self._inverse_cache = inv
        return inv

    def elements(self) -> range:
        return range(self.order)

    def check_encoding(self, a: int) -> None:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not a valid element encoding of {self.name}")

    def element_orders(self) -> np.ndarray:
        """Order of every element, as a read-only int64 array; cached. A
        tabulated group reads it off the power table (the first row holding
        the identity), any other group takes one vectorised power pass."""
        if getattr(self, "_order_cache", None) is None:
            if self.tabulated:
                self._build_powers()
            else:
                identity = np.zeros(self.order, dtype=bool)
                identity[self.identity] = True
                orders = first_powers_in(self, identity)
                orders.setflags(write=False)
                self._order_cache = orders
        return self._order_cache

    def power_table(self) -> np.ndarray:
        """Read-only array P with P[k, x] = x^(k+1) for k below the largest
        element order, so column x lists the powers of x up to the identity.
        Cached; tabulated groups only."""
        if getattr(self, "_power_cache", None) is None:
            self._build_powers()
        return self._power_cache

    def cyclic_seeds(self) -> tuple[np.ndarray, np.ndarray]:
        """The smallest generator x of each distinct cyclic subgroup <x>,
        ascending, and how many elements generate it, phi(order of x).
        Cached; tabulated groups only.

        The generators of <x> are the powers of x with the order of x, x
        itself among them, so the smallest is one min over those entries of
        column x of the power table; x is a seed when it is its own
        smallest generator.
        """
        if getattr(self, "_seed_cache", None) is None:
            powers, orders = self.power_table(), self.element_orders()
            smallest = np.where(orders[powers] == orders, powers, powers[0]).min(axis=0)
            seeds = np.flatnonzero(smallest == np.arange(self.order))
            weights = np.bincount(smallest, minlength=self.order)[seeds]
            seeds.setflags(write=False)
            weights.setflags(write=False)
            self._seed_cache = seeds, weights
        return self._seed_cache

    def _build_powers(self) -> None:
        """Fill the power-table and element-order caches by doubling.

        With the first L rows known, the next L rows are one table read,
        P[L + k] = P[k] * P[L - 1], that is x^(k+1) * x^L. Only the new rows
        are searched for the identity, and the doubling stops once every
        column has met it, so the largest element order e takes about
        log2(e) reads. The rows live in one buffer of at most n rows in the
        table's dtype, never more than the Cayley table itself; rows past
        e are cut off by the returned view. Reads go in blocks of about
        _BLOCK entries, which bounds their int64 index temporaries.
        """
        table = self._table()
        n = self.order
        powers = np.empty((n, n), dtype=table.dtype)
        powers[0] = np.arange(n)
        orders = np.zeros(n, dtype=np.int64)
        orders[self.identity] = 1
        rows, step = 1, max(1, _BLOCK // n)
        while not orders.all():
            last, new = powers[rows - 1], min(rows, n - rows)
            for lo in range(0, new, step):
                block = powers[rows + lo:rows + min(lo + step, new)]
                block[:] = table[powers[lo:lo + len(block)], last]
                hit = block == self.identity
                found = np.flatnonzero((orders == 0) & hit.any(axis=0))
                orders[found] = rows + lo + 1 + hit[:, found].argmax(axis=0)
            rows += new
        powers = powers[:orders.max()]
        powers.setflags(write=False)
        orders.setflags(write=False)
        self._power_cache, self._order_cache = powers, orders

    def is_cyclic(self) -> bool:
        return int(self.element_orders().max()) == self.order

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} of order {self.order}>"


def first_powers_in(G: FiniteGroup, inside: np.ndarray) -> np.ndarray:
    """For every element x of G, the smallest m >= 1 with x^m in the set
    marked by the boolean mask ``inside``, a subgroup H (the trivial
    subgroup for element orders), as an int64 array.

    The m with x^m in H are the multiples of the least one, and x^|G| = 1,
    so that one divides |G|; the cosets H, Hx, ..., Hx^(m-1) are distinct,
    so it is at most the index |G| / |H|. The pass tries only the divisors
    d of |G| with 1 < d <= |G| / |H|, in ascending order: x^d is the
    previous divisor's power times x^(d - d_prev), a product of the stored
    squares x^(2^j), so it never takes more products than a walk through
    every m. Elements go in blocks of _BLOCK / 32, which bounds the stored
    squares and keeps a block's arrays in cache, where the array products
    run faster per element than on 2^20 elements. An element that no
    divisor's power puts in the set raises ValueError, which only a
    non-subgroup can cause.
    """
    limit = G.order // np.count_nonzero(inside)
    divisors = [1]
    for p, a in factorize(G.order):
        divisors = [d * p ** i for d in divisors for i in range(a + 1)]
    divisors = sorted(d for d in divisors if 1 < d <= limit)
    orders = np.ones(G.order, dtype=np.int64)
    outside = np.flatnonzero(~inside)
    step = max(1, _BLOCK >> 5)
    for lo in range(0, outside.size, step):
        todo = outside[lo:lo + step]
        squares, power, prev = [todo], todo, 1
        for d in divisors:
            gap = d - prev
            for j in range(gap.bit_length()):
                if len(squares) == j:
                    squares.append(G.multiply_array(squares[-1], squares[-1]))
                if gap >> j & 1:
                    power = G.multiply_array(power, squares[j])
            prev = d
            hit = inside[power]
            orders[todo[hit]] = d
            miss = ~hit
            todo, power = todo[miss], power[miss]
            if not todo.size:
                break
            squares = [s[miss] for s in squares]
        if todo.size:
            raise ValueError(
                f"no power x^d with d dividing {G.order} and 1 <= d <= {limit} of element "
                f"{int(todo[0])} lies in the subgroup; its members do not form a subgroup"
            )
    return orders


class CyclicGroup(FiniteGroup):
    """C_n, written additively: multiply(a, b) = (a + b) mod n."""

    def __init__(self, n: int):
        if not 1 <= n <= _ORDER_CAP:
            raise ValueError(f"cyclic order must be in [1, 2^16], got {n}")
        self.order = n
        self.name = f"C{n}"

    def multiply(self, a, b):
        return (a + b) % self.order

    def inverse(self, a):
        return -a % self.order

    def _product_array(self, x, y):
        return (x + y) % self.order


class CayleyTableGroup(FiniteGroup):
    """Group given by an explicit n x n multiplication table."""

    def __init__(self, table, name: str = "table-group"):
        data = np.asarray(table)
        table = _validate_table(data)
        # the group owns its table: copy an input that had the compact dtype
        self._table_cache = table.copy() if table is data else table
        self.order = int(table.shape[0])
        self.name = name

    def multiply(self, a, b):
        return int(self._table_cache[a, b])

    def inverse(self, a):
        return int(self.inverses()[a])

    def _product_array(self, x, y):
        return self._table_cache[x, y].astype(np.int64)


def _validate_table(table: np.ndarray) -> np.ndarray:
    """Exact check of the group axioms on a table of any integer dtype:
    shape, entry range, Latin square, two-sided identity 0, and
    associativity by Light's test. Past the range check every check runs on
    the table in the smallest unsigned dtype that holds an encoding, which
    is returned; it is the input itself when that had this dtype."""
    if table.dtype.kind not in "iu":
        raise CayleyTableError("table entries must be integers")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise CayleyTableError(f"table is not square: shape {table.shape}")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise CayleyTableError("table entries must lie in [0, n)")
    table = table.astype(np.min_scalar_type(n - 1), copy=False)
    ident = np.arange(n, dtype=table.dtype)
    # numpy radix-sorts 8-bit integers under "stable", where its default
    # sort is several times slower than on wider types
    kind = "stable" if table.itemsize == 1 else None
    bad = np.flatnonzero((np.sort(table, axis=1, kind=kind) != ident).any(axis=1))
    if bad.size:
        raise CayleyTableError(f"row {int(bad[0])} is not a permutation (not a Latin square)")
    bad = np.flatnonzero((np.sort(table, axis=0, kind=kind) != ident[:, None]).any(axis=0))
    if bad.size:
        raise CayleyTableError(f"column {int(bad[0])} is not a permutation (not a Latin square)")
    if not np.array_equal(table[0], ident) or not np.array_equal(table[:, 0], ident):
        raise CayleyTableError("element 0 is not a two-sided identity")
    _check_associativity(table)
    return table


def _check_associativity(table: np.ndarray) -> None:
    """Light's associativity test over a greedy generating set.

    The elements b with (a*b)*c = a*(b*c) for all a, c are closed under the
    product, so checking b on a set S whose right-multiplication closure from
    the identity is the whole table proves associativity. For each b, rows
    of (a*b)*c are gathered whole from the table and rows of a*(b*c) are the
    rows a with their columns permuted by row b, all in the table's dtype.
    """
    n = table.shape[0]
    for b in _greedy_generators(lambda x, y: table[x, y], n):
        right = table[b]
        for block in row_blocks(np.arange(n), n):
            rows = block[:, 0]
            bad = table[table[rows, b]] != table[rows].take(right, axis=1)
            if bad.any():
                i, c = np.argwhere(bad)[0]
                raise CayleyTableError(f"associativity fails at ({int(rows[i])},{b},{int(c)})")


def _greedy_generators(product, n: int):
    """Yield a greedy generating set of [0, n) under ``product``: each new
    element is the least one outside the right-multiplication closure of
    those before it. The caller checks each element before the next is
    chosen; while every check passes that closure is a group, so each new
    element at least doubles it and the set has at most log2(n) elements.
    Each closure grows the one before it under all the generators so far,
    which reaches the same set as a closure from the identity."""
    gens: list[int] = []
    reached = _close_right(product, n, gens)
    while not reached.all():
        gens.append(int(reached.argmin()))
        yield gens[-1]
        reached = _close_right(product, n, gens, reached)


def _close_right(product, n: int, gens, reached=None) -> np.ndarray:
    """Boolean mask over [0, n) of the closure under right multiplication by
    ``gens`` of the subgroup marked by ``reached`` (grown in place; by
    default the identity 0); ``product`` multiplies two encoding arrays.
    Each step multiplies the elements the last step reached, in row blocks,
    by every generator and by the first of those elements: that one is in
    the closure already, and it cuts the steps for one generator of order m
    far below m (67 for m = 65536)."""
    if reached is None:
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
    right = np.append(np.asarray(gens, dtype=np.int64), 0)
    frontier = np.flatnonzero(reached)
    while frontier.size:
        right[-1] = frontier[0]
        nxt = np.concatenate([product(rows, right).ravel()
                              for rows in row_blocks(frontier, right.size)])
        frontier = np.unique(nxt[~reached[nxt]])
        reached[frontier] = True
    return reached


class PermutationGroup(FiniteGroup):
    """Group of the permutations ``perms`` of [0, degree), the degree being
    their common length; elements are sorted lexicographically (which puts
    the identity at encoding 0).

    The constructor raises ValueError for an empty list, a tuple that is not
    a permutation of the same [0, degree) as the others, and a list not
    closed under composition. It checks right multiplication by each
    element of a greedy generating set exactly: products of members by
    checked generators are members, so the ranking of `_product_array`
    names them exactly, and every member is a product of those generators.
    """

    def __init__(self, perms, name: str = "perm-group"):
        perms = sorted(set(map(tuple, perms)))
        if not perms:
            raise ValueError("no permutations given")
        self.degree = len(perms[0])
        ident = tuple(range(self.degree))
        bad = next((p for p in perms if tuple(sorted(p)) != ident), None)
        if bad is not None:
            raise ValueError(f"{bad} is not a permutation of [0, {self.degree}), as {perms[0]} is")
        if perms[0] != ident:
            raise ValueError("element set does not contain the identity")
        self.perms = perms
        self.order = len(perms)
        self._index = {p: i for i, p in enumerate(perms)}
        self.name = name
        array = self._ranking()[0]
        for s in _greedy_generators(self._product_array, self.order):
            # each x*s composed directly, against the member the ranking names
            bad = (array[:, array[s]] != array[self._product_array(np.arange(self.order), s)]).any(axis=1)
            if bad.any():
                raise ValueError(f"permutations not closed under composition: "
                                 f"{perms[int(bad.argmax())]} * {perms[s]} is not a member")

    def multiply(self, a, b):
        pa, pb = self.perms[a], self.perms[b]
        return self._index[tuple(pa[i] for i in pb)]

    def inverse(self, a):
        pa = self.perms[a]
        inv = [0] * self.degree
        for i, j in enumerate(pa):
            inv[j] = i
        return self._index[tuple(inv)]

    def _product_array(self, x, y):
        # a product is ranked by its images of a few base points: each base
        # point refines the classes of perms agreeing on the points before it,
        # and `lookup` maps (class, image) to the refined class, so no key
        # grows past order * degree
        perms, steps, rank = self._ranking()
        cls = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        for point, lookup in steps:
            cls = lookup[cls * self.degree + perms[x, perms[y, point]]]
        return rank[cls]

    def _ranking(self):
        cached = getattr(self, "_rank_cache", None)
        if cached is None:
            perms = np.array(self.perms, dtype=np.int64).reshape(self.order, self.degree)
            cls = np.zeros(self.order, dtype=np.int64)
            count, steps = 1, []
            for point in range(self.degree):
                if count == self.order:
                    break
                key = cls * self.degree + perms[:, point]
                classes, refined = np.unique(key, return_inverse=True)
                if len(classes) > count:
                    lookup = np.full(count * self.degree, -1, dtype=np.int64)
                    lookup[key] = refined
                    steps.append((point, lookup))
                    cls, count = refined, len(classes)
            rank = np.empty(self.order, dtype=np.int64)
            rank[cls] = np.arange(self.order)
            cached = self._rank_cache = (perms, steps, rank)
        return cached


class FrobeniusFieldGroup(FiniteGroup):
    """Affine maps x -> g^k * x + a over GF(p^r), i.e. the semidirect product
    of the additive group (kernel) by the multiplicative group (complement).

    Element (a, k) is encoded as enc(a) * (p^r - 1) + k; the identity (0, 0)
    lands at 0.
    """

    def __init__(self, p: int, r: int):
        field = FiniteField(p, r)
        q = field.size
        if q < 3:
            raise ValueError("need p^r >= 3 for a nontrivial multiplicative part")
        self.field = field
        self.q = q
        self.order = q * (q - 1)
        self.name = f"Frob({p},{r})"
        self._g = field.primitive_element

    def encode(self, a: int, k: int) -> int:
        return a * (self.q - 1) + k

    def multiply(self, x, y):
        q1 = self.q - 1
        a, k = divmod(x, q1)
        b, l = divmod(y, q1)
        f = self.field
        gb = f.mul(f.pow(self._g, k), b)
        return (f.add(a, gb)) * q1 + (k + l) % q1

    def inverse(self, x):
        q1 = self.q - 1
        a, k = divmod(x, q1)
        f = self.field
        g_inv_k = f.pow(self._g, (q1 - k) % q1)
        b = f.neg(f.mul(g_inv_k, a))
        return b * q1 + (q1 - k) % q1

    def _product_array(self, x, y):
        q1 = self.q - 1
        a, k = np.divmod(x, q1)
        b, l = np.divmod(y, q1)
        f = self.field
        gb = np.where(b == 0, 0, f._exp[(k + f._log[b]) % q1])
        return f.add(a, gb) * q1 + (k + l) % q1

    def kernel_elements(self) -> list[int]:
        """Encodings of the normal elementary-abelian part {(a, 0)}."""
        return [a * (self.q - 1) for a in range(self.q)]

    def complement_elements(self) -> list[int]:
        """Encodings of the cyclic part {(0, k)} of order p^r - 1."""
        return list(range(self.q - 1))


class DirectProductGroup(FiniteGroup):
    """Componentwise product; encodings packed mixed-radix, first factor most
    significant, so the identity tuple maps to 0."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("direct product needs at least one factor")
        self.factors = factors
        self.order = math.prod(g.order for g in factors)
        self.name = "x".join(g.name for g in factors)

    def encode(self, parts) -> int:
        e = 0
        for g, x in zip(self.factors, parts):
            e = e * g.order + x
        return e

    def decode(self, e: int) -> tuple[int, ...]:
        parts = []
        for g in reversed(self.factors):
            e, x = divmod(e, g.order)
            parts.append(x)
        return tuple(reversed(parts))

    def multiply(self, a, b):
        pa, pb = self.decode(a), self.decode(b)
        return self.encode(g.multiply(x, y) for g, x, y in zip(self.factors, pa, pb))

    def inverse(self, a):
        return self.encode(g.inverse(x) for g, x in zip(self.factors, self.decode(a)))

    def _product_array(self, x, y):
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        place = self.order
        for g in self.factors:
            place //= g.order
            out += g._product_array(x // place % g.order, y // place % g.order) * place
        return out


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def cyclic(n: int) -> CyclicGroup:
    return CyclicGroup(n)


def abelian_of_type(type_map: dict[int, list[int]]) -> FiniteGroup:
    """Abelian group as a product of cyclic prime-power factors.

    ``type_map`` sends each prime to its partition of exponents, e.g.
    {2: [2, 1], 3: [1]} -> C4 x C2 x C3. Order is deterministic: primes
    ascending, exponents descending.
    """
    factors = []
    for p in sorted(type_map):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        for a in sorted(type_map[p], reverse=True):
            if a < 1:
                raise ValueError(f"exponents must be >= 1, got {a}")
            factors.append(CyclicGroup(p ** a))
    if not factors:
        return CyclicGroup(1)
    if len(factors) == 1:
        return factors[0]
    return DirectProductGroup(factors)


def dihedral(n: int) -> PermutationGroup:
    """Dihedral group of order 2n as symmetries of the n-gon, n >= 3: the
    n rotations i -> i + k and the n reflections i -> k - i (mod n)."""
    if not 3 <= n <= 512:
        raise ValueError(f"dihedral parameter must be in [3, 512], got {n}")
    rotations = [[(i + k) % n for i in range(n)] for k in range(n)]
    reflections = [[(k - i) % n for i in range(n)] for k in range(n)]
    return PermutationGroup(rotations + reflections, name=f"D{n}")


def symmetric(d: int) -> PermutationGroup:
    if not 1 <= d <= 8:
        raise ValueError(f"symmetric degree must be in [1, 8], got {d}")
    perms = list(itertools.permutations(range(d)))
    return PermutationGroup(perms, name=f"S{d}")


def alternating(d: int) -> PermutationGroup:
    if not 1 <= d <= 8:
        raise ValueError(f"alternating degree must be in [1, 8], got {d}")
    # the even permutations: those with an even number of inversions
    perms = [p for p in itertools.permutations(range(d))
             if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    return PermutationGroup(perms, name=f"A{d}")


def quaternion8() -> CayleyTableGroup:
    """The quaternion group {+-1, +-i, +-j, +-k}."""
    units = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1),
    ]
    index = {u: i for i, u in enumerate(units)}

    def qmul(x, y):
        w1, x1, y1, z1 = x
        w2, x2, y2, z2 = y
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    table = [[index[qmul(a, b)] for b in units] for a in units]
    return CayleyTableGroup(np.array(table), name="Q8")


def frobenius_field(p: int, r: int) -> FrobeniusFieldGroup:
    return FrobeniusFieldGroup(p, r)


def direct_product(factors) -> DirectProductGroup:
    return DirectProductGroup(factors)


def from_cayley_table(table, name: str = "table-group") -> CayleyTableGroup:
    """Validate and wrap raw table data (nested lists or array)."""
    return CayleyTableGroup(table, name=name)
