"""Finite groups on integer encodings.

Every group fixes a deterministic bijection between its elements and
[0, order), with the identity at encoding 0. Each class names coordinates
for its elements: `_split` turns int64 encodings into a flat tuple of
coordinate arrays and `_join` turns them back. C_n has one coordinate k, a
Frobenius group two, (a, k), and a direct product its factors' coordinates
in turn, so products nest; a table or permutation group keeps the encoding
itself. Each class defines exactly one product, `_product`, on those
coordinates: exponents k + l are reduced by one min against k + l - n, with
no division. The array product on encodings, `_product_array`, is join,
product and split, and the Cayley table, inverses, element orders and power
table all come from it, except in C_n: its power table, and its seed
columns `seed_powers`, which it builds alone, are k*x mod n, and its
element orders come from a divisor sieve, all with no Cayley table. A
group of order at most TABLE_CAP builds one compact Cayley table, from the
array product, when the power table of a class other than C_n or the
subgroup lattice first needs it, and caches it; `multiply_array` reads that
table once it exists and otherwise computes products arithmetically, so a
closure or inverse pass alone, or any pass above the cap, builds no table;
a direct product multiplies its factors' coordinates, so a factor never
builds a table for its parent.
`first_powers_in` gives relative orders, and element orders above the cap,
in one pass over the divisors of the group order up to the index, each
power formed from stored squares that it keeps split, on every group's own
`_product`, and holds one int64 array over the group, its result. Each
class also keeps a scalar `multiply` that the program does not call: the
tests check the array product and `inverses()`, every class's one inverse,
against it and build their reference arithmetic on it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .budget import DEGREE_CAP, DIHEDRAL_CAP, ELEMENT_CAP, ENCODING_CAP, TABLE_CAP, power_text
from .finite_field import FiniteField
from .numtheory import divisors, factorize, is_prime

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

# entries per temporary array when a loop covers all pairs of two element sets
_BLOCK = 1 << 20


class CayleyTableError(ValueError):
    """Raised when ingested Cayley-table data fails validation."""


def check_element_budget(n: int, advice: str = "") -> None:
    """Raise ValueError for a group of more than ELEMENT_CAP elements,
    before any array over its elements is built."""
    if n > ELEMENT_CAP:
        raise ValueError(f"group of order {n} exceeds the brute-force budget "
                         f"{power_text(ELEMENT_CAP)}{advice}")


def _check_table_cap(n: int) -> None:
    """Raise ValueError for an n x n table with n above TABLE_CAP."""
    if n > TABLE_CAP:
        raise ValueError(f"refusing to materialize {n}x{n} table (cap {TABLE_CAP})")


def _reduce(s: np.ndarray, n: int) -> np.ndarray:
    """s mod n, for int64 entries s in [0, 2n), as min(s, s - n) on a
    uint64 view: where s < n, s - n wraps past 2^63 > s, so the min keeps s,
    and elsewhere it is s - n < n <= s. Two passes, exact for every n up to
    ENCODING_CAP. An array s is overwritten; a numpy scalar, the sum of two
    0-d inputs, is read through a new 0-d array, and the ufuncs, unlike
    scalar arithmetic, wrap without a warning."""
    u = np.asarray(s).view(np.uint64)
    return np.minimum(u, np.subtract(u, n), out=u).view(np.int64)


def row_blocks(rows: np.ndarray, width: int):
    """Split ``rows`` into column vectors of at most about _BLOCK / width
    entries, so a product against ``width`` columns stays small."""
    step = max(1, _BLOCK // max(width, 1))
    for lo in range(0, len(rows), step):
        yield rows[lo:lo + step, None]


class FiniteGroup:
    """Abstract finite group; concrete classes define the product `_product`
    on coordinate tuples (a table group reads its table), a scalar `multiply`
    for the tests and, when their coordinates are not the encoding itself,
    `_split`, `_join` and the number of coordinate arrays `_width`."""

    order: int
    name: str = "G"
    identity: int = 0
    _width = 1

    @staticmethod
    def _split(x) -> tuple:
        """int64 encodings -> flat tuple of ``_width`` coordinate arrays; here
        the encoding itself, which a subclass with coordinates overrides."""
        return (x,)

    @staticmethod
    def _join(coords):
        """The encodings of a coordinate tuple; the inverse of `_split`."""
        return coords[0]

    def _product_array(self, x, y) -> np.ndarray:
        """Products of two broadcastable int64 encoding arrays, multiplied
        on their coordinates."""
        return self._join(self._product(self._split(x), self._split(y)))

    @property
    def tabulated(self) -> bool:
        """True when the power table can be built, which C_n reads off k*x
        mod n with no Cayley table and every other class builds from its
        table: the group is at most TABLE_CAP or has its table. Every class
        but C_n, whose orders come from a divisor sieve, then reads its
        element orders off that table."""
        return self.order <= TABLE_CAP or getattr(self, "_table_cache", None) is not None

    def multiply_array(self, x, y) -> np.ndarray:
        """Elementwise products of two broadcastable int64 encoding arrays,
        read from the Cayley table once it is built and multiplied on
        coordinates before; this never builds the table."""
        table = getattr(self, "_table_cache", None)
        if table is not None:
            return table[x, y].astype(np.int64)
        return self._product_array(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))

    def _table(self) -> np.ndarray:
        """The cached Cayley table in the smallest unsigned dtype that holds
        an encoding; built in row blocks from the array product."""
        table = getattr(self, "_table_cache", None)
        if table is None:
            n = self.order
            _check_table_cap(n)
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
            check_element_budget(self.order)
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
        the identity), any other group takes one vectorised power pass, and
        C_n overrides both with a divisor sieve. A group above ELEMENT_CAP
        is refused before any array is built."""
        if getattr(self, "_order_cache", None) is None:
            if self.tabulated:
                self._build_powers()
            else:
                check_element_budget(self.order)
                identity = np.zeros(self.order, dtype=bool)
                identity[self.identity] = True
                orders = first_powers_in(self, identity)
                orders.setflags(write=False)
                self._order_cache = orders
        return self._order_cache

    def power_table(self) -> np.ndarray:
        """Read-only array P with P[k, x] = x^(k+1) for k below the largest
        element order, so column x lists the powers of x up to the identity.
        Cached; tabulated groups only. The lattice and its order sums read
        only its seed columns, through `seed_powers`, which C_n builds
        without it."""
        if getattr(self, "_power_cache", None) is None:
            self._build_powers()
        return self._power_cache

    def seed_powers(self) -> np.ndarray:
        """Read-only columns P[:, seeds] of the power table P at the seeds
        of `cyclic_seeds`, in their order: column i lists the powers of the
        i-th seed. Cached; tabulated groups only."""
        if getattr(self, "_seed_powers_cache", None) is None:
            powers = self.power_table()[:, self.cyclic_seeds()[0]]
            powers.setflags(write=False)
            self._seed_powers_cache = powers
        return self._seed_powers_cache

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
        """Fill the power-table and element-order caches from the rows of
        `_power_rows`. The order of x divides |G|, so it is the least
        divisor d of |G| with the identity in row d - 1 of column x: one
        first-hit argmax over those rows alone reads every order. Rows past
        the largest element order e are cut off by the cached view."""
        powers = self._power_rows()
        ds = np.array([d for d in divisors(self.order) if d <= len(powers)])
        orders = ds[(powers[ds - 1] == self.identity).argmax(axis=0)]
        powers = powers[:orders.max()]
        powers.setflags(write=False)
        orders.setflags(write=False)
        self._power_cache, self._order_cache = powers, orders

    def _power_rows(self) -> np.ndarray:
        """The first rows P[k] = x^(k+1) of the power table, in the Cayley
        table's dtype, enough that every column meets the identity in them;
        built by doubling through the Cayley table, which C_n overrides with
        arithmetic.

        With the first L rows known, the next L rows are one table read,
        P[L + k] = P[k] * P[L - 1], that is x^(k+1) * x^L. Each block of new
        rows is tested for the identity once, and the doubling stops once
        every column has met it, so the largest element order e takes about
        log2(e) reads. The rows live in one buffer of at most n rows, never
        more than the Cayley table itself. Reads go in blocks of about
        _BLOCK entries, which bounds their int64 index temporaries.
        """
        table = self._table()
        n = self.order
        powers = np.empty((n, n), dtype=table.dtype)
        powers[0] = np.arange(n)
        done = powers[0] == self.identity
        rows, step = 1, max(1, _BLOCK // n)
        while not done.all():
            last, new = powers[rows - 1], min(rows, n - rows)
            for lo in range(0, new, step):
                block = powers[rows + lo:rows + min(lo + step, new)]
                block[:] = table[powers[lo:lo + len(block)], last]
                done |= (block == self.identity).any(axis=0)
            rows += new
        return powers[:rows]

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
    every m. A square x^(2^j) is formed by squaring x^(2^(j-1)), unless
    the previous divisor was 2^j: its power, as it stood before this step
    multiplied it, is that square and is kept as it, so Frob(2,7) over its
    complement takes 12 coordinate products. Encodings go in blocks of
    _BLOCK / 64, and each block's elements outside the set are read off the
    mask, so the int64 result is the pass's one array over G; the blocks bound the stored squares and
    keep a block's arrays in cache, where the array products run faster per
    element than on 2^20 elements. In a fresh process on a 2-vCPU VM,
    blocks twice that size took twice the page faults and 2.36 s against
    2.05 s for `frobenius --r 7 --q 1031 --brute-force`, as glibc served
    their 256 KiB arrays from fresh pages. An element that no divisor's
    power puts in the set raises ValueError, which only a non-subgroup can
    cause. A group above ELEMENT_CAP is refused first.

    The squares and the running power stay split into coordinates, and a
    power is joined only to read ``inside``, once per divisor step.
    """
    check_element_budget(G.order)
    limit = G.order // np.count_nonzero(inside)
    ds = [d for d in divisors(G.order) if 1 < d <= limit]
    split, join, product = G._split, G._join, G._product
    orders = np.ones(G.order, dtype=np.int64)
    step = max(1, _BLOCK >> 6)
    for lo in range(0, G.order, step):
        todo = lo + np.flatnonzero(~inside[lo:lo + step])
        if not todo.size:
            continue
        squares = [split(todo)]
        power, prev = squares[0], 1
        for d in ds:
            gap, start = d - prev, power
            for j in range(gap.bit_length()):
                if len(squares) == j:
                    squares.append(start if prev == 1 << j else product(squares[-1], squares[-1]))
                if gap >> j & 1:
                    power = product(power, squares[j])
            prev = d
            hit = inside[join(power)]
            if not hit.any():
                continue
            orders[todo[hit]] = d
            miss = np.flatnonzero(~hit)
            todo, power = todo[miss], tuple(c[miss] for c in power)
            if not todo.size:
                break
            squares = [tuple(c[miss] for c in s) for s in squares]
        if todo.size:
            raise ValueError(
                f"no power x^d with d dividing {G.order} and 1 <= d <= {limit} of element "
                f"{int(todo[0])} lies in the subgroup; its members do not form a subgroup"
            )
    return orders


class CyclicGroup(FiniteGroup):
    """C_n, written additively: multiply(a, b) = (a + b) mod n."""

    def __init__(self, n: int):
        if not 1 <= n <= ENCODING_CAP:
            raise ValueError(f"cyclic order must be in [1, {power_text(ENCODING_CAP)}], got {n}")
        self.order = n
        self.name = f"C{n}"

    def multiply(self, a, b):
        return (a + b) % self.order

    def _product(self, xs, ys):
        return (_reduce(xs[0] + ys[0], self.order),)

    def _power_rows(self):
        """All n rows x^k = k*x mod n, k = 1..n, of every column."""
        return self._multiples(np.arange(self.order, dtype=np.int64))

    def _multiples(self, xs: np.ndarray) -> np.ndarray:
        """The rows x^k = k*x mod n, k = 1..n, at the int64 columns ``xs``,
        in the table's dtype: the powers of C_n are arithmetic and need no
        Cayley table. Rows go in blocks of at most _BLOCK >> 3 int64
        entries, so building them holds little more than the rows
        themselves. Refused above TABLE_CAP, as the power table is."""
        n = self.order
        _check_table_cap(n)
        powers = np.empty((n, len(xs)), dtype=np.min_scalar_type(n - 1))
        step = max(1, (_BLOCK >> 3) // max(len(xs), 1))
        for lo in range(0, n, step):
            block = np.arange(lo + 1, min(lo + step, n) + 1, dtype=np.int64)[:, None] * xs
            block %= n
            powers[lo:lo + len(block)] = block
        return powers

    def seed_powers(self) -> np.ndarray:
        """`FiniteGroup.seed_powers` with no power table: the rows k*x mod
        n, k = 1..n, at the seeds alone, one column per cyclic subgroup."""
        if getattr(self, "_seed_powers_cache", None) is None:
            powers = self._multiples(self.cyclic_seeds()[0])
            powers.setflags(write=False)
            self._seed_powers_cache = powers
        return self._seed_powers_cache

    def element_orders(self) -> np.ndarray:
        """`FiniteGroup.element_orders` with no power table: k has order
        n / gcd(n, k), which the divisor sieve of `order_sums.cyclic_orders`
        writes as int64. A group above ELEMENT_CAP is refused first."""
        if getattr(self, "_order_cache", None) is None:
            from .order_sums import cyclic_orders  # order_sums imports this module

            check_element_budget(self.order)
            orders = cyclic_orders(self.order, np.int64)
            orders.setflags(write=False)
            self._order_cache = orders
        return self._order_cache

    def cyclic_seeds(self) -> tuple[np.ndarray, np.ndarray]:
        """`FiniteGroup.cyclic_seeds` in closed form, with no power table:
        C_n has one cyclic subgroup of each order d dividing n, the
        multiples of n/d, whose smallest generator is n/d, or 0 for d = 1,
        and which phi(d) elements generate. The identity's 0 comes first,
        then n/d ascends as d descends."""
        if getattr(self, "_seed_cache", None) is None:
            n = self.order
            primes = [p for p, _ in factorize(n)]
            ds = [1] + divisors(n)[:0:-1]  # 1 for the identity, then each d > 1 descending
            weights = []
            for d in ds:
                phi = d
                for p in primes:
                    if d % p == 0:
                        phi -= phi // p
                weights.append(phi)
            seeds = np.array([0] + [n // d for d in ds[1:]], dtype=np.int64)
            weights = np.array(weights, dtype=np.int64)
            seeds.setflags(write=False)
            weights.setflags(write=False)
            self._seed_cache = seeds, weights
        return self._seed_cache


class CayleyTableGroup(FiniteGroup):
    """Group given by an explicit n x n multiplication table."""

    def __init__(self, table, name: str = "table-group"):
        data = np.asarray(table)
        table = _validate_table(data)
        # the group owns its table: copy an input that had the compact dtype
        self._keep(table.copy() if table is data else table, name)

    @classmethod
    def _take(cls, table: np.ndarray, name: str) -> CayleyTableGroup:
        """The group of ``table``, a fresh array that no caller keeps, such
        as a parsed file: validated and then kept without __init__'s copy."""
        group = cls.__new__(cls)
        group._keep(_validate_table(table), name)
        return group

    def _keep(self, table: np.ndarray, name: str) -> None:
        self._table_cache = table
        self.order = int(table.shape[0])
        self.name = name

    def multiply(self, a, b):
        return int(self._table_cache[a, b])

    def _product(self, xs, ys):
        return (self._table_cache[xs[0], ys[0]].astype(np.int64),)


def _validate_table(table: np.ndarray) -> np.ndarray:
    """Exact check of the group axioms on a table of any integer dtype:
    shape, entry range, Latin square, two-sided identity 0, and
    associativity by Light's test. Past the range check every check runs on
    the table in the smallest unsigned dtype that holds an encoding, which
    is returned; it is the input itself when that had this dtype.

    The columns are sorted, in the rows' blocks, only once the identity or
    associativity check fails, and tested before that error is raised, so
    each error keeps its precedence: rows, columns, identity, associativity.
    A table that passes the other checks has permutation columns: each row
    a*- is onto, so every a has a right inverse, and a finite associative
    monoid in which every element has one is a group, where each column -*b
    is a bijection.
    """
    if table.dtype.kind not in "iu":
        raise CayleyTableError("table entries must be integers")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise CayleyTableError(f"table is not square: shape {table.shape}")
    n = table.shape[0]
    if n == 0:
        raise CayleyTableError("table is empty: a group has an identity")
    if table.min() < 0 or table.max() >= n:
        raise CayleyTableError("table entries must lie in [0, n)")
    table = table.astype(np.min_scalar_type(n - 1), copy=False)
    bad = _first_non_permutation(table)
    if bad is not None:
        raise CayleyTableError(f"row {bad} is not a permutation (not a Latin square)")
    try:
        ident = np.arange(n, dtype=table.dtype)
        if not np.array_equal(table[0], ident) or not np.array_equal(table[:, 0], ident):
            raise CayleyTableError("element 0 is not a two-sided identity")
        _check_associativity(table)
    except CayleyTableError:
        bad = _first_non_permutation(table.T)
        if bad is not None:
            raise CayleyTableError(f"column {bad} is not a permutation (not a Latin square)") from None
        raise
    return table


def _first_non_permutation(lines: np.ndarray) -> int | None:
    """Index of the first row of the square array ``lines`` (a table, or its
    transpose for the columns) that is not a permutation of [0, n), or
    None; rows are sorted in the blocks of `_table_blocks`."""
    ident = np.arange(lines.shape[0], dtype=lines.dtype)
    # numpy radix-sorts 8-bit integers under "stable", where its default
    # sort is several times slower than on wider types
    kind = "stable" if lines.itemsize == 1 else None
    for lo, rows in _table_blocks(lines):
        bad = np.flatnonzero((np.sort(rows, axis=1, kind=kind) != ident).any(axis=1))
        if bad.size:
            return lo + int(bad[0])
    return None


def _check_associativity(table: np.ndarray) -> None:
    """Light's associativity test over a greedy generating set.

    The elements b with (a*b)*c = a*(b*c) for all a, c are closed under the
    product, so checking b on a set S whose right-multiplication closure from
    the identity is the whole table proves associativity. For each b, rows
    of (a*b)*c are gathered whole from the table and rows of a*(b*c) are the
    rows a with their columns permuted by row b, all in the table's dtype,
    in the blocks of `_table_blocks`.
    """
    n = table.shape[0]
    for b in _greedy_generators(lambda x, y: table[x, y], n):
        right = table[b]
        for lo, rows in _table_blocks(table):
            bad = table[rows[:, b]] != rows.take(right, axis=1)
            if bad.any():
                i, c = np.argwhere(bad)[0]
                raise CayleyTableError(f"associativity fails at ({lo + int(i)},{b},{int(c)})")


def _table_blocks(table: np.ndarray):
    """(first row, view) of each block of rows of a square table in turn.
    A block holds about _BLOCK / 8 entries, because each check on it keeps
    a few arrays of its size alive: at order 2000 together they stay near
    an eighth of the table, which keeps a loaded table's validation about
    as small as its parse."""
    step = max(1, (_BLOCK >> 3) // table.shape[0])
    for lo in range(0, table.shape[0], step):
        yield lo, table[lo:lo + step]


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

    def _product(self, xs, ys):
        # a product is ranked by its images of a few base points: each base
        # point refines the classes of perms agreeing on the points before it,
        # and `lookup` maps (class, image) to the refined class, so no key
        # grows past order * degree
        (x,), (y,) = xs, ys
        perms, steps, rank = self._ranking()
        cls = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        for point, lookup in steps:
            cls = lookup[cls * self.degree + perms[x, perms[y, point]]]
        return (rank[cls],)

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
    lands at 0. Its coordinates are the arrays (a, k).
    """

    _width = 2

    def __init__(self, p: int, r: int):
        field = FiniteField(p, r)
        q = field.size
        if q < 3:
            raise ValueError("need p^r >= 3 for a nontrivial multiplicative part")
        self.field = field
        self.q = q
        self.order = q * (q - 1)
        self.name = f"Frob({p},{r})"
        # g^k * b = exp[k + log b] for b != 0: exp stored twice takes
        # k + log b < 2(q - 1) unreduced, and the q - 1 zeros after it, where
        # log 0 points, give b = 0 its product 0
        q1 = q - 1
        self._exp = np.concatenate([field._exp, field._exp, np.zeros(q1, dtype=np.int64)])
        self._log = field._log.copy()
        self._log[0] = 2 * q1

    def encode(self, a: int, k: int) -> int:
        return a * (self.q - 1) + k

    def multiply(self, x, y):
        q1 = self.q - 1
        a, k = divmod(x, q1)
        b, l = divmod(y, q1)
        f = self.field
        return f.add(a, f.mul(f._exp[k], b)) * q1 + (k + l) % q1

    def _split(self, x):
        return tuple(np.divmod(x, self.q - 1))

    def _join(self, coords):
        return self.encode(*coords)

    def _product(self, xs, ys):
        (a, k), (b, l) = xs, ys
        return self.field.add(a, self._exp[k + self._log[b]]), _reduce(k + l, self.q - 1)


class DirectProductGroup(FiniteGroup):
    """Componentwise product; encodings packed mixed-radix, first factor most
    significant, so the identity tuple maps to 0. Its coordinates are its
    factors' coordinates, first factor first, in one flat tuple."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("direct product needs at least one factor")
        self.order = math.prod(g.order for g in factors)
        if self.order > ENCODING_CAP:
            raise ValueError(f"direct product of order {self.order} exceeds the encoding "
                             f"cap {power_text(ENCODING_CAP)}")
        self.factors = factors
        self.name = "x".join(g.name for g in factors)
        ends = list(itertools.accumulate(g._width for g in factors))
        self._slices = [slice(end - g._width, end) for g, end in zip(factors, ends)]
        self._width = ends[-1]

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

    def _split(self, x):
        # digits from the last factor up; what is left is the first one's
        parts = []
        for g in reversed(self.factors[1:]):
            x, digit = np.divmod(x, g.order)
            parts[:0] = g._split(digit)
        return (*self.factors[0]._split(x), *parts)

    def _join(self, coords):
        return self.encode(g._join(coords[part]) for g, part in zip(self.factors, self._slices))

    def _product(self, xs, ys):
        return tuple(itertools.chain.from_iterable(
            g._product(xs[part], ys[part]) for g, part in zip(self.factors, self._slices)))


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
    if not 3 <= n <= DIHEDRAL_CAP:
        raise ValueError(f"dihedral parameter must be in [3, {DIHEDRAL_CAP}], got {n}")
    rotations = [[(i + k) % n for i in range(n)] for k in range(n)]
    reflections = [[(k - i) % n for i in range(n)] for k in range(n)]
    return PermutationGroup(rotations + reflections, name=f"D{n}")


def symmetric(d: int) -> PermutationGroup:
    if not 1 <= d <= DEGREE_CAP:
        raise ValueError(f"symmetric degree must be in [1, {DEGREE_CAP}], got {d}")
    perms = list(itertools.permutations(range(d)))
    return PermutationGroup(perms, name=f"S{d}")


def alternating(d: int) -> PermutationGroup:
    if not 1 <= d <= DEGREE_CAP:
        raise ValueError(f"alternating degree must be in [1, {DEGREE_CAP}], got {d}")
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
