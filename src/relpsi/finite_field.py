"""GF(p^r) arithmetic on integer-encoded elements.

An element with polynomial coefficients (c_0, c_1, ..., c_{r-1}) (constant
term first) is encoded as the base-p integer sum(c_i * p^i), so encodings run
over [0, p^r). Encoding 0 is the additive identity, encoding 1 the
multiplicative identity. Multiplication goes through discrete log/exp
tables over a fixed primitive element g, so it is O(1) after construction;
``_exp[k]`` is g^k, which is how a Frobenius group reads its powers of g.
Fields are capped at p^r <= FIELD_SIZE_CAP.

Construction reads encodings as digit vectors over F_p, on which
multiplication by a fixed b is linear: row i of its r x r matrix holds the
digits of x^i * b. Powers are matrix powers, and the tables are filled from
the map a -> a * g over all encodings at once.
"""

from __future__ import annotations

import numpy as np

from .budget import FIELD_SIZE_CAP, power_text
from .numtheory import factorize, is_prime

__all__ = ["FiniteField"]


def _digit_vectors(codes, p: int, n: int) -> np.ndarray:
    """The n lowest base-p digits of each encoding in ``codes``, constant
    term first, along a new last axis."""
    return np.asarray(codes, dtype=np.int64)[..., None] // p ** np.arange(n) % p


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree r over F_p with the smallest
    coefficient encoding (coefficients read as a base-p integer). Returned
    constant term first, leading coefficient 1 included."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    # f is reducible iff a monic g of degree d <= m = r/2 divides it, since two
    # proper factors cannot both have degree > r/2. Each g is taken times
    # x^(m-d), so that all lead at x^m, and divides x^(m-d) * f with the
    # remainder x^(m-d) * (f mod g): every division runs in the same columns.
    m = r // 2
    pairs = [(p ** d + low, m - d) for d in range(1, m + 1) for low in range(p ** d)]
    leads, shifts = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    divisors = _digit_vectors(leads * p ** shifts, p, m + 1)
    for f in range(p ** r, 2 * p ** r):
        # for r > 1, a zero constant term is the factor x
        if r > 1 and f % p == 0:
            continue
        rem = _digit_vectors(f * p ** shifts, p, r + m)
        for k in range(r + m - 1, m - 1, -1):
            rem[:, k - m:k + 1] = (rem[:, k - m:k + 1] - rem[:, k:k + 1] * divisors) % p
        if rem.any(axis=1).all():
            return tuple(_digit_vectors(f, p, r + 1).tolist())
    raise AssertionError("unreachable: irreducibles of every degree exist")


class FiniteField:
    """Immutable GF(p^r); all element operations take and return encodings."""

    def __init__(self, p: int, r: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        # p >= 2, so an r with 2^r above the cap is over it without computing p^r
        if r >= FIELD_SIZE_CAP.bit_length() or p ** r > FIELD_SIZE_CAP:
            raise ValueError(f"field size {p}^{r} exceeds cap {power_text(FIELD_SIZE_CAP)}")
        q = p ** r
        self.p = p
        self.r = r
        self.size = q
        self.modulus = find_irreducible(p, r)
        self.primitive_element = self._find_primitive()
        self._build_tables()

    # -- table-free arithmetic on digit vectors, used during construction -----

    def _mul_matrix(self, b: int) -> np.ndarray:
        """Matrix M(b) with digits(a) @ M(b) % p the digits of a * b: row i is
        row i - 1 shifted up one digit, plus its top digit times x^r mod f."""
        p, r = self.p, self.r
        x_to_r = -np.array(self.modulus[:r], dtype=np.int64) % p
        M = np.zeros((r, r), dtype=np.int64)
        M[0] = _digit_vectors(b, p, r)
        for i in range(1, r):
            M[i, 1:] = M[i - 1, :-1]
            M[i] = (M[i] + M[i - 1, -1] * x_to_r) % p
        return M

    def _raw_pow(self, a: int, e: int) -> int:
        # M(a)^e = M(a^e), whose first row holds the digits of a^e
        result = np.identity(self.r, dtype=np.int64)
        base = self._mul_matrix(a)
        while e:
            if e & 1:
                result = result @ base % self.p
            base = base @ base % self.p
            e >>= 1
        return self.encode(result[0].tolist())

    def _find_primitive(self) -> int:
        if self.size == 2:
            return 1
        group_order = self.size - 1
        prime_divs = [t for t, _ in factorize(group_order)]
        for g in range(2, self.size):
            if all(self._raw_pow(g, group_order // t) != 1 for t in prime_divs):
                return g
        raise AssertionError("unreachable: multiplicative group is cyclic")

    def _build_tables(self):
        p, q = self.p, self.size
        # times_g[a] = a * g over the encodings below p^(i+1), from those below
        # p^i: adding digit i of a adds a_i * (x^i * g), one of p multiples
        times_g = np.zeros(1, dtype=np.int64)
        for row in self._mul_matrix(self.primitive_element):
            multiples = np.arange(p)[:, None] * row % p @ p ** np.arange(self.r)
            times_g = self.add(multiples[:, None], times_g).ravel()
        # with exp[:L] = g^0..g^(L-1) known and times_g multiplying by g^L,
        # one gather gives the next L powers, and squaring the map doubles L
        exp = np.ones(q - 1, dtype=np.int64)
        known = 1
        while known < q - 1:
            new = min(known, q - 1 - known)
            exp[known:known + new] = times_g[exp[:new]]
            known += new
            times_g = times_g[times_g]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # read-only int64 arrays, so a group product can gather through them
        exp.setflags(write=False)
        log.setflags(write=False)
        self._exp, self._log = exp, log

    # -- element operations ---------------------------------------------------

    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + c % self.p
        return e

    def add(self, a, b):
        """Digit-wise sum mod p of two encodings, or elementwise of two int64
        arrays."""
        if self.p == 2:
            return a ^ b
        p, out, place = self.p, 0, 1
        for _ in range(self.r):
            out = out + (a // place + b // place) % p * place
            place *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.size - 1)])

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"
