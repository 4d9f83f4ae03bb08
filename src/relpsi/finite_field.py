"""GF(p^r) arithmetic on integer-encoded elements.

An element with polynomial coefficients (c_0, c_1, ..., c_{r-1}) (constant
term first) is encoded as the base-p integer sum(c_i * p^i), so encodings run
over [0, p^r). Encoding 0 is the additive identity, encoding 1 the
multiplicative identity. Multiplication and powers (inverses included, as
``pow(a, -1)``) go through discrete log/exp tables over a fixed primitive
element, so they are O(1) after construction. Fields are capped at
p^r <= FIELD_SIZE_CAP.
"""

from __future__ import annotations

import numpy as np

from .budget import FIELD_SIZE_CAP, power_text
from .numtheory import factorize, is_prime

__all__ = ["FiniteField"]


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, constant term first,
# trailing zeros trimmed); only used during field construction
# ---------------------------------------------------------------------------

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _poly_mod(f, m, p):
    f = list(f)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(f) - 1 >= dm and f:
        c = f[-1] * inv_lead % p
        shift = len(f) - 1 - dm
        for i, a in enumerate(m):
            f[shift + i] = (f[shift + i] - c * a) % p
        _trim(f)
    return f


def _poly_gcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        f, g = g, _poly_mod(f, g, p)
    return f


def _poly_powmod(f, e, m, p):
    result = [1]
    base = _poly_mod(f, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(f, p, r):
    # No irreducible factor of degree <= r/2 forces irreducibility, since two
    # proper factors cannot both have degree > r/2. x^(p^i) - x is the product
    # of all irreducibles of degree dividing i.
    t = [0, 1]
    for _ in range(r // 2):
        t = _poly_powmod(t, p, f, p)
        diff = list(t) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        _trim(diff)
        g = _poly_gcd(list(f), diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree r over F_p with the smallest
    coefficient encoding (coefficients read as a base-p integer). Returned
    constant term first, leading coefficient 1 included."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    for low in range(p ** r):
        coeffs = _digits(low, p, r) + [1]
        if _is_irreducible(coeffs, p, r):
            return tuple(coeffs)
    raise AssertionError("unreachable: irreducibles of every degree exist")


def _digits(e, p, r):
    out = []
    for _ in range(r):
        out.append(e % p)
        e //= p
    return out


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

    # -- raw (table-free) arithmetic, used during construction ---------------

    def _raw_mul(self, a: int, b: int) -> int:
        fa = _trim(_digits(a, self.p, self.r))
        fb = _trim(_digits(b, self.p, self.r))
        prod = _poly_mod(_poly_mul(fa, fb, self.p), list(self.modulus), self.p)
        return self.encode(prod)

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return result

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
        q = self.size
        exp = [1] * max(q - 1, 1)
        log = [0] * q
        g = self.primitive_element
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            log[acc] = k
            acc = self._raw_mul(acc, g)
        # read-only int64 arrays, so a group product can gather through them
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.array(log, dtype=np.int64)
        self._exp.setflags(write=False)
        self._log.setflags(write=False)

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

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        for _ in range(self.r):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.size - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of 0 in finite field")
            return 0 if e else 1
        return int(self._exp[int(self._log[a]) * e % (self.size - 1)])

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"

