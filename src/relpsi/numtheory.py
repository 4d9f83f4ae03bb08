"""Integer plumbing, the closed-form order-sum formulas for cyclic groups,
and the parameters and closed form of the Frobenius counterexample family.

Everything here is exact: sums are arbitrary-precision integers and every
ratio is a ``fractions.Fraction`` (auto-reduced, denominator positive).
Floats never appear in results. This module uses only the standard library,
so the closed-form commands run without numpy.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import count
from math import gcd, isqrt

__all__ = [
    "factorize",
    "is_prime",
    "is_mersenne_exponent",
    "psi_cyclic",
    "psi_cyclic_lower_bound",
    "frobenius_ratio_closed_form",
    "index_ratio_bound",
    "CounterexampleSpec",
]


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Exact factorization of n >= 1 into certified primes: the pairs (p, a)
    with p^a exactly dividing n, primes ascending (none for n = 1).

    Trial division strips the prime factors below ``_TRIAL_BOUND``, which
    factors every n below ``_TRIAL_BOUND ** 2`` completely. A larger
    cofactor is split by an exact square-root check and Pollard-Brent rho,
    and each prime it yields is proved prime as in ``is_prime``. Raises
    ValueError when a factor cannot be certified or rho finds no divisor
    within its fixed budget, which is sized to split every composite below
    ``_MR_PROOF_BOUND``.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    m = n
    factors = []
    p = 2
    while p * p <= m and p < _TRIAL_BOUND:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if p * p <= m:
        factors += sorted(Counter(_large_prime_factors(m)).items())
    elif m > 1:
        factors.append((m, 1))
    return tuple(factors)


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, built from ``factorize(n)``."""
    ds = [1]
    for p, a in factorize(n):
        ds = [d * p ** i for d in ds for i in range(a + 1)]
    return sorted(ds)


def is_prime(n: int) -> bool:
    """Exact primality: True only for a proved prime.

    Trial division below ``_TRIAL_BOUND`` decides every n below its square.
    Above that, n = 2^k - 1 is decided by Lucas-Lehmer at any size, and any
    other n by strong-probable-prime tests to the first 13 prime bases,
    which prove primality below ``_MR_PROOF_BOUND``. At or above it a
    witness still proves n composite, but an n with no witness raises
    ValueError instead of being called prime.
    """
    if n < 2:
        return False
    p = 2
    while p * p <= n and p < _TRIAL_BOUND:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return p * p > n or _certified_prime(n)


def is_mersenne_exponent(r: int) -> bool:
    """True iff 2^r - 1 is prime (decided by Lucas-Lehmer in ``is_prime``)."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return is_prime((1 << r) - 1)


# Trial division tries 2 and the odd numbers below this bound, so a cofactor
# left below its square is prime.
_TRIAL_BOUND = 1000
# A strong probable prime to the first 13 prime bases below this bound is
# prime (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981
# Pollard-Brent rho: steps per gcd, and the steps tried on one cofactor below
# _MR_PROOF_BOUND before giving up (rounds of r = 1, 2, ..., 2^22). Rho needs
# about 2 sqrt(p) steps to find a prime factor p, and no composite below
# _MR_PROOF_BOUND has its smallest factor above p_max = 1.82e12, so the budget
# is 12 sqrt(p_max); over 40 000 seeded semiprimes no split took more than
# 11.1 sqrt(p). The hardest case, the product of the two primes just below
# sqrt(_MR_PROOF_BOUND), splits in round r = 2^20 of c = 1, within 4 194 302
# steps.
_RHO_BATCH = 128
_RHO_BUDGET = 1 << 24
# Above the bound no step count guarantees a split, so rho gets a fixed amount
# of work: a step on a b-bit cofactor costs about b * (b + 2048) units (linear
# in b up to a few hundred bits, quadratic beyond), so about 2^21 steps at 121
# bits and 2^17 at 1000 bits.
_RHO_WORK = 1 << 39


def _certified_prime(n: int) -> bool:
    """Primality of an odd n > 41 with no prime factor below ``_TRIAL_BOUND``."""
    if n & (n + 1) == 0:  # n = 2^k - 1: Lucas-Lehmer, exact for every k >= 3
        return is_prime(n.bit_length()) and _lucas_lehmer(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a is a witness: n is composite
    if n < _MR_PROOF_BOUND:
        return True
    raise ValueError(f"cannot certify primality of {n}")


def _lucas_lehmer(n: int) -> bool:
    """Primality of the Mersenne number n = 2^k - 1 for an odd prime k."""
    s = 4
    for _ in range(n.bit_length() - 2):
        s = (s * s - 2) % n
    return s == 0


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors of m, with multiplicity and in no order; m has no
    prime factor below ``_TRIAL_BOUND``."""
    primes, stack = [], [m]
    while stack:
        m = stack.pop()
        if _certified_prime(m):
            primes.append(m)
            continue
        r = isqrt(m)
        d = r if r * r == m else _rho_divisor(m)
        stack += [d, m // d]
    return primes


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard-Brent rho with
    batched gcds over x -> x^2 + c for c = 1, 2, ...; raises ValueError
    before the steps would pass ``_RHO_BUDGET``, or above the proof bound
    those that ``_RHO_WORK`` buys at the bit length of n."""
    b = n.bit_length()
    budget = _RHO_BUDGET if n < _MR_PROOF_BOUND else _RHO_WORK // (b * (b + 2048))
    steps = 0

    def spend(k: int) -> None:
        nonlocal steps
        steps += k
        if steps > budget:
            raise ValueError(f"cannot split {n}: Pollard rho found no divisor in {budget} steps")

    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            spend(r)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - done)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += batch
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g < n:
            return g


def psi_cyclic(n: int) -> int:
    """Sum of element orders of the cyclic group of order n.

    Multiplicative over the prime factorization: each prime power p^a
    contributes (p^(2a+1) + 1) / (p + 1), an exact integer.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = 1
    for p, a in factorize(n):
        num = p ** (2 * a + 1) + 1
        total *= num // (p + 1)
    return total


def psi_cyclic_lower_bound(n: int) -> Fraction:
    """Quadratic lower bound p_min * n^2 / (p_max + 1) for psi_cyclic(n), n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2 (n = 1 has no prime divisors), got {n}")
    primes = [p for p, _ in factorize(n)]
    return Fraction(primes[0] * n * n, primes[-1] + 1)


def frobenius_ratio_closed_form(r: int) -> Fraction:
    """Exact value of (3*2^(2r) - 9*2^r + 15) / (2^(2r+1) + 1).

    For r with 2^r - 1 prime this is the ratio of the relative order sum of
    the affine Frobenius group over GF(2^r) (relative to its complement) to
    the matching cyclic-group reference; as a rational function it is defined
    for every r >= 3.
    """
    if r < 3:
        raise ValueError(f"need r >= 3, got {r}")
    return Fraction(3 * 2 ** (2 * r) - 9 * 2 ** r + 15, 2 ** (2 * r + 1) + 1)


def index_ratio_bound(q: int) -> Fraction:
    """(q^2 - q + 1) / psi_cyclic(q): the envelope controlling relative-order
    ratios of subgroups of index q. Not bounded by 3/2 in general; along
    q = 3*2^a it increases toward 27/14."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return Fraction(q * q - q + 1, psi_cyclic(q))


class CounterexampleSpec(namedtuple("CounterexampleSpec", "r q", defaults=(0,))):
    """Parameters of the Frobenius counterexample family: the group is the
    affine group over GF(2^r) (2^r - 1 prime), optionally crossed with C_q
    for an odd prime q not dividing 2^r - 1. An immutable (r, q) tuple; a
    named tuple, since `dataclasses` would import `inspect` into every
    closed-form command."""

    __slots__ = ()

    def validate(self) -> None:
        """Raise ValueError unless 2^r - 1 is prime and q a valid cofactor.
        An r whose psi_H has more decimal digits than Python will convert
        to a string is refused first, before any primality test."""
        if self.r < 3:
            raise ValueError(f"need r >= 3, got {self.r}")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # psi_H >= M^3 >= 2^(3r - 3), so a large r is refused before psi_H is multiplied out
        if limit and (3 * self.r - 3 >= (10 ** limit).bit_length() or self.psi_h >= 10 ** limit):
            raise ValueError(f"psi_H for r = {self.r} has more than {limit} digits, "
                             "the most Python converts to a decimal string")
        if not is_mersenne_exponent(self.r):
            raise ValueError(f"2^{self.r}-1 is not prime")
        if self.q:
            if self.q % 2 == 0:
                raise ValueError(f"cofactor q must be odd, got {self.q}")
            if not is_prime(self.q):
                raise ValueError(f"cofactor q must be prime, got {self.q}")
            if (2 ** self.r - 1) % self.q == 0:
                raise ValueError(f"cofactor q = {self.q} divides 2^{self.r}-1")

    @property
    def group_order(self) -> int:
        n = 2 ** self.r * (2 ** self.r - 1)
        return n * self.q if self.q else n

    @property
    def subgroup_order(self) -> int:
        m = 2 ** self.r - 1
        return m * self.q if self.q else m

    @property
    def psi_h(self) -> int:
        """The closed form psi_relative_frobenius_formula(2, r) * q, which is
        M * (M^2 - M + 3) * q for the prime M = 2^r - 1, since
        psi_cyclic(M) = M^2 - M + 1; it needs no second primality proof."""
        m = 2 ** self.r - 1
        return m * (m * m - m + 3) * (self.q or 1)


def rational_json(fr: Fraction) -> dict:
    """Exact JSON form of a rational: numerator and denominator as strings."""
    return {"num": str(fr.numerator), "den": str(fr.denominator)}
