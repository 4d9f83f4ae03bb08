import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, strategies as st

from relpsi import numtheory
from relpsi.numtheory import (
    divisors,
    factorize,
    frobenius_ratio_closed_form,
    index_ratio_bound,
    is_mersenne_exponent,
    is_prime,
    psi_cyclic,
    psi_cyclic_lower_bound,
)


def brute_psi_cyclic(n):
    # order of k in C_n is n / gcd(n, k); independent of the product formula
    return sum(n // gcd(n, k) for k in range(n))


class TestFactorize:
    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_56(self):
        assert factorize(56) == ((2, 3), (7, 1))

    def test_12(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @pytest.mark.parametrize("n", range(1, 2000))
    def test_invariants(self, n):
        fac = factorize(n)
        value = 1
        prev = 1
        for p, a in fac:
            assert is_prime(p)
            assert p > prev
            assert a >= 1
            prev = p
            value *= p ** a
        assert value == n


class TestDivisors:
    def test_against_trial_division(self):
        for n in range(1, 2001):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    @pytest.mark.parametrize("n", [
        1_000_003 * 1_000_033,
        2 ** 3 * 3 * sympy.nextprime(10 ** 6) ** 2,
        12 * sympy.nextprime(2 ** 40),
    ])
    def test_prime_factor_above_trial_bound_squared(self, n):
        assert max(p for p, _ in factorize(n)) > numtheory._TRIAL_BOUND ** 2
        assert divisors(n) == sorted(sympy.divisors(n))


# Below this bound a strong probable prime to the bases 2..41 is prime
# (Sorenson-Webster); the tests below cross it from both sides.
PROOF_BOUND = 3_317_044_064_679_887_385_961_981
P90 = sympy.nextprime(2 ** 90)


def assert_matches_sympy(n):
    assert dict(factorize(n)) == sympy.factorint(n), n
    assert is_prime(n) == sympy.isprime(n), n


class TestCertifiedAgainstSympy:
    @pytest.mark.parametrize("bits", range(2, 81))
    def test_seeded_random_at_every_bit_length(self, bits):
        rng = random.Random(f"numtheory/{bits}")
        for _ in range(3):
            assert_matches_sympy(rng.randrange(1 << (bits - 1), 1 << bits))

    @pytest.mark.parametrize("n", [
        561, 41041, 825265,  # Carmichael numbers
        3825123056546413051,  # strong pseudoprime to the bases 2..23
        318665857834031151167461,  # strong pseudoprime to 2..37; base 41 catches it
        sympy.nextprime(2 ** 63) ** 2,  # a square above the proof bound
        sympy.nextprime(2 ** 63),
        2 ** 61 - 1,
        2 ** 67 - 1,  # composite Mersenne number
    ])
    def test_hard_cases(self, n):
        assert_matches_sympy(n)

    def test_semiprime_of_the_two_primes_below_the_root_of_the_bound(self):
        # the composite below the bound whose smallest factor is largest
        p = sympy.prevprime(isqrt(PROOF_BOUND))
        q = sympy.prevprime(p)
        assert p * q < PROOF_BOUND
        assert factorize(p * q) == ((q, 1), (p, 1))
        assert not is_prime(p * q)

    def test_uncertifiable_prime_raises_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cannot certify primality of {P90}"):
            is_prime(P90)
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError, match="cannot certify"):
            factorize(3 * P90)

    def test_witness_above_the_bound_proves_composite(self):
        assert is_prime(P90 * 3) is False
        assert is_prime(P90 * sympy.nextprime(2 ** 20)) is False
        assert factorize(sympy.nextprime(2 ** 20) * sympy.nextprime(2 ** 30) ** 3) == (
            (sympy.nextprime(2 ** 20), 1), (sympy.nextprime(2 ** 30), 3))

    def test_rho_budget_names_the_cofactor(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1 << 10)
        n = sympy.nextprime(2 ** 40) * sympy.nextprime(2 ** 41)
        with pytest.raises(ValueError, match=f"cannot split {n}"):
            factorize(7 * n)


class TestMersenne:
    def test_examples(self):
        assert is_mersenne_exponent(3)
        assert not is_mersenne_exponent(4)
        assert not is_mersenne_exponent(11)  # 2047 = 23 * 89

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            is_mersenne_exponent(1)

    def test_agrees_with_direct_primality_up_to_31(self):
        for r in range(2, 32):
            assert is_mersenne_exponent(r) == sympy.isprime(2 ** r - 1)

    def test_known_exponents_up_to_1279(self):
        known = [2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279]
        assert [r for r in range(2, 1280) if is_mersenne_exponent(r)] == known

    @pytest.mark.parametrize("r", [89, 107, 127])
    def test_mersenne_primes_above_the_proof_bound_factor(self, r):
        m = 2 ** r - 1
        assert m > PROOF_BOUND
        assert is_prime(m)
        assert factorize(m) == ((m, 1),)
        assert psi_cyclic(m) == m * m - m + 1


class TestPsiCyclic:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (7, 43), (12, 77), (8, 43)]
    )
    def test_examples(self, n, expected):
        assert psi_cyclic(n) == expected

    def test_matches_brute_force_up_to_1000(self):
        for n in range(1, 1001):
            assert psi_cyclic(n) == brute_psi_cyclic(n)

    @given(st.integers(2, 200), st.integers(2, 200))
    def test_multiplicative_on_coprime_pairs(self, a, b):
        if gcd(a, b) == 1:
            assert psi_cyclic(a * b) == psi_cyclic(a) * psi_cyclic(b)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            psi_cyclic(0)


class TestLowerBound:
    @pytest.mark.parametrize(
        "n,expected",
        [(12, Fraction(72)), (2, Fraction(8, 3)), (7, Fraction(343, 8))],
    )
    def test_examples(self, n, expected):
        assert psi_cyclic_lower_bound(n) == expected

    def test_holds_up_to_10000(self):
        for n in range(2, 10001):
            assert psi_cyclic(n) >= psi_cyclic_lower_bound(n)

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            psi_cyclic_lower_bound(1)


class TestFrobeniusRatio:
    def test_r3(self):
        assert frobenius_ratio_closed_form(3) == Fraction(45, 43)

    def test_r5(self):
        assert frobenius_ratio_closed_form(5) == Fraction(933, 683)

    def test_r13_in_open_interval(self):
        v = frobenius_ratio_closed_form(13)
        assert 1 < v < Fraction(3, 2)

    def test_strictly_increasing_and_bounded(self):
        values = [frobenius_ratio_closed_form(r) for r in range(3, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(1 < v < Fraction(3, 2) for v in values)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            frobenius_ratio_closed_form(2)


class TestIndexRatioBound:
    def test_q3_is_one(self):
        assert index_ratio_bound(3) == 1

    def test_q6(self):
        assert index_ratio_bound(6) == Fraction(31, 21)

    def test_increasing_along_3_times_powers_of_two(self):
        values = [index_ratio_bound(3 * 2 ** a) for a in range(1, 16)]
        limit = Fraction(27, 14)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < limit for v in values)

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            index_ratio_bound(1)
