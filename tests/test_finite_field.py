import random
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from reference import power
from relpsi.finite_field import FiniteField, find_irreducible


class TestFindIrreducible:
    def test_gf8_modulus(self):
        # x^3 + x + 1, encoding 11 in base 2
        assert find_irreducible(2, 3) == (1, 1, 0, 1)

    def test_degree_one(self):
        assert find_irreducible(2, 1) == (0, 1)

    def test_gf9_modulus(self):
        # x^2 + 1 has no roots in F_3
        assert find_irreducible(3, 2) == (1, 0, 1)

    @pytest.mark.parametrize("p,r", [(p, r) for p in sympy.primerange(2, 14)
                                     for r in range(1, 13) if p ** r <= 2 ** 12])
    def test_least_irreducible_by_sympy(self, p, r):
        # the least encoding in [p^r, 2 p^r) that sympy finds irreducible,
        # every candidate read, x itself for r = 1
        x = sympy.Symbol("x")
        least = next(f for f in range(p ** r, 2 * p ** r) if sympy.Poly(
            [f // p ** i % p for i in range(r, -1, -1)], x, modulus=p).is_irreducible)
        assert find_irreducible(p, r) == tuple(least // p ** i % p for i in range(r + 1))

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            find_irreducible(4, 2)


class TestArithmetic:
    def test_gf8_products(self):
        F = FiniteField(2, 3)
        assert F.mul(2, 4) == 3  # x * x^2 = x + 1
        assert F.mul(2, 5) == 1  # x * (x^2 + 1) = 1

    def test_multiplicative_identity(self):
        for p, r in [(2, 3), (3, 2), (5, 1), (7, 2)]:
            F = FiniteField(p, r)
            for a in range(F.size):
                assert F.mul(a, 1) == a

    def test_inverse_of_zero_fails(self):
        # 0 has no inverse: its product with every element is 0, never 1
        F = FiniteField(2, 3)
        assert {F.mul(0, a) for a in range(F.size)} == {F.mul(a, 0) for a in range(F.size)} == {0}

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (2, 4), (3, 2)])
    def test_commutative_associative_exhaustive(self, p, r):
        F = FiniteField(p, r)
        els = range(F.size)
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
        for a in els:
            for b in els:
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))

    def test_distributivity_gf8(self):
        F = FiniteField(2, 3)
        for a in range(F.size):
            for b in range(F.size):
                for c in range(F.size):
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 2), (7, 1)])
    def test_add_takes_arrays_like_encodings(self, p, r):
        F = FiniteField(p, r)
        a, b = np.divmod(np.arange(F.size * F.size, dtype=np.int64), F.size)
        assert F.add(a, b).tolist() == [F.add(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert not F._log.flags.writeable and not F._exp.flags.writeable

    def test_subtraction_and_negation(self):
        # the one additive inverse of b negates each of its digits mod p
        F = FiniteField(3, 2)
        for b in range(F.size):
            neg = F.encode(-(b // 3 ** i) for i in range(F.r))
            assert [c for c in range(F.size) if F.add(b, c) == 0] == [neg]
            for a in range(F.size):
                assert F.add(F.add(a, neg), b) == a


class TestPrimitiveElement:
    def test_gf2(self):
        assert FiniteField(2, 1).primitive_element == 1

    def test_gf8(self):
        F = FiniteField(2, 3)
        assert F.primitive_element == 2
        # the powers of the primitive element run over every nonzero element
        assert sorted(F._exp) == list(range(1, F.size))

    def test_gf5(self):
        F = FiniteField(5, 1)
        assert F.primitive_element == 2

    @pytest.mark.parametrize("p,r", [(2, 3), (2, 5), (2, 8), (3, 3), (5, 2), (2, 13), (251, 1)])
    def test_multiplicative_group_cyclic(self, p, r):
        F = FiniteField(p, r)
        assert sorted(F._exp) == list(range(1, F.size))

    @pytest.mark.parametrize("p,r", [(2, 3), (2, 11), (3, 2), (5, 3), (7, 4)])
    def test_frobenius_endomorphism_fixes_elements(self, p, r):
        F = FiniteField(p, r)
        if F.size <= 4096:
            sample = range(F.size)
        else:
            sample = range(0, F.size, F.size // 128)
        # a^q by square-and-multiply on the field's own product
        multiplicative = SimpleNamespace(identity=1, multiply=F.mul)
        for a in sample:
            assert power(multiplicative, a, F.size) == a


class TestSympyOracle:
    """Every GF(p^r) with r >= 2 up to 2^12 elements against sympy's
    polynomials over F_p, which share no code with the field."""

    @pytest.mark.parametrize("p,r", [(p, r) for p in sympy.primerange(2, 65)
                                     for r in range(2, 13) if p ** r <= 2 ** 12])
    def test_field(self, p, r):
        F = FiniteField(p, r)
        x = sympy.Symbol("x")

        def poly(code, degree=r - 1):
            return sympy.Poly([code // p ** i % p for i in range(degree, -1, -1)], x, modulus=p)

        # the least monic irreducible of degree r by encoding
        modulus = F.encode(F.modulus)
        assert len(F.modulus) == r + 1 and F.modulus[-1] == 1
        assert poly(modulus, r).is_irreducible
        assert not any(poly(f, r).is_irreducible for f in range(p ** r, modulus))

        rng = random.Random(p ** r)
        for _ in range(50):
            a, b = rng.randrange(F.size), rng.randrange(F.size)
            product = (poly(a) * poly(b)).rem(poly(modulus, r))
            assert F.mul(a, b) == F.encode(reversed(product.all_coeffs()))

        # the least generator of the multiplicative group
        assert F.primitive_element == next(
            g for g in range(F.size) if gcd(int(F._log[g]), F.size - 1) == 1)


def test_size_cap():
    with pytest.raises(ValueError, match=r"^field size 2\^21 exceeds cap 2\^20$"):
        FiniteField(2, 21)
    with pytest.raises(ValueError, match=r"^field size 3\^13 exceeds cap 2\^20$"):
        FiniteField(3, 13)
    # refused without computing 3^(10^9)
    with pytest.raises(ValueError, match=r"^field size 3\^1000000000 exceeds cap 2\^20$"):
        FiniteField(3, 10 ** 9)
