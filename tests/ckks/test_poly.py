"""Tests for RNS polynomials."""

import numpy as np
import pytest

from repro.ckks.poly import COEFF, EVAL, RnsPoly
from repro.numtheory import find_ntt_primes

N = 64
MODULI = tuple(find_ntt_primes(4, 28, N))
RNG = np.random.default_rng(0)


def rand_poly(moduli=MODULI, domain=COEFF):
    data = np.stack(
        [RNG.integers(0, q, size=N, dtype=np.uint64) for q in moduli]
    )
    return RnsPoly(data, moduli, domain)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RnsPoly(np.zeros((2, N), dtype=np.uint64), MODULI)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            RnsPoly(np.zeros((4, N), dtype=np.uint64), MODULI, "fourier")

    def test_from_signed(self):
        coeffs = np.array([-1, 0, 5] + [0] * (N - 3), dtype=np.int64)
        p = RnsPoly.from_signed(coeffs, MODULI)
        for i, q in enumerate(MODULI):
            assert int(p.data[i][0]) == q - 1
            assert int(p.data[i][2]) == 5

    def test_from_bigint(self):
        big = MODULI[0] * 3 + 7
        p = RnsPoly.from_bigint([big] + [0] * (N - 1), MODULI)
        assert int(p.data[0][0]) == (big % MODULI[0])

    def test_zero(self):
        z = RnsPoly.zero(MODULI, N)
        assert z.num_primes == 4
        assert not z.data.any()


class TestDomainConversion:
    def test_roundtrip(self):
        p = rand_poly()
        assert p.to_eval().to_coeff() == p

    def test_idempotent(self):
        p = rand_poly()
        e = p.to_eval()
        assert e.to_eval() == e
        assert p.to_coeff() == p

    def test_noop_conversion_never_aliases(self):
        """Regression: to_eval()/to_coeff() used to return ``self`` when
        already in the target domain, sharing the mutable data buffer —
        an in-place write then corrupted both values."""
        p = rand_poly()
        same = p.to_coeff()
        assert same is not p
        assert not np.shares_memory(same.data, p.data)
        original = p.data.copy()
        same.data[:] = 0
        assert np.array_equal(p.data, original)

        e = rand_poly(domain=EVAL)
        same_e = e.to_eval()
        assert same_e is not e
        assert not np.shares_memory(same_e.data, e.data)
        original = e.data.copy()
        same_e.data += np.uint64(1)
        assert np.array_equal(e.data, original)


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a, b = rand_poly(), rand_poly()
        assert (a + b) - b == a

    def test_neg(self):
        a = rand_poly()
        z = a + (-a)
        assert not z.data.any()

    def test_mul_requires_eval(self):
        a, b = rand_poly(), rand_poly()
        with pytest.raises(ValueError):
            _ = a * b

    def test_mul_matches_convolution(self):
        from tests.oracles import negacyclic_convolution

        a, b = rand_poly(), rand_poly()
        prod = (a.to_eval() * b.to_eval()).to_coeff()
        for i, q in enumerate(MODULI):
            expected = negacyclic_convolution(a.data[i], b.data[i], q)
            assert np.array_equal(prod.data[i], expected)

    def test_mismatched_bases_rejected(self):
        a = rand_poly()
        b = rand_poly(MODULI[:2])
        with pytest.raises(ValueError):
            _ = a + b

    def test_mismatched_domains_rejected(self):
        a = rand_poly()
        with pytest.raises(ValueError):
            _ = a + rand_poly(domain=EVAL)

    def test_mul_scalar(self):
        a = rand_poly()
        doubled = a.mul_scalar(2)
        assert doubled == a + a

    def test_mul_scalar_bigint(self):
        a = rand_poly()
        big = MODULI[0] + 1  # == 1 mod q0
        scaled = a.mul_scalar(big)
        assert np.array_equal(
            scaled.data[0],
            a.data[0],
        )


class TestStructure:
    def test_drop_last_primes(self):
        a = rand_poly()
        d = a.drop_last_primes(2)
        assert d.moduli == MODULI[:2]
        assert np.array_equal(d.data, a.data[:2])

    def test_drop_zero_is_noop(self):
        a = rand_poly()
        assert a.drop_last_primes(0) is a

    def test_drop_too_many(self):
        with pytest.raises(ValueError):
            rand_poly().drop_last_primes(4)

    def test_take_primes(self):
        a = rand_poly()
        t = a.take_primes([0, 2])
        assert t.moduli == (MODULI[0], MODULI[2])
        assert np.array_equal(t.data[1], a.data[2])

    def test_automorphism_requires_coeff(self):
        with pytest.raises(ValueError):
            rand_poly(domain=EVAL).automorphism(5)

    def test_automorphism_composition(self):
        a = rand_poly()
        two_n = 2 * N
        e1, e2 = 5, 25
        lhs = a.automorphism(e1).automorphism(e2)
        rhs = a.automorphism((e1 * e2) % two_n)
        assert lhs == rhs
