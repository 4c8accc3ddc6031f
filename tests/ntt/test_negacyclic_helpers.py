"""Negacyclic ring arithmetic in ``Z_q[X]/(X^N + 1)`` on a one-prime
``RnsPoly``, and the cyclic schoolbook oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.poly import RnsPoly
from repro.ntt import NttTables
from repro.numtheory import find_ntt_prime
from tests.oracles import cyclic_convolution, negacyclic_ntt

N = 32
Q = find_ntt_prime(28, N)
TABLES = NttTables(Q, N)
RNG = np.random.default_rng(0)


def rand_poly():
    return RNG.integers(0, Q, size=N, dtype=np.uint64)


def ring(coeffs):
    """``coeffs`` as a coefficient-domain polynomial mod ``Q``."""
    return RnsPoly(coeffs[None, :], (Q,))


class TestPolyHelpers:
    def test_add_neg_cancel(self):
        a = ring(rand_poly())
        assert not (a + (-a)).data.any()

    def test_add_commutes(self):
        a, b = ring(rand_poly()), ring(rand_poly())
        assert np.array_equal((a + b).data, (b + a).data)

    def test_neg_of_zero(self):
        assert not (-RnsPoly.zero((Q,), N)).data.any()

    def test_pointwise_mul_is_eval_domain_product(self):
        a, b = rand_poly(), rand_poly()
        fa = negacyclic_ntt(a, TABLES)
        fb = negacyclic_ntt(b, TABLES)
        hadamard = (ring(a).to_eval() * ring(b).to_eval()).data[0]
        expected = (fa.astype(object) * fb.astype(object)) % Q
        assert np.array_equal(hadamard.astype(object), expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=N - 1))
    def test_mul_by_monomial_shifts(self, k):
        """x^k * a == a shifted by k with negacyclic sign wrap."""
        a = rand_poly()
        mono = np.zeros(N, dtype=np.uint64)
        mono[k] = 1
        got = (ring(a).to_eval() * ring(mono).to_eval()).to_coeff().data[0]
        expected = np.zeros(N, dtype=object)
        for j in range(N):
            idx = j + k
            if idx < N:
                expected[idx] = (expected[idx] + int(a[j])) % Q
            else:
                expected[idx - N] = (expected[idx - N] - int(a[j])) % Q
        assert np.array_equal(got.astype(object), expected)


class TestCyclicConvolution:
    def test_matches_numpy_circular(self):
        a, b = rand_poly(), rand_poly()
        got = cyclic_convolution(a, b, Q)
        full = np.convolve(a.astype(object), b.astype(object))
        expected = np.zeros(N, dtype=object)
        for i, v in enumerate(full):
            expected[i % N] = (expected[i % N] + int(v)) % Q
        assert np.array_equal(got.astype(object), expected)

    def test_length_check(self):
        with pytest.raises(ValueError):
            cyclic_convolution(rand_poly(), rand_poly()[:8], Q)
