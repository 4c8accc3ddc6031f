"""Tests for Montgomery and Barrett reducers (scalar and vectorized)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.numtheory import find_ntt_prime
from tests.oracles import BarrettReducer, MontgomeryReducer

Q = find_ntt_prime(31, 4096)
SMALL_Q = 7681


@pytest.fixture(scope="module")
def mont():
    return MontgomeryReducer(Q)


@pytest.fixture(scope="module")
def barrett():
    return BarrettReducer(Q)


class TestMontgomeryScalar:
    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            MontgomeryReducer(16)

    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            MontgomeryReducer((1 << 31) + 11)

    def test_domain_roundtrip(self, mont):
        for a in [0, 1, 2, Q - 1, 12345]:
            assert mont.from_montgomery(mont.to_montgomery(a)) == a

    def test_mulmod_matches_bigint(self, mont):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = int(rng.integers(0, Q))
            b = int(rng.integers(0, Q))
            assert mont.mulmod(a, b) == (a * b) % Q

    def test_reduce_range_check(self, mont):
        with pytest.raises(ValueError):
            mont.reduce(Q * (1 << 32))

    @given(st.integers(min_value=0, max_value=Q - 1),
           st.integers(min_value=0, max_value=Q - 1))
    def test_mulmod_property(self, a, b):
        mont = MontgomeryReducer(Q)
        assert mont.mulmod(a, b) == (a * b) % Q


class TestMontgomeryVector:
    def test_mul_vec_with_montgomery_twiddle(self, mont):
        """mont_mul(a, b*R) == a*b mod q — the NTT twiddle-table trick."""
        rng = np.random.default_rng(1)
        a = rng.integers(0, Q, size=1000, dtype=np.uint64)
        b = rng.integers(0, Q, size=1000, dtype=np.uint64)
        b_mont = mont.to_montgomery_vec(b)
        out = mont.mul_vec(a, b_mont)
        expected = (a.astype(object) * b.astype(object)) % Q
        assert np.array_equal(out.astype(object), expected)

    def test_roundtrip_vec(self, mont):
        rng = np.random.default_rng(2)
        a = rng.integers(0, Q, size=512, dtype=np.uint64)
        back = mont.from_montgomery_vec(mont.to_montgomery_vec(a))
        assert np.array_equal(back, a)

    def test_matches_scalar(self, mont):
        rng = np.random.default_rng(3)
        t = rng.integers(0, Q, size=100, dtype=np.uint64) * rng.integers(
            0, Q, size=100, dtype=np.uint64
        )
        vec = mont.reduce_vec(t)
        scalars = [mont.reduce(int(x)) for x in t]
        assert vec.tolist() == scalars


class TestBarrettScalar:
    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            BarrettReducer(1 << 31)

    def test_reduce_matches_mod(self, barrett):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = int(rng.integers(0, Q)) * int(rng.integers(0, Q))
            assert barrett.reduce(t) == t % Q

    def test_rejects_negative(self, barrett):
        with pytest.raises(ValueError):
            barrett.reduce(-1)

    def test_boundary_values(self, barrett):
        for t in [0, 1, Q - 1, Q, Q + 1, Q * Q - 1]:
            assert barrett.reduce(t) == t % Q

    @given(st.integers(min_value=0, max_value=Q - 1),
           st.integers(min_value=0, max_value=Q - 1))
    def test_mulmod_property(self, a, b):
        barrett = BarrettReducer(Q)
        assert barrett.mulmod(a, b) == (a * b) % Q


class TestBarrettVector:
    def test_reduce_vec_matches_bigint(self, barrett):
        rng = np.random.default_rng(5)
        a = rng.integers(0, Q, size=2048, dtype=np.uint64)
        b = rng.integers(0, Q, size=2048, dtype=np.uint64)
        out = barrett.mul_vec(a, b)
        expected = (a.astype(object) * b.astype(object)) % Q
        assert np.array_equal(out.astype(object), expected)

    def test_reduce_vec_near_maximum_input(self, barrett):
        # Products of values just below q stress the high partial products.
        a = np.full(64, Q - 1, dtype=np.uint64)
        out = barrett.mul_vec(a, a)
        assert np.all(out == ((Q - 1) * (Q - 1)) % Q)

    def test_add_sub_vec(self, barrett):
        rng = np.random.default_rng(6)
        a = rng.integers(0, Q, size=512, dtype=np.uint64)
        b = rng.integers(0, Q, size=512, dtype=np.uint64)
        s = barrett.add_vec(a, b)
        d = barrett.sub_vec(a, b)
        assert np.array_equal(s.astype(object), (a.astype(object) + b) % Q)
        assert np.array_equal(d.astype(object), (a.astype(object) - b) % Q)

    def test_sub_vec_wraps(self, barrett):
        a = np.array([0], dtype=np.uint64)
        b = np.array([1], dtype=np.uint64)
        assert barrett.sub_vec(a, b)[0] == Q - 1

    def test_small_modulus(self):
        red = BarrettReducer(SMALL_Q)
        rng = np.random.default_rng(7)
        a = rng.integers(0, SMALL_Q, size=256, dtype=np.uint64)
        b = rng.integers(0, SMALL_Q, size=256, dtype=np.uint64)
        out = red.mul_vec(a, b)
        assert np.array_equal(out.astype(object), (a.astype(object) * b) % SMALL_Q)


class TestCrossReducerAgreement:
    """Montgomery and Barrett must agree — the paper swaps them per §IV-A-4."""

    @given(st.integers(min_value=0, max_value=Q - 1),
           st.integers(min_value=0, max_value=Q - 1))
    def test_agree(self, a, b):
        assert MontgomeryReducer(Q).mulmod(a, b) == BarrettReducer(Q).mulmod(a, b)
