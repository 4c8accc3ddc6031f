"""Property tests for the scheme-support RNS primitives (signed extension
and t-preserving ModDown) added for BGV/BFV."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import CRTReconstructor, find_ntt_primes
from repro.numtheory.rns import RNSBasis, extend_basis_signed
from tests.oracles import mod_down_exact_t

PRIMES = find_ntt_primes(6, 28, 512)
SOURCE = RNSBasis(PRIMES[:3])
TARGET = RNSBasis(PRIMES[3:6])


def to_rows(values, basis):
    return np.stack([
        np.array([v % q for v in values], dtype=np.uint64)
        for q in basis.moduli
    ])


class TestSignedExtensionProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.integers(min_value=-(SOURCE.product // 3),
                    max_value=SOURCE.product // 3),
        min_size=1, max_size=16,
    ))
    def test_centered_values_roundtrip(self, values):
        rows = to_rows(values, SOURCE)
        out = extend_basis_signed(rows, SOURCE, TARGET)
        for j, t in enumerate(TARGET.moduli):
            assert out[j].tolist() == [v % t for v in values]

    def test_extension_preserves_sums(self):
        rnd = random.Random(3)
        a = [rnd.randrange(-SOURCE.product // 4, SOURCE.product // 4)
             for _ in range(16)]
        b = [rnd.randrange(-SOURCE.product // 4, SOURCE.product // 4)
             for _ in range(16)]
        ext_sum = extend_basis_signed(
            to_rows([x + y for x, y in zip(a, b)], SOURCE), SOURCE, TARGET
        )
        for j, t in enumerate(TARGET.moduli):
            expected = [(x + y) % t for x, y in zip(a, b)]
            assert ext_sum[j].tolist() == expected

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            extend_basis_signed(
                np.zeros((2, 4), dtype=np.uint64), SOURCE, TARGET
            )


class TestModDownExactTProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=2**16), st.integers(0, 10**9))
    def test_residue_and_accuracy(self, t_candidate, seed):
        from repro.numtheory import is_probable_prime

        # Use an odd modulus coprime to the chain (primality not needed
        # for the GHS rounding, only coprimality).
        t = t_candidate | 1
        if any(q % t == 0 or t % q == 0 for q in PRIMES[:5]):
            return
        main = RNSBasis(PRIMES[:3])
        special = RNSBasis(PRIMES[3:5])
        rnd = random.Random(seed)
        xs = [rnd.randrange(main.product) for _ in range(8)]
        rows = np.stack([
            np.array([x % q for x in xs], dtype=np.uint64)
            for q in main.moduli + special.moduli
        ])
        out = mod_down_exact_t(rows, main, special, t)
        crt = CRTReconstructor(main.moduli)
        ys = crt.reconstruct_array(out)
        p = special.product
        p_inv_t = pow(p, -1, t)
        for x, y in zip(xs, ys):
            assert y % t == (x * p_inv_t) % t
            assert abs(y - x // p) <= t + 1
