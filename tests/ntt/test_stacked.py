"""Bit-exactness suite for the stacked (digit-batched) NTT kernel.

The ``(P, G, N)`` stacked transforms must agree bit-for-bit with running
the per-prime radix-2 transforms row by row, for every digit-lane
count, for 2-D matrix inputs, and regardless of which lazy
representatives (< 2**32) the ModUp stage feeds in.
"""

import numpy as np
import pytest

from repro.ntt import (
    get_shoup_stack,
    get_tables,
    shoup_stack_cache_stats,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.numtheory import find_ntt_primes
from tests.oracles import negacyclic_intt, negacyclic_ntt

NUM_SEEDS = 25


def rand_batch(moduli, g, n, rng):
    return np.stack([
        np.stack([
            rng.integers(0, q, size=n, dtype=np.uint64) for _ in range(g)
        ])
        for q in moduli
    ])


def row_reference_ntt(data, moduli, n, transform=negacyclic_ntt):
    """Per-(prime, digit) rows through the per-prime radix-2 transform."""
    out = np.empty_like(data)
    for i, q in enumerate(moduli):
        out[i] = transform(data[i], get_tables(q, n))
    return out


class TestStackedVsBatchedKernel:
    @pytest.mark.parametrize("n,g", [(64, 1), (64, 3), (128, 5), (256, 2)])
    def test_forward_matches_per_digit_rows(self, n, g):
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(seed)
            data = rand_batch(moduli, g, n, rng)
            got = stacked_negacyclic_ntt(data, stack)
            assert np.array_equal(
                got, row_reference_ntt(data, moduli, n)
            ), f"seed {seed}"

    @pytest.mark.parametrize("n,g", [(64, 3), (128, 2)])
    def test_roundtrip_is_identity(self, n, g):
        moduli = tuple(find_ntt_primes(4, 28, n))
        stack = get_shoup_stack(moduli, n)
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(100 + seed)
            data = rand_batch(moduli, g, n, rng)
            fwd = stacked_negacyclic_ntt(data, stack)
            assert np.array_equal(stacked_negacyclic_intt(fwd, stack), data)

    def test_inverse_matches_per_digit_rows(self):
        n, g = 128, 4
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(200 + seed)
            data = rand_batch(moduli, g, n, rng)
            got = stacked_negacyclic_intt(data, stack)
            per_row = row_reference_ntt(data, moduli, n, negacyclic_intt)
            assert np.array_equal(got, per_row), f"seed {seed}"

    def test_2d_matrix_shape(self):
        n = 64
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        rng = np.random.default_rng(7)
        data = rand_batch(moduli, 1, n, rng)[:, 0]
        fwd = stacked_negacyclic_ntt(data, stack)
        assert fwd.shape == data.shape
        assert np.array_equal(fwd, row_reference_ntt(data, moduli, n))
        assert np.array_equal(stacked_negacyclic_intt(fwd, stack), data)

    def test_shape_validation(self):
        n = 64
        moduli = tuple(find_ntt_primes(2, 28, n))
        stack = get_shoup_stack(moduli, n)
        with pytest.raises(ValueError):
            stacked_negacyclic_ntt(np.zeros((3, n), dtype=np.uint64), stack)
        with pytest.raises(ValueError):
            stacked_negacyclic_ntt(
                np.zeros((2, 2, 2 * n), dtype=np.uint64), stack
            )


class TestLazyModes:
    def test_lazy_inputs_transform_identically(self):
        """Any representative < 2**32 gives the canonical transform —
        the contract the lazy single-prime ModUp broadcast relies on."""
        n, g = 64, 3
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        q_col = np.array(moduli, dtype=np.uint64)[:, None, None]
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(300 + seed)
            data = rand_batch(moduli, g, n, rng)
            # Shift rows by random multiples of q while staying < 2**32.
            mult = rng.integers(0, 2, size=data.shape).astype(np.uint64)
            shifted = data + mult * q_col
            assert (shifted < 2**32).all()
            assert np.array_equal(
                stacked_negacyclic_ntt(shifted, stack),
                stacked_negacyclic_ntt(data, stack),
            ), f"seed {seed}"


class TestTableCache:
    def test_cache_is_shared_and_counted(self):
        n = 64
        moduli = tuple(find_ntt_primes(2, 28, n))
        before = shoup_stack_cache_stats()
        s1 = get_shoup_stack(moduli, n)
        s2 = get_shoup_stack(moduli, n)
        assert s1 is s2
        after = shoup_stack_cache_stats()
        assert after["hits"] > before["hits"]
