"""Property-style bit-exactness suite for the batched RNS engine.

The stacked ``(num_primes, N)`` kernel must agree *bit-for-bit* with the
per-row radix-2 path, with every hierarchical NTT variant, and with the
O(N^2) reference transforms — on at least 100 seeded random inputs per
``(N, q)`` configuration.
"""

import numpy as np
import pytest

from repro.ntt import (
    LEAF_ENGINES,
    HierarchicalNtt,
    get_shoup_stack,
    get_tables,
    negacyclic_intt,
    negacyclic_ntt,
    reference_negacyclic_intt,
    reference_negacyclic_ntt,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.numtheory import find_ntt_primes

NUM_SEEDS = 100


def rand_matrix(moduli, n, rng):
    return np.stack(
        [rng.integers(0, q, size=n, dtype=np.uint64) for q in moduli]
    )


class TestBatchedVsReference:
    """100+ seeded inputs per (N, q) config against the O(N^2) ground truth."""

    @pytest.mark.parametrize("n", [16, 32])
    def test_forward_and_inverse_match_reference(self, n):
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(seed)
            data = rand_matrix(moduli, n, rng)
            fwd = stacked_negacyclic_ntt(data, stack)
            inv = stacked_negacyclic_intt(fwd, stack)
            for i, q in enumerate(moduli):
                tables = get_tables(q, n)
                assert np.array_equal(
                    fwd[i], reference_negacyclic_ntt(data[i], tables)
                ), f"seed {seed}, q={q}"
                assert np.array_equal(
                    inv[i], reference_negacyclic_intt(fwd[i], tables)
                )
            assert np.array_equal(inv, data)


class TestBatchedVsPerRow:
    """The batched kernel replays the per-row radix-2 path bit-for-bit."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_negacyclic_roundtrip(self, n):
        moduli = tuple(find_ntt_primes(5, 28, n))
        stack = get_shoup_stack(moduli, n)
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(1000 + seed)
            data = rand_matrix(moduli, n, rng)
            fwd = stacked_negacyclic_ntt(data, stack)
            per_row = np.stack([
                negacyclic_ntt(data[i], get_tables(q, n))
                for i, q in enumerate(moduli)
            ])
            assert np.array_equal(fwd, per_row), f"seed {seed}"
            inv = stacked_negacyclic_intt(fwd, stack)
            per_row_inv = np.stack([
                negacyclic_intt(fwd[i], get_tables(q, n))
                for i, q in enumerate(moduli)
            ])
            assert np.array_equal(inv, per_row_inv)
            assert np.array_equal(inv, data)


class TestBatchedVsAllVariants:
    """Every hierarchical leaf engine agrees with the batched kernel."""

    @pytest.mark.parametrize("engine", LEAF_ENGINES)
    def test_variant_agreement(self, engine):
        n = 256
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        executors = [
            HierarchicalNtt(get_tables(q, n), leaf_engine=engine)
            for q in moduli
        ]
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            data = rand_matrix(moduli, n, rng)
            fwd = stacked_negacyclic_ntt(data, stack)
            variant = np.stack(
                [ex.forward(data[i]) for i, ex in enumerate(executors)]
            )
            assert np.array_equal(fwd, variant), f"{engine}, seed {seed}"
            inv = stacked_negacyclic_intt(fwd, stack)
            variant_inv = np.stack(
                [ex.inverse(fwd[i]) for i, ex in enumerate(executors)]
            )
            assert np.array_equal(inv, variant_inv)

