"""Property-style bit-exactness suite for the batched RNS engine.

The stacked ``(num_primes, N)`` kernel must agree *bit-for-bit* with the
per-row radix-2 path and with the O(N^2) reference transforms — on at
least 100 seeded random inputs per ``(N, q)`` configuration, and at the
worst-case inputs of the float64 GEMM kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WarpDriveNtt
from repro.ntt import (
    get_shoup_stack,
    get_tables,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.ntt.stacked import limb_split
from repro.numtheory import find_ntt_prime, find_ntt_primes
from tests.oracles import (negacyclic_intt, negacyclic_ntt,
                           reference_negacyclic_intt, reference_negacyclic_ntt)

NUM_SEEDS = 100
#: Leaf dataflow of each single-pipe variant -> that variant.
LEAF_VARIANTS = {"tensor": "wd-tensor", "cuda-gemm": "wd-cuda",
                 "butterfly": "wd-bo"}


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


class TestBatchedVsAllVariants:
    """Each single-pipe variant's per-prime transform agrees with the
    multi-prime batched kernel."""

    @pytest.mark.parametrize("engine", LEAF_VARIANTS)
    def test_variant_agreement(self, engine):
        n = 256
        moduli = tuple(find_ntt_primes(3, 28, n))
        stack = get_shoup_stack(moduli, n)
        engine_ntt = WarpDriveNtt(n, variant=LEAF_VARIANTS[engine])
        tables = [get_tables(q, n) for q in moduli]
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            data = rand_matrix(moduli, n, rng)
            fwd = stacked_negacyclic_ntt(data, stack)
            variant = np.stack(
                [engine_ntt.forward(data[i], t) for i, t in enumerate(tables)]
            )
            assert np.array_equal(fwd, variant), f"{engine}, seed {seed}"
            inv = stacked_negacyclic_intt(fwd, stack)
            variant_inv = np.stack(
                [engine_ntt.inverse(fwd[i], t) for i, t in enumerate(tables)]
            )
            assert np.array_equal(inv, variant_inv)


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


def _per_row(fn, x, moduli, n):
    return np.stack([fn(x[i] % np.uint64(q), get_tables(q, n))
                     for i, q in enumerate(moduli)])


class TestGemmExactness:
    """The float64 GEMM four-step stays exact at its worst-case inputs:
    forward values at ``2**32 - 1``, inverse values at ``2q - 1``, and
    the largest 30- and 31-bit NTT primes (the 30-bit chain keeps two
    16-bit limbs at ``N = 2**14``, right at the ``2**53`` edge), as a
    ``(P, N)`` matrix and as a ``(P, 2, N)`` digit batch."""

    @pytest.mark.parametrize("bits", [30, 31])
    @pytest.mark.parametrize("log_n", range(1, 15))
    def test_extreme_inputs_match_radix2(self, bits, log_n):
        n = 1 << log_n
        moduli = tuple(find_ntt_primes(2, bits, n))
        stack = get_shoup_stack(moduli, n)
        q_col = np.array(moduli, dtype=np.uint64)[:, None]
        top = np.full((2, n), (1 << 32) - 1, dtype=np.uint64)
        fwd = stacked_negacyclic_ntt(top, stack)
        assert np.array_equal(fwd, _per_row(negacyclic_ntt, top, moduli, n))
        edge = np.broadcast_to(2 * q_col - 1, (2, n)).copy()
        inv = stacked_negacyclic_intt(edge, stack)
        assert np.array_equal(inv,
                              _per_row(negacyclic_intt, edge, moduli, n))
        # The ceilings again as digit 0 of a (P, 2, N) batch whose digit 1
        # holds the canonical maximum q - 1.
        low = np.broadcast_to(q_col - 1, (2, n)).copy()
        for fn, ref, hi in ((stacked_negacyclic_ntt, negacyclic_ntt, top),
                            (stacked_negacyclic_intt, negacyclic_intt, edge)):
            got = fn(np.stack([hi, low], axis=1), stack)
            for d, x in enumerate((hi, low)):
                assert np.array_equal(got[:, d], _per_row(ref, x, moduli, n))
        if n <= 256:
            for i, q in enumerate(moduli):
                tables = get_tables(q, n)
                assert np.array_equal(fwd[i], reference_negacyclic_ntt(
                    top[i] % np.uint64(q), tables))
                assert np.array_equal(inv[i], reference_negacyclic_intt(
                    edge[i] % np.uint64(q), tables))

    @settings(max_examples=25, deadline=None)
    @given(log_n=st.integers(1, 10), below=st.integers(1 << 30, 1 << 31),
           seed=st.integers(0, 2**32 - 1))
    def test_random_31_bit_primes(self, log_n, below, seed):
        n = 1 << log_n
        try:
            q = find_ntt_prime(31, n, below=below)
        except ValueError:  # no NTT prime in [2**30, below)
            return
        stack = get_shoup_stack((q,), n)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 1 << 32, size=(1, 3, n), dtype=np.uint64)
        y = rng.integers(0, 2 * q, size=(1, 3, n), dtype=np.uint64)
        fwd = stacked_negacyclic_ntt(x, stack)
        inv = stacked_negacyclic_intt(y, stack)
        tables = get_tables(q, n)
        for d in range(3):
            assert np.array_equal(
                fwd[0, d], negacyclic_ntt(x[0, d] % np.uint64(q), tables))
            assert np.array_equal(
                inv[0, d], negacyclic_intt(y[0, d] % np.uint64(q), tables))

    def test_limb_split_is_derived_from_the_bound(self):
        assert limb_split(64, (1 << 31) - 1) == (2, 16)
        assert limb_split(128, (1 << 31) - 1) == (3, 11)
        assert limb_split(128, (1 << 30) - 1) == (2, 16)
        with pytest.raises(ValueError, match="below 2\\*\\*31"):
            limb_split(16, 1 << 31)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            limb_split(1 << 12, (1 << 31) - 1)
