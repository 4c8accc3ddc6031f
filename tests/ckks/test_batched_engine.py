"""Batched RnsPoly arithmetic: bit-exact vs the seed per-row loop path,
plus the unified cache-sizing / zero-recomputation invariants."""

import numpy as np

from repro.ckks import all_cache_stats
from repro.ckks.ks_common import eval_automorphism_table, mod_down_eval
from repro.ckks.poly import COEFF, EVAL, RnsPoly
from repro.ntt import TABLE_CACHE_SIZE, get_tables
from repro.numtheory import RNSBasis, find_ntt_primes
from tests.oracles import (apply_automorphism, get_reducer, negacyclic_intt,
                           negacyclic_ntt)

N = 64
MODULI = tuple(find_ntt_primes(6, 28, N))
NUM_SEEDS = 100


def rand_poly(rng, moduli=MODULI, domain=COEFF):
    data = np.stack(
        [rng.integers(0, q, size=N, dtype=np.uint64) for q in moduli]
    )
    return RnsPoly(data, moduli, domain)


class TestBatchedArithmeticBitExact:
    """Every RnsPoly hot path replays the per-row loop bit-for-bit."""

    def test_add_sub_mul_neg(self):
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(seed)
            a, b = rand_poly(rng), rand_poly(rng)
            ae, be = rand_poly(rng, domain=EVAL), rand_poly(rng, domain=EVAL)
            for i, q in enumerate(MODULI):
                red = get_reducer(q)
                assert np.array_equal(
                    (a + b).data[i], red.add_vec(a.data[i], b.data[i])
                )
                assert np.array_equal(
                    (a - b).data[i], red.sub_vec(a.data[i], b.data[i])
                )
                assert np.array_equal(
                    (ae * be).data[i], red.mul_vec(ae.data[i], be.data[i])
                )
                q64 = np.uint64(q)
                row = a.data[i]
                assert np.array_equal(
                    (-a).data[i], np.where(row == 0, row, q64 - row)
                )

    def test_domain_conversion(self):
        for seed in range(NUM_SEEDS):
            rng = np.random.default_rng(500 + seed)
            a = rand_poly(rng)
            e = a.to_eval()
            for i, q in enumerate(MODULI):
                assert np.array_equal(
                    e.data[i], negacyclic_ntt(a.data[i], get_tables(q, N))
                )
            back = e.to_coeff()
            for i, q in enumerate(MODULI):
                assert np.array_equal(
                    back.data[i],
                    negacyclic_intt(e.data[i], get_tables(q, N)),
                )
            assert back == a

    def test_mul_scalar_and_automorphism(self):
        for seed in range(30):
            rng = np.random.default_rng(900 + seed)
            a = rand_poly(rng)
            scalar = int(rng.integers(0, 1 << 40))
            scaled = a.mul_scalar(scalar)
            rotated = a.automorphism(5)
            for i, q in enumerate(MODULI):
                red = get_reducer(q)
                assert np.array_equal(
                    scaled.data[i],
                    red.mul_vec(a.data[i], np.uint64(scalar % q)),
                )
                assert np.array_equal(
                    rotated.data[i], apply_automorphism(a.data[i], 5, q)
                )

    def test_from_signed(self):
        rng = np.random.default_rng(42)
        coeffs = rng.integers(-(1 << 30), 1 << 30, size=N, dtype=np.int64)
        p = RnsPoly.from_signed(coeffs, MODULI)
        for i, q in enumerate(MODULI):
            assert np.array_equal(
                p.data[i], np.mod(coeffs, q).astype(np.uint64)
            )


class TestCacheSizing:
    """Regression for the mismatched-cache bug: get_tables cached 256
    entries while get_reducer cached 512, so deep chains could evict
    twiddle tables mid-operation and silently recompute them."""

    def test_all_caches_share_one_size(self):
        stats = all_cache_stats()
        sizes = {name: s["maxsize"] for name, s in stats.items()}
        assert set(sizes.values()) == {TABLE_CACHE_SIZE}, sizes

    def test_zero_mid_op_recomputation(self):
        """A deep-chain operation run twice must not miss any cache on
        the second run — every table built during the warm run stays
        resident."""
        n = 32
        deep_moduli = tuple(find_ntt_primes(24, 28, n))
        rng = np.random.default_rng(0)

        def op():
            data = np.stack([
                rng.integers(0, q, size=n, dtype=np.uint64)
                for q in deep_moduli
            ])
            a = RnsPoly(data, deep_moduli)
            prod = a.to_eval() * a.to_eval()
            rotated = prod.data[:, eval_automorphism_table(5, n)]
            lowered = mod_down_eval(
                rotated, RNSBasis(deep_moduli[:-2]),
                RNSBasis(deep_moduli[-2:]),
            )
            return RnsPoly(lowered, deep_moduli[:-2], EVAL) \
                .to_coeff().automorphism(5)

        op()  # warm every cache the op touches
        before = all_cache_stats()
        op()
        after = all_cache_stats()
        for name in before:
            assert after[name]["misses"] == before[name]["misses"], (
                f"{name} cache recomputed mid-op: "
                f"{before[name]} -> {after[name]}"
            )
